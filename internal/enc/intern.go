package enc

import "hash/maphash"

// maxInterned bounds a Decoder's string table. A connection names a
// handful of clients and job names and, in a keyed bag, a few hundred keys
// over and over; a table that fills up anyway (a scan's residents, clients
// that come and go over a long life) starts again rather than grow.
const maxInterned = 1024

// strtab is a Decoder's string table: every string the Decoder decodes,
// in a record's header or a value's fields alike, comes from here, so a
// string its stream sent before costs no allocation. Strings are
// immutable, so whoever keeps one may share it.
//
// It is an open-addressed table, probed linearly and at most half full,
// that keeps each string's hash beside it: a lookup hashes once and
// compares strings only where the hashes agree, and a miss stores the copy
// a decode without the table would make in the slot its probe ended at.
// Whether a string hits depends only on the strings before it on the
// stream, never on where the hash put them, so a stream allocates alike
// in every process.
type strtab struct {
	slots []interned // a power of two, at least twice n; nil until the first string
	n     int
}

type interned struct {
	h uint64
	s string // "" for an empty slot
}

// minSlots is a table's first size: most streams name a handful of
// strings.
const minSlots = 16

// intern returns b as a string: the table's, or a copy of b that the table
// keeps from here on.
func (t *strtab) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	h := maphash.Bytes(strSeed, b)
	mask := len(t.slots) - 1
	i := int(h) & mask
	for ; len(t.slots) > 0 && t.slots[i].s != ""; i = (i + 1) & mask {
		if sl := &t.slots[i]; sl.h == h && sl.s == string(b) {
			return sl.s
		}
	}
	s := string(b)
	switch {
	case t.n == maxInterned:
		clear(t.slots)
		t.n, i = 0, int(h)&mask
	case 2*(t.n+1) > len(t.slots):
		old := t.slots
		t.slots = make([]interned, max(minSlots, 2*len(old)))
		for _, sl := range old {
			if sl.s != "" {
				t.slots[t.free(sl.h)] = sl
			}
		}
		i = t.free(h)
	}
	t.slots[i] = interned{h, s}
	t.n++
	return s
}

// free returns the empty slot a probe for hash h ends at.
func (t *strtab) free(h uint64) int {
	mask := len(t.slots) - 1
	i := int(h) & mask
	for t.slots[i].s != "" {
		i = (i + 1) & mask
	}
	return i
}

// strSeed seeds every table's hash: a peer cannot choose strings that
// probe long.
var strSeed = maphash.MakeSeed()
