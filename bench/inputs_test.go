package main

import (
	"fmt"
	"hash/crc32"
	"testing"
)

// opSequence renders the first n operations each generator would issue,
// payload checksums included.
func opSequence(seed int64, n int) []string {
	var ops []string
	pg := newPairGen(seed, 1)
	for i := 0; i < n; i++ {
		slot, id := pg.next()
		ops = append(ops, fmt.Sprintf("pair %s %d %08x", pg.keys[slot], id, pg.pay.sums[slot]))
	}
	sg := newScanGen(seed, 1, 2)
	res := newResidents(seed, pairPayload)
	for i := 0; i < n; i++ {
		id := sg.next()
		ops = append(ops, fmt.Sprintf("scan %d %08x", id, crc32.ChecksumIEEE(res.payload(id))))
	}
	bg := newBagGen(seed)
	for s := 0; s < n && s < bagBatch; s++ {
		ops = append(ops, fmt.Sprintf("bag %s %08x", bg.keys[s], bg.pay.sums[s]))
	}
	return ops
}

func TestSameSeedSameOps(t *testing.T) {
	a, b, c := opSequence(7, 200), opSequence(7, 200), opSequence(8, 200)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs under one seed: %q vs %q", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Fatalf("%d of %d ops identical under different seeds", same, len(a))
	}
}

func TestScanClientsShareNothing(t *testing.T) {
	a, b := newScanGen(3, 0, 2), newScanGen(3, 1, 2)
	for i := 0; i < 1000; i++ {
		if id := a.next(); id < 1 || id > scanResidents/2 {
			t.Fatalf("client 0 drew %d", id)
		}
		if id := b.next(); id <= scanResidents/2 || id > scanResidents {
			t.Fatalf("client 1 drew %d", id)
		}
	}
}

func TestPayloadCheck(t *testing.T) {
	res := newResidents(1, 64)
	if !res.ok(5, res.payload(5)) {
		t.Fatal("a resident's own payload failed its check")
	}
	bad := append([]byte(nil), res.payload(5)...)
	bad[0] ^= 1
	if res.ok(5, bad) {
		t.Fatal("a corrupted payload passed")
	}
}
