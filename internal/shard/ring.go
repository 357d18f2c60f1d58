// Package shard scales the space horizontally: a Router implements the
// space.Space interface over N independent space servers ("shards"),
// partitioning entries by their `space:"index"` key field with consistent
// hashing. Operations whose entry or template fixes the key route to
// exactly one shard; everything else — zero-key templates, bulk reads,
// counts, notifications — scatter-gathers across all shards with bounded
// concurrency. Every blocking lookup runs one wait loop that parks at most
// a slice per round and takes once, so no take is undone and no parked RPC
// outlives its slice.
//
// With one shard the router degenerates to pure pass-through, which is the
// compatibility mode: semantics are identical to talking to the single
// server directly. Shard membership comes from the discovery service (see
// Join); it changes under a running job only through a published topology
// (see Watcher), which moves the affected entries first.
package shard

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is an immutable consistent-hash ring over member IDs, with vnodes
// virtual points per member to smooth the key distribution. Lookup is a
// binary search over the sorted point list — O(log(members·vnodes)).
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	id   string
}

// hash64 is FNV-1a over s with a splitmix-style finalizer. Raw FNV output
// correlates for near-identical strings (addresses and vnode labels differ
// in one character), which clusters ring points; the finalizer spreads
// them. Both the master (routing over direct handles) and every worker
// (routing over proxies) must hash identically, which they do because ring
// members are identified by their registered discovery address on both
// sides.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// DefaultLabels returns member's default ring point labels: "m#0" …
// "m#<vnodes-1>", the labels newRing has always hashed. Resharding makes
// them explicit: a split hands a subset of the parent's labels to the
// child, so exactly the key ranges behind those points change owner and
// every other key keeps its placement.
func DefaultLabels(member string, vnodes int) []string {
	if vnodes <= 0 {
		vnodes = 1
	}
	labels := make([]string, vnodes)
	for v := 0; v < vnodes; v++ {
		labels[v] = member + "#" + strconv.Itoa(v)
	}
	return labels
}

// SplitLabels partitions labels into two halves that each own
// approximately half of the combined hash arc: labels are sorted by their
// point hash and alternated, so the split is even regardless of how the
// hashes cluster. keep stays with the parent, give moves to the child.
func SplitLabels(labels []string) (keep, give []string) {
	sorted := append([]string(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return hash64(sorted[i]) < hash64(sorted[j]) })
	for i, l := range sorted {
		if i%2 == 0 {
			keep = append(keep, l)
		} else {
			give = append(give, l)
		}
	}
	return keep, give
}

// newRing builds a ring over members (IDs must be distinct) with the
// default vnode labels per member.
func newRing(members []string, vnodes int) *ring {
	labels := make(map[string][]string, len(members))
	for _, m := range members {
		labels[m] = DefaultLabels(m, vnodes)
	}
	return newRingLabels(members, labels)
}

// newRingLabels builds a ring whose members own explicit point labels —
// the resharded form. A member with no labels entry gets none (and owns
// nothing), so callers must pass every member's labels.
func newRingLabels(members []string, labels map[string][]string) *ring {
	n := 0
	for _, m := range members {
		n += len(labels[m])
	}
	r := &ring{points: make([]ringPoint, 0, n)}
	for _, m := range members {
		for _, l := range labels[m] {
			r.points = append(r.points, ringPoint{hash: hash64(l), id: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id // deterministic on (vanishingly rare) collisions
	})
	return r
}

// fractions returns the share of the hash space each member owns — the
// imbalance view the rebalancer and /healthz report. A point at hash h
// owns the arc from its predecessor (exclusive) to h (inclusive).
func (r *ring) fractions() map[string]float64 {
	out := make(map[string]float64)
	if len(r.points) == 0 {
		return out
	}
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		arc := p.hash - prev // wraps correctly in uint64 arithmetic
		if len(r.points) == 1 {
			arc = ^uint64(0)
		}
		out[p.id] += float64(arc) / float64(^uint64(0))
		prev = p.hash
	}
	return out
}

// get returns the member owning key: the first point clockwise from the
// key's hash.
func (r *ring) get(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].id
}
