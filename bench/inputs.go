package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"

	"gospaces/internal/transport"
)

// Task and Result are the benchmark's own entry types. Job is the index
// field: templates that set it hit one bucket (and, behind a router, one
// shard); templates that leave it empty scan the whole type.
type Task struct {
	Job     string `space:"index"`
	ID      int
	Payload []byte
}

// Result is what a bag worker writes back for a Task.
type Result struct {
	Job     string `space:"index"`
	ID      int
	Payload []byte
}

func init() {
	transport.RegisterType(Task{})
	transport.RegisterType(Result{})
}

// Workload sizes. They are part of the benchmark's definition: changing
// one changes what every recorded number means.
const (
	pairKeys    = 1024 // keys each pair client cycles through
	pairPayload = 64   // bytes
	bagBatch    = 256  // tasks the bag master writes before collecting
	bagPayload  = 1024 // bytes
	durPayload  = 256  // bytes
	stopJob     = "stop"
)

// Resident populations. Variables only so the smoke test can shrink
// them; nothing else assigns to them.
var (
	scanResidents = 20000 // entries preloaded for scan_20k_tcp
	durResidents  = 2000  // Result entries resident in the durable shard
)

// payloads is a seeded pool of byte slices with their checksums, so a
// client can check what it takes without keeping every written entry.
type payloads struct {
	data [][]byte
	sums []uint32
}

func newPayloads(rng *rand.Rand, n, size int) payloads {
	p := payloads{data: make([][]byte, n), sums: make([]uint32, n)}
	for i := range p.data {
		b := make([]byte, size)
		rng.Read(b)
		p.data[i] = b
		p.sums[i] = crc32.ChecksumIEEE(b)
	}
	return p
}

func (p payloads) ok(i int, got []byte) bool { return crc32.ChecksumIEEE(got) == p.sums[i] }

// stream derives an independent PRNG for one role from the run seed.
func stream(seed int64, role int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(role)))
}

// pairGen yields one pair client's op sequence: iteration i writes and
// then takes keys[i%pairKeys]. The seed fixes key names, key order and
// payload bytes.
type pairGen struct {
	keys []string
	pay  payloads
	i    int
}

func newPairGen(seed int64, client int) *pairGen {
	rng := stream(seed, 100+client)
	g := &pairGen{keys: make([]string, pairKeys), pay: newPayloads(rng, pairKeys, pairPayload)}
	for i, j := range rng.Perm(pairKeys) {
		g.keys[i] = fmt.Sprintf("c%d-%x-%d", client, uint32(seed), j)
	}
	return g
}

// next returns the slot (index into keys and payloads) and entry ID of
// the next pair.
func (g *pairGen) next() (slot, id int) {
	slot, id = g.i%pairKeys, g.i
	g.i++
	return slot, id
}

// scanGen yields the resident IDs one scan client probes: uniform draws
// from its own share of [1, scanResidents], so no two clients ever take
// the same resident.
type scanGen struct {
	rng    *rand.Rand
	lo, hi int
}

func newScanGen(seed int64, client, clients int) *scanGen {
	share := scanResidents / clients
	return &scanGen{rng: stream(seed, 200+client), lo: client*share + 1, hi: (client+1)*share + 1}
}

func (g *scanGen) next() int { return g.lo + g.rng.Intn(g.hi-g.lo) }

// residents is the preloaded population: resident id (from 1, because a
// zero field in a template is a wildcard) has payload pay.data[id%len].
// Shared by set-up and the clients' checks.
type residents struct {
	pay payloads
}

func newResidents(seed int64, size int) residents {
	return residents{pay: newPayloads(stream(seed, 300), 256, size)}
}

func (r residents) payload(id int) []byte      { return r.pay.data[id%len(r.pay.data)] }
func (r residents) ok(id int, got []byte) bool { return r.pay.ok(id%len(r.pay.data), got) }

// bagGen is shared (by value of seed) between the bag master and its
// workers: slot s of every batch reuses key keys[s] and payload s, which
// is safe because a batch is fully collected before the next is written.
// The seed picks the key names, and with them the shard each lands on.
type bagGen struct {
	keys []string
	pay  payloads
}

func newBagGen(seed int64) *bagGen {
	rng := stream(seed, 400)
	g := &bagGen{keys: make([]string, bagBatch), pay: newPayloads(rng, bagBatch, bagPayload)}
	for i := range g.keys {
		g.keys[i] = fmt.Sprintf("t%d-%x-%x", i, uint32(seed), rng.Uint32())
	}
	return g
}

// digest is the bag worker's "computation": the task payload's checksum,
// which the master checks against the payload it wrote.
func digest(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload))
}
