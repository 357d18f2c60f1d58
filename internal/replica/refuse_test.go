package replica_test

import (
	"errors"
	"testing"
	"time"

	"gospaces/internal/rebalance"
	"gospaces/internal/replica"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// TestOnlyTheLogRefusesRecords pins what makes the journal's one failure
// mode cost nothing: of the record sinks a hosted shard chains behind its
// journal, only the WAL can refuse a record. A switch, a primary's queue
// and a migration tap accept every record in every state they can be in,
// so a journal error is always the disk's, and returning it to the op that
// made the record changes no other outcome.
func TestOnlyTheLogRefusesRecords(t *testing.T) {
	made := &recordLog{}
	src := tuplespace.New(vclock.NewReal())
	if err := src.AttachJournal(tuplespace.NewJournalSink(made)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Write(kv{K: "refused?", N: 1}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	payload := made.recs[0]

	const maxQ = 4
	clk := vclock.NewVirtual(testEpoch)
	clk.Run(func() {
		pair := func(ack replica.AckMode) *pair {
			return newPair(t, clk, transport.NewNetwork(clk, transport.Model{}), pairOptions{ack: ack, maxQ: maxQ})
		}
		// Each builds a fresh switch in one state; Append may move a
		// primary on (a full queue overflows into a resync).
		switches := []struct {
			name  string
			build func() tuplespace.RecordSink
		}{
			{"switch/empty", func() tuplespace.RecordSink { return replica.NewSwitchSink() }},
			{"switch/primary-no-mirror", func() tuplespace.RecordSink {
				return switchTo(replica.NewPrimary(space.NewLocal(clk), replica.PrimaryOptions{Clock: clk}))
			}},
			{"switch/primary-resyncing", func() tuplespace.RecordSink {
				return switchTo(pair(replica.AckAsync).p) // attached, snapshot push not yet run
			}},
			{"switch/primary-fenced", func() tuplespace.RecordSink {
				pr := pair(replica.AckSync)
				if _, flipped := pr.b.Promote(); !flipped {
					t.Fatal("backup did not promote")
				}
				if _, err := pr.wrapped.Write(kv{K: "post"}, nil, time.Hour); !errors.Is(err, replica.ErrFenced) {
					t.Fatalf("deposed write: %v, want fenced", err)
				}
				return switchTo(pr.p)
			}},
			{"switch/primary-killed", func() tuplespace.RecordSink {
				pr := pair(replica.AckSync)
				pr.p.Kill()
				return switchTo(pr.p)
			}},
			{"switch/primary-queue-full", func() tuplespace.RecordSink {
				pr := pair(replica.AckAsync)
				if err := pr.p.Flush(); err != nil { // the attach-time snapshot push
					t.Fatal(err)
				}
				for i := 0; i < maxQ; i++ {
					if err := pr.p.Sink().Append(payload); err != nil {
						t.Fatalf("queueing record %d: %v", i, err)
					}
				}
				if lag := pr.p.Lag(); lag != maxQ {
					t.Fatalf("queue holds %d records, want it full at %d", lag, maxQ)
				}
				return switchTo(pr.p)
			}},
		}

		accepts := func(name string, sink tuplespace.RecordSink) {
			t.Helper()
			for i := 0; i < 2; i++ {
				if err := sink.Append(payload); err != nil {
					t.Errorf("%s refused record %d: %v", name, i, err)
				}
			}
		}
		downs := []struct {
			name  string
			build func() tuplespace.RecordSink
		}{{"nil", func() tuplespace.RecordSink { return nil }}}
		for _, sw := range switches {
			accepts(sw.name, sw.build())
			downs = append(downs, sw)
		}

		refused := errors.New("child refused the record")
		for _, down := range downs {
			off := rebalance.NewTap(down.build())
			accepts("tap/off over "+down.name, off)

			buffering := rebalance.NewTap(down.build())
			buffering.StartBuffer()
			accepts("tap/buffering over "+down.name, buffering)

			live := rebalance.NewTap(down.build())
			live.StartBuffer()
			if err := live.GoLive(func([]byte) error { return refused }); err != nil {
				t.Fatal(err)
			}
			accepts("tap/live-failing over "+down.name, live)
			if !errors.Is(live.Err(), refused) {
				t.Errorf("tap/live-failing over %s: Err = %v, want the forward's failure kept for the migration", down.name, live.Err())
			}
		}
	})
}

// switchTo returns a switch pointed at p's queue, as a hosted node's is.
func switchTo(p *replica.Primary) *replica.SwitchSink {
	sw := replica.NewSwitchSink()
	sw.Set(p.Sink())
	return sw
}
