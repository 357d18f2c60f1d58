package replica

import (
	"runtime"
	"testing"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/space"
	"gospaces/internal/vclock"
)

// gatedMirror is a backup that answers an Append only when the test lets
// it: a Flush holds the ship section for as long as the test says.
type gatedMirror struct {
	inCall chan struct{} // an Append reached the mirror
	answer chan struct{} // the test lets it return
}

func (m *gatedMirror) Call(method string, arg interface{}) (interface{}, error) {
	switch a := arg.(type) {
	case *appendArgs:
		m.inCall <- struct{}{}
		<-m.answer
		return enc.Lend(appendReply{Applied: a.From + a.N - 1}), nil
	case *syncArgs:
		return enc.Lend(appendReply{Applied: a.Seq}), nil
	}
	return nil, nil
}

func (m *gatedMirror) Close() error { return nil }

// TestContendedShipAllocatesNothing: two processes Flush at once, one
// holding the ship section while the backup answers and the other parked
// on it, round after round. After the first round has made the parked
// one's waiter, the ship section allocates nothing: the waiter goes back
// on the idle list and the parked list keeps its array. On the real clock
// and the virtual one.
func TestContendedShipAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name  string
		clock vclock.Clock
	}{
		{"real", vclock.NewReal()},
		{"virtual", vclock.NewVirtual(time.Unix(1_000_000_000, 0))},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the lent structs' pools stay on it
			local := space.NewLocal(c.clock)
			defer local.Close()
			p := NewPrimary(local, PrimaryOptions{Clock: c.clock})
			m := &gatedMirror{inCall: make(chan struct{}), answer: make(chan struct{})}
			p.SetMirror(m)
			if err := p.Flush(); err != nil { // the attach-time snapshot push
				t.Fatal(err)
			}
			record := []byte("a record")
			start := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
			done := make(chan error)
			spawn := func(fn func()) { go fn() }
			if v, ok := c.clock.(*vclock.Virtual); ok {
				spawn = v.Go // a parked contender must be a process the clock sees
			}
			for i := range start {
				spawn(func() {
					for range start[i] {
						done <- p.Flush()
					}
				})
			}
			defer close(start[1])
			defer close(start[0])
			parked := func() bool {
				p.mu.Lock()
				defer p.mu.Unlock()
				return len(p.shipWaiters) == 1
			}
			round := func() {
				if err := p.Sink().Append(record); err != nil {
					t.Fatal(err)
				}
				start[0] <- struct{}{}
				<-m.inCall // the first holds the section, its Append out
				start[1] <- struct{}{}
				for !parked() {
					runtime.Gosched()
				}
				m.answer <- struct{}{}
				for range start {
					if err := <-done; err != nil {
						t.Fatal(err)
					}
				}
			}
			round() // makes the waiter and the parked list's array
			round()
			const rounds = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				round()
			}
			runtime.ReadMemStats(&after)
			if p.Acked() != p.Seq() {
				t.Fatalf("backup confirmed %d of %d records", p.Acked(), p.Seq())
			}
			if n := after.Mallocs - before.Mallocs; n > rounds/10 && !RaceEnabled {
				t.Fatalf("%d contended ships allocated %d times, want none", rounds, n)
			}
		})
	}
}
