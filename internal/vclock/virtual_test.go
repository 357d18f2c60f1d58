package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2001, time.October, 8, 0, 0, 0, 0, time.UTC)

func TestVirtualSleepAdvancesTime(t *testing.T) {
	v := NewVirtual(epoch)
	var end time.Time
	v.Run(func() {
		v.Sleep(5 * time.Second)
		end = v.Now()
	})
	if got, want := end.Sub(epoch), 5*time.Second; got != want {
		t.Fatalf("advanced %v, want %v", got, want)
	}
}

func TestVirtualSleepZeroOrNegative(t *testing.T) {
	v := NewVirtual(epoch)
	v.Run(func() {
		v.Sleep(0)
		v.Sleep(-time.Second)
	})
	if got := v.Now(); !got.Equal(epoch) {
		t.Fatalf("time moved to %v on zero sleeps", got)
	}
}

func TestVirtualInterleavedSleepers(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	var order []string
	log := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	v.Run(func() {
		v.Go(func() {
			v.Sleep(3 * time.Second)
			log("b")
		})
		v.Go(func() {
			v.Sleep(1 * time.Second)
			log("a")
			v.Sleep(5 * time.Second)
			log("c")
		})
	})
	want := []string{"a", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got, want := v.Now().Sub(epoch), 6*time.Second; got != want {
		t.Fatalf("final time %v, want %v", got, want)
	}
}

func TestVirtualManySleepersDeterministic(t *testing.T) {
	const n = 50
	run := func() time.Duration {
		v := NewVirtual(epoch)
		var total int64
		v.Run(func() {
			for i := 0; i < n; i++ {
				d := time.Duration(i%7+1) * time.Millisecond
				v.Go(func() {
					v.Sleep(d)
					atomic.AddInt64(&total, int64(d))
				})
			}
		})
		return v.Now().Sub(epoch)
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d elapsed %v, first %v", i, got, first)
		}
	}
	if first != 7*time.Millisecond {
		t.Fatalf("elapsed %v, want 7ms (max sleep)", first)
	}
}

func TestVirtualWaiterWake(t *testing.T) {
	v := NewVirtual(epoch)
	var woken bool
	v.Run(func() {
		w := v.NewWaiter()
		v.Go(func() {
			v.Sleep(2 * time.Second)
			w.Wake()
		})
		woken = w.Wait(0)
	})
	if !woken {
		t.Fatal("Wait reported timeout, want woken")
	}
	if got := v.Now().Sub(epoch); got != 2*time.Second {
		t.Fatalf("elapsed %v, want 2s", got)
	}
}

func TestVirtualWaiterTimeout(t *testing.T) {
	v := NewVirtual(epoch)
	var woken bool
	v.Run(func() {
		w := v.NewWaiter()
		woken = w.Wait(3 * time.Second)
	})
	if woken {
		t.Fatal("Wait reported woken, want timeout")
	}
	if got := v.Now().Sub(epoch); got != 3*time.Second {
		t.Fatalf("elapsed %v, want 3s", got)
	}
}

func TestVirtualWaiterWakeBeforeWait(t *testing.T) {
	v := NewVirtual(epoch)
	var woken bool
	v.Run(func() {
		w := v.NewWaiter()
		w.Wake()
		woken = w.Wait(time.Second)
	})
	if !woken {
		t.Fatal("pre-woken waiter reported timeout")
	}
	if got := v.Now(); !got.Equal(epoch) {
		t.Fatalf("time advanced to %v, want no advance", got)
	}
}

func TestVirtualWaiterDoubleWake(t *testing.T) {
	v := NewVirtual(epoch)
	v.Run(func() {
		w := v.NewWaiter()
		v.Go(func() {
			w.Wake()
			w.Wake() // second call must be a no-op
		})
		if !w.Wait(0) {
			t.Error("want woken")
		}
	})
}

func TestVirtualWaiterWokenBeforeTimeout(t *testing.T) {
	v := NewVirtual(epoch)
	var woken bool
	v.Run(func() {
		w := v.NewWaiter()
		v.Go(func() {
			v.Sleep(1 * time.Second)
			w.Wake()
		})
		woken = w.Wait(10 * time.Second)
	})
	if !woken {
		t.Fatal("want woken before timeout")
	}
	if got := v.Now().Sub(epoch); got != 1*time.Second {
		t.Fatalf("elapsed %v, want 1s (stale timeout must not block exit)", got)
	}
}

// TestVirtualWaiterReused: a waiter woken before its timeout can wait
// again, and the first wait's timer, firing later, wakes nothing: the
// second wait ends at its own Wake. A Wake before a wait counts for it.
func TestVirtualWaiterReused(t *testing.T) {
	v := NewVirtual(epoch)
	var first, second, third bool
	var secondAt time.Duration
	v.Run(func() {
		w := v.NewWaiter()
		v.Go(func() {
			v.Sleep(1 * time.Second)
			w.Wake() // ends the first wait, 9 s before its timeout
			v.Sleep(19 * time.Second)
			w.Wake() // ends the second, long after the first's timer fired
		})
		first = w.Wait(10 * time.Second)
		second = w.Wait(0)
		secondAt = v.Now().Sub(epoch)
		w.Wake()
		third = w.Wait(time.Second)
	})
	if !first || !second || !third {
		t.Fatalf("woken = %v, %v, %v; want every wait woken", first, second, third)
	}
	if secondAt != 20*time.Second {
		t.Fatalf("the second wait ended at %v, want 20s: the first wait's timer woke it", secondAt)
	}
}

func TestVirtualAfter(t *testing.T) {
	v := NewVirtual(epoch)
	var fired time.Time
	v.Run(func() {
		ch := v.After(4 * time.Second)
		// Another process drives time forward past the deadline.
		v.Sleep(10 * time.Second)
		select {
		case fired = <-ch:
		default:
			t.Error("After channel did not fire by t+10s")
		}
	})
	if want := epoch.Add(4 * time.Second); !fired.Equal(want) {
		t.Fatalf("After fired at %v, want %v", fired, want)
	}
}

func TestVirtualDeadlockPanics(t *testing.T) {
	v := NewVirtual(epoch)
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	v.Run(func() {
		w := v.NewLabeledWaiter("test-block")
		w.Wait(0) // nobody will ever wake this
	})
}

func TestVirtualSimultaneousDeadlines(t *testing.T) {
	v := NewVirtual(epoch)
	var n int64
	v.Run(func() {
		for i := 0; i < 10; i++ {
			v.Go(func() {
				v.Sleep(time.Second)
				atomic.AddInt64(&n, 1)
			})
		}
	})
	if n != 10 {
		t.Fatalf("woke %d sleepers, want 10", n)
	}
	if got := v.Now().Sub(epoch); got != time.Second {
		t.Fatalf("elapsed %v, want 1s", got)
	}
}

func TestVirtualSince(t *testing.T) {
	v := NewVirtual(epoch)
	v.Run(func() {
		start := v.Now()
		v.Sleep(7 * time.Minute)
		if got := v.Since(start); got != 7*time.Minute {
			t.Errorf("Since = %v, want 7m", got)
		}
	})
}

func TestVirtualStats(t *testing.T) {
	v := NewVirtual(epoch)
	procs, blocked, timers := v.Stats()
	if procs != 0 || blocked != 0 || timers != 0 {
		t.Fatalf("fresh clock stats = %d,%d,%d; want zeros", procs, blocked, timers)
	}
	v.Run(func() { v.Sleep(time.Millisecond) })
	procs, _, _ = v.Stats()
	if procs != 0 {
		t.Fatalf("procs after Run = %d, want 0", procs)
	}
}

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	w := c.NewWaiter()
	go w.Wake()
	if !w.Wait(time.Second) {
		t.Fatal("real waiter not woken")
	}
	w2 := c.NewWaiter()
	if w2.Wait(time.Millisecond) {
		t.Fatal("real waiter should have timed out")
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("real After never fired")
	}
}
