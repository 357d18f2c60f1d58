package main

import (
	"io"
	"net"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: spanOp, ID: 1, Start: 0, End: 10 * ms},
		{Name: spanDispatch, ID: 2, Parent: 1, Start: 2 * ms, End: 8 * ms},
		{Name: spanAppend, ID: 3, Parent: 2, Start: 3 * ms, End: 6 * ms},
		{Name: spanFsync, ID: 4, Parent: 3, Start: 4 * ms, End: 6 * ms},
		{Name: spanShip, ID: 5, Parent: 2, Start: 6 * ms, End: 7 * ms},
		// A second operation with two dispatches, as a scatter makes.
		{Name: spanOp, ID: 6, Start: 20 * ms, End: 30 * ms},
		{Name: spanDispatch, ID: 7, Parent: 6, Start: 21 * ms, End: 23 * ms},
		{Name: spanDispatch, ID: 8, Parent: 6, Start: 24 * ms, End: 27 * ms},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		spanOp:       4*ms + 5*ms, // 10-6, and 10-2-3
		spanDispatch: 2*ms + 2*ms + 3*ms,
		spanAppend:   1 * ms,
		spanFsync:    2 * ms,
		spanShip:     1 * ms,
	}
	var sum time.Duration
	for name, w := range want {
		if self[name] != w {
			t.Errorf("%s self time = %v, want %v", name, self[name], w)
		}
		sum += self[name]
	}
	if sum != 20*ms {
		t.Errorf("self times sum to %v, want the two roots' 20ms", sum)
	}
	m := stageMetrics(spans)
	if got := m["stage.client_wire_us"].Value; got != 4500 {
		t.Errorf("client_wire_us = %v, want 4500", got)
	}
	// 20 ms of spans over a 30 ms first-start-to-last-end window.
	if got := m["stage.sum_over_e2e"].Value; got < 0.666 || got > 0.667 {
		t.Errorf("sum_over_e2e = %v, want 2/3", got)
	}
}

func TestTracerNestsAcrossGoroutines(t *testing.T) {
	tr := newTracer()
	if id := tr.begin(spanOp); id != 0 {
		t.Fatalf("a tracer that is off recorded span %d", id)
	}
	tr.on.Store(true)
	op := tr.begin(spanOp)
	done := make(chan struct{})
	go func() { // the server side of the call
		defer close(done)
		d := tr.begin(spanDispatch)
		now := time.Now()
		a := tr.closed(spanAppend, 0, now, now)
		tr.closed(spanFsync, a, now, now)
		tr.end(d)
	}()
	<-done
	tr.end(op)
	next := tr.begin(spanOp)
	tr.end(next)
	spans := tr.snapshot()
	parents := map[string]int{}
	for _, s := range spans[:4] {
		parents[s.Name] = s.Parent
	}
	if parents[spanOp] != 0 || parents[spanDispatch] != 1 || parents[spanAppend] != 2 || parents[spanFsync] != 3 {
		t.Fatalf("parents = %v", parents)
	}
	if spans[4].Parent != 0 {
		t.Fatalf("second op has parent %d, want none", spans[4].Parent)
	}
}

func TestRelayCountsBothDirections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // echo one connection
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	r, err := newRelay(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", r.addr())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("0123456789")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, len(msg))); err != nil {
		t.Fatal(err)
	}
	c.Close()
	r.close()
	if got := r.bytes.Load(); got != int64(2*len(msg)) {
		t.Fatalf("relay counted %d bytes, want %d", got, 2*len(msg))
	}
}
