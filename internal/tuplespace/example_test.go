package tuplespace_test

import (
	"fmt"
	"time"

	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// WorkItem is an application entry type: the Kind field is matchable and
// indexed; pointer fields hold matchable scalars (zero = wildcard).
type WorkItem struct {
	Kind string `space:"index"`
	ID   *int
	Data string
}

func ExampleSpace() {
	space := tuplespace.New(vclock.NewReal())
	id := 7
	if _, err := space.Write(WorkItem{Kind: "render", ID: &id, Data: "strip-7"}, nil, tuplespace.Forever); err != nil {
		panic(err)
	}
	// Associative lookup: any "render" item.
	e, err := space.Take(WorkItem{Kind: "render"}, nil, time.Second)
	if err != nil {
		panic(err)
	}
	item := e.(WorkItem)
	fmt.Println(item.Data, *item.ID)
	// Output: strip-7 7
}

func ExampleSpace_transaction() {
	clock := vclock.NewReal()
	space := tuplespace.New(clock)
	id := 1
	_, _ = space.Write(WorkItem{Kind: "task", ID: &id}, nil, tuplespace.Forever)

	// A worker takes the task under a transaction…
	tx := space.Begin(time.Minute)
	_, _ = space.Take(WorkItem{Kind: "task"}, tx, time.Second)
	// …and dies before committing. Aborting returns the task.
	_ = tx.Abort()

	n, _ := space.Count(WorkItem{Kind: "task"})
	fmt.Println("tasks after abort:", n)
	// Output: tasks after abort: 1
}

func ExampleSpace_notify() {
	space := tuplespace.New(vclock.NewReal())
	done := make(chan string, 1)
	_, _ = space.Notify(WorkItem{Kind: "result"}, func(ev tuplespace.Event) {
		done <- ev.Entry.(WorkItem).Data
	}, tuplespace.Forever)
	_, _ = space.Write(WorkItem{Kind: "result", Data: "42"}, nil, tuplespace.Forever)
	fmt.Println("notified:", <-done)
	// Output: notified: 42
}
