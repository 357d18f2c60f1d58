package transport

import (
	"fmt"
	"sync"
	"testing"

	"gospaces/internal/enc"
)

// TestEchoOfLentArgumentReleasedOnce: a handler that answers with the
// argument it was lent hands the responder one value, not two. Released
// twice, it would sit in its pool twice and be lent to two decodes at
// once, and one call would get another's answer. 10,000 concurrent echoes
// over one connection, each released by its caller into the pool the
// server's decodes take from, must each get their own value back.
func TestEchoOfLentArgumentReleasedOnce(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0", newEchoServer())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers, calls = 16, 10_000
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < calls; i += callers {
				arg := enc.Lend(echoArg{Msg: fmt.Sprint(i), N: i})
				got, err := c.Call("echo", arg)
				enc.Release(arg)
				if err != nil {
					errs <- err
					return
				}
				e, ok := got.(*echoArg)
				if !ok || e.N != i || e.Msg != fmt.Sprint(i) {
					errs <- fmt.Errorf("call %d got %#v", i, got)
					return
				}
				enc.Release(e)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
