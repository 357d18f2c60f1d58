package transport

import (
	"bytes"
	"fmt"
	"testing"

	"gospaces/internal/enc"
	"gospaces/internal/vclock"
)

// viewArg is a call argument its handler reads in place.
type viewArg struct {
	Seq  int
	Data enc.View
}

func init() { RegisterType(viewArg{}) }

// viewData is call seq's payload: every call's is the same size, so a
// frame given back is the right size for the next.
func viewData(seq int) []byte { return bytes.Repeat([]byte{byte(seq)}, 4096) }

// TestHeldViewOutlivesLaterCalls: a handler holding an enc.View into its
// request frame keeps that frame while its connection delivers further
// calls — with Views of their own, whose frames go back for reuse — and
// the held bytes do not change. Over TCP and in process.
func TestHeldViewOutlivesLaterCalls(t *testing.T) {
	const later = 50
	srv := NewServer()
	entered, release := make(chan struct{}), make(chan struct{})
	check := func(arg interface{}) (interface{}, error) {
		a := arg.(*viewArg)
		if !bytes.Equal(a.Data, viewData(a.Seq)) {
			return nil, fmt.Errorf("call %d read %d bytes of %#x, want %#x", a.Seq, len(a.Data), a.Data[0], byte(a.Seq))
		}
		return nil, nil
	}
	srv.Handle("hold", func(arg interface{}) (interface{}, error) {
		entered <- struct{}{}
		<-release // the later calls cross the connection meanwhile
		return check(arg)
	})
	srv.Handle("pass", check)

	network := NewNetwork(vclock.NewReal(), Loopback())
	network.Listen("view", srv)
	ln, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tcp, err := DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	for name, c := range map[string]Client{"inproc": network.Dial("view"), "tcp": tcp} {
		t.Run(name, func(t *testing.T) {
			held := make(chan error, 1)
			go func() {
				_, err := c.Call("hold", &viewArg{Seq: 0, Data: viewData(0)})
				held <- err
			}()
			<-entered
			for seq := 1; seq <= later; seq++ {
				if _, err := c.Call("pass", &viewArg{Seq: seq, Data: viewData(seq)}); err != nil {
					t.Fatal(err)
				}
			}
			release <- struct{}{}
			if err := <-held; err != nil {
				t.Fatalf("the held View changed under its handler: %v", err)
			}
		})
	}
}
