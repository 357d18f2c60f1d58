package nodeconfig

import (
	"errors"
	"testing"
	"time"

	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

type nullProgram struct{ name string }

func (p *nullProgram) Name() string { return p.name }
func (p *nullProgram) Execute(ExecContext, tuplespace.Entry) (tuplespace.Entry, error) {
	return nil, nil
}

func init() {
	RegisterFactory("test.null", func(params []byte) (Program, error) {
		return &nullProgram{name: string(params)}, nil
	})
	RegisterFactory("test.fail", func([]byte) (Program, error) {
		return nil, errors.New("factory boom")
	})
}

func newEngine(t *testing.T, clk vclock.Clock, machine *sysmon.Machine, bundles ...Bundle) *Engine {
	t.Helper()
	cs := NewCodeServer()
	for _, b := range bundles {
		cs.Publish(b)
	}
	srv := transport.NewServer()
	cs.Bind(srv)
	net := transport.NewNetwork(clk, transport.Loopback())
	net.Listen("master", srv)
	return NewEngine(ExecContext{Clock: clk, Machine: machine, Node: "n1"}, net.Dial("master"))
}

func TestLoadInstantiatesProgram(t *testing.T) {
	clk := vclock.NewReal()
	e := newEngine(t, clk, nil, Bundle{Name: "app", EntryPoint: "test.null", Params: []byte("hello")})
	p, err := e.Load("app")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "hello" {
		t.Fatalf("params not passed: %q", p.Name())
	}
	if !e.Loaded("app") || e.LoadCount() != 1 {
		t.Fatalf("cache state wrong: loaded=%v count=%d", e.Loaded("app"), e.LoadCount())
	}
}

func TestLoadCachesProgram(t *testing.T) {
	clk := vclock.NewReal()
	e := newEngine(t, clk, nil, Bundle{Name: "app", EntryPoint: "test.null"})
	p1, err := e.Load("app")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Load("app")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second Load re-instantiated")
	}
	if e.LoadCount() != 1 {
		t.Fatalf("load count %d", e.LoadCount())
	}
}

func TestUnloadForcesReload(t *testing.T) {
	clk := vclock.NewReal()
	e := newEngine(t, clk, nil, Bundle{Name: "app", EntryPoint: "test.null"})
	if _, err := e.Load("app"); err != nil {
		t.Fatal(err)
	}
	e.Unload("app")
	if e.Loaded("app") {
		t.Fatal("still loaded after Unload")
	}
	if _, err := e.Load("app"); err != nil {
		t.Fatal(err)
	}
	if e.LoadCount() != 2 {
		t.Fatalf("load count %d, want 2", e.LoadCount())
	}
}

func TestLoadChargesClassLoadingCost(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	m := sysmon.NewMachine(clk, "n1", 1)
	var elapsed time.Duration
	clk.Run(func() {
		e := newEngine(t, clk, m, Bundle{Name: "app", EntryPoint: "test.null"})
		start := clk.Now()
		if _, err := e.Load("app"); err != nil {
			t.Error(err)
		}
		elapsed = clk.Since(start)
	})
	if elapsed < LoadCPUWork {
		t.Fatalf("load took %v, want >= %v (class loading cost)", elapsed, LoadCPUWork)
	}
}

func TestLoadUnknownProgram(t *testing.T) {
	clk := vclock.NewReal()
	e := newEngine(t, clk, nil) // nothing published
	if _, err := e.Load("ghost"); err == nil {
		t.Fatal("unknown program loaded")
	}
}

func TestLoadUnknownFactory(t *testing.T) {
	clk := vclock.NewReal()
	e := newEngine(t, clk, nil, Bundle{Name: "app", EntryPoint: "no.such.entry"})
	if _, err := e.Load("app"); !errors.Is(err, ErrUnknownFactory) {
		t.Fatalf("err = %v, want ErrUnknownFactory", err)
	}
}

func TestFactoryFailure(t *testing.T) {
	clk := vclock.NewReal()
	e := newEngine(t, clk, nil, Bundle{Name: "app", EntryPoint: "test.fail"})
	if _, err := e.Load("app"); err == nil {
		t.Fatal("factory error swallowed")
	}
	if e.Loaded("app") {
		t.Fatal("failed instantiation cached")
	}
}

func TestPublishReplaces(t *testing.T) {
	cs := NewCodeServer()
	cs.Publish(Bundle{Name: "app", EntryPoint: "test.null", Params: []byte("v1")})
	cs.Publish(Bundle{Name: "app", EntryPoint: "test.null", Params: []byte("v2"), Version: 2})
	srv := transport.NewServer()
	cs.Bind(srv)
	net := transport.NewNetwork(vclock.NewReal(), transport.Loopback())
	net.Listen("m", srv)
	res, err := net.Dial("m").Call("code.Fetch", &fetchArgs{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	if b := res.(*Bundle); string(b.Params) != "v2" || b.Version != 2 {
		t.Fatalf("got %+v", b)
	}
}
