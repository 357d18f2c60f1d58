// Package nodeconfig implements the paper's remote node configuration
// engine (§4.3): worker nodes are thin shells that download the
// application's worker code from a code server at the master at runtime,
// so joining the cluster requires no per-node software installation.
//
// Go cannot load code at runtime the way the JVM loads classes, so the
// mechanism is modelled faithfully rather than literally: a program is
// shipped as a named, versioned bundle whose payload bytes cross the (real
// or simulated) network, and is instantiated on the worker through a
// process-local factory registry keyed by the bundle's entry point. The
// observable behaviour the paper measures — the transfer cost of loading,
// the CPU spike on Start, and its absence on Resume — is preserved.
package nodeconfig

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// Errors returned by the engine.
var (
	ErrUnknownProgram = errors.New("nodeconfig: program not published at code server")
	ErrUnknownFactory = errors.New("nodeconfig: no factory registered for entry point")
)

// ExecContext gives a program access to its node's environment.
type ExecContext struct {
	Clock   vclock.Clock
	Machine *sysmon.Machine
	// Node is the worker node's name.
	Node string
}

// Program is a downloaded unit of application worker code: it executes one
// task entry at a time and produces the corresponding result entry.
type Program interface {
	// Name identifies the program (matches its bundle name).
	Name() string
	// Execute runs one task. Implementations model their CPU cost through
	// ctx.Machine.Compute so that node speed and background load apply.
	Execute(ctx ExecContext, task tuplespace.Entry) (tuplespace.Entry, error)
}

// Factory instantiates a Program from a bundle's parameter bytes.
type Factory func(params []byte) (Program, error)

// EncodeParams encodes a program's instantiation parameters, of a type
// registered with transport.RegisterType, for Bundle.Params. Parameters
// that do not encode are a bug in the application, and panic.
func EncodeParams(v interface{}) []byte {
	b, err := enc.NewEncoder().Encode(nil, v)
	if err != nil {
		panic(fmt.Sprintf("nodeconfig: bundle params: %v", err))
	}
	return b
}

// DecodeParams is the factory's half of EncodeParams.
func DecodeParams[P any](params []byte) (P, error) {
	v, err := enc.NewDecoder().Decode(params)
	p, ok := v.(P)
	if err == nil && !ok {
		err = fmt.Errorf("nodeconfig: bundle params are %T, want %T", v, p)
	}
	return p, err
}

var (
	facMu     sync.RWMutex
	factories = make(map[string]Factory)
)

// RegisterFactory binds entryPoint to a factory. Applications call this at
// init time on every node image (the analogue of having the class
// available to the JVM's class loader once its bytes arrive).
func RegisterFactory(entryPoint string, f Factory) {
	facMu.Lock()
	factories[entryPoint] = f
	facMu.Unlock()
}

func lookupFactory(entryPoint string) (Factory, error) {
	facMu.RLock()
	f, ok := factories[entryPoint]
	facMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFactory, entryPoint)
	}
	return f, nil
}

// Bundle is the unit shipped from the code server to workers — the
// executable jar of the paper, plus instantiation parameters.
type Bundle struct {
	Name       string
	Version    int
	EntryPoint string
	Params     []byte
	// Payload stands in for the code bytes; its size determines the
	// transfer cost of remote configuration.
	Payload []byte
}

type fetchArgs struct {
	Name string
}

func init() {
	transport.RegisterType(fetchArgs{})
	transport.RegisterType(Bundle{})
}

// CodeServer publishes bundles; it runs alongside the master module (the
// paper's "web server residing at the master").
type CodeServer struct {
	mu      sync.Mutex
	bundles map[string]Bundle
}

// NewCodeServer returns an empty code server.
func NewCodeServer() *CodeServer {
	return &CodeServer{bundles: make(map[string]Bundle)}
}

// Publish makes b fetchable, replacing any same-named bundle.
func (cs *CodeServer) Publish(b Bundle) {
	cs.mu.Lock()
	cs.bundles[b.Name] = b
	cs.mu.Unlock()
}

// Bind registers the fetch method on an RPC server.
func (cs *CodeServer) Bind(srv *transport.Server) {
	srv.Handle("code.Fetch", func(arg interface{}) (interface{}, error) {
		a, ok := arg.(*fetchArgs)
		if !ok {
			return nil, fmt.Errorf("nodeconfig: bad fetch args %T", arg)
		}
		cs.mu.Lock()
		b, ok := cs.bundles[a.Name]
		cs.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownProgram, a.Name)
		}
		return &b, nil
	})
}

// LoadCPUIntensity is the CPU utilization observed on a node while it
// performs remote class loading — the initial spike in Figures 9(a)–11(a).
const LoadCPUIntensity = 80

// LoadCPUWork is the reference-node CPU time consumed by instantiating a
// downloaded bundle (JVM class loading, verification, JIT warm-up).
const LoadCPUWork = 400 * time.Millisecond

// Engine is the worker-side configuration engine: it fetches bundles from
// the code server and instantiates programs, caching them so a Resume does
// not repeat the work a Start pays.
type Engine struct {
	ctx    ExecContext
	client transport.Client

	mu     sync.Mutex
	loaded map[string]Program
	loads  int // count of full (non-cached) loads, for tests/metrics
}

// NewEngine returns an engine for a node, fetching code through client.
func NewEngine(ctx ExecContext, client transport.Client) *Engine {
	return &Engine{ctx: ctx, client: client, loaded: make(map[string]Program)}
}

// Load returns the program named name, downloading and instantiating it if
// it is not already resident. The download crosses the network (paying its
// size in transfer time) and instantiation burns LoadCPUWork on the node.
func (e *Engine) Load(name string) (Program, error) {
	e.mu.Lock()
	if p, ok := e.loaded[name]; ok {
		e.mu.Unlock()
		return p, nil
	}
	e.mu.Unlock()

	res, err := e.client.Call("code.Fetch", &fetchArgs{Name: name})
	if err != nil {
		return nil, err
	}
	b, ok := res.(*Bundle)
	if !ok {
		return nil, fmt.Errorf("nodeconfig: bad fetch reply %T", res)
	}
	f, err := lookupFactory(b.EntryPoint)
	if err != nil {
		return nil, err
	}
	// The class-loading CPU spike.
	if e.ctx.Machine != nil {
		e.ctx.Machine.Compute(LoadCPUWork, LoadCPUIntensity)
	}
	p, err := f(b.Params)
	if err != nil {
		return nil, fmt.Errorf("nodeconfig: instantiate %q: %w", name, err)
	}
	e.mu.Lock()
	e.loaded[name] = p
	e.loads++
	e.mu.Unlock()
	return p, nil
}

// Unload discards the resident program (a Stop tears worker state down, so
// the next Start repays the loading cost).
func (e *Engine) Unload(name string) {
	e.mu.Lock()
	delete(e.loaded, name)
	e.mu.Unlock()
}

// Loaded reports whether name is resident.
func (e *Engine) Loaded(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.loaded[name]
	return ok
}

// LoadCount returns how many full downloads this engine has performed.
func (e *Engine) LoadCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.loads
}
