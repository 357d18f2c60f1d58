package shard

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/obs"
	"gospaces/internal/space"
	"gospaces/internal/vclock"
)

// Discovery attributes used by shard servers. A sharded master registers
// every shard server under the usual javaspace type attribute plus its
// shard index and the total shard count; a client waits until it sees that
// many ring positions and joins them all (see Join).
const (
	SpaceType  = "javaspace" // type attribute of every serving shard
	AttrShard  = "shard"     // this server's shard index, "0".."K-1"
	AttrShards = "shards"    // total shard count, "K"

	// AttrElastic marks the registrations of a host whose ring can change
	// membership at runtime; such a host also publishes a topology record,
	// which a joining client adopts and then watches (see Join).
	AttrElastic = "elastic"

	// Replication attributes. The ring ID of a shard is the address its
	// original primary registered under; a promoted backup serves from its
	// own address but re-registers with AttrRing naming the ring position
	// it now owns and AttrEpoch carrying the promoted epoch, so every
	// client resolves the same ring regardless of which replica currently
	// holds it.
	AttrRing  = "ring"  // ring position (original primary's address)
	AttrEpoch = "epoch" // replication epoch, "1", "2", ...

	// Control-plane trace propagation. A promoted backup's registration
	// carries the promotion's span context (hex trace/span IDs) and the
	// promoting node's causal-clock stamp, so every router that resolves
	// the registration parents its retarget span under the promotion and
	// orders its flight events after it — cross-node causality carried by
	// the discovery plane itself.
	AttrTraceID = "trace" // promotion span's trace ID, hex
	AttrSpanID  = "span"  // promotion span's span ID, hex
	AttrClk     = "clk"   // promoting node's causal stamp, decimal
)

// RingID returns the ring position an item serves: its AttrRing when set
// (a promoted backup), its registered address otherwise.
func RingID(item discovery.ServiceItem) string {
	if ring := item.Attributes[AttrRing]; ring != "" {
		return ring
	}
	return item.Address
}

// ItemEpoch returns the item's replication epoch (0 when unreplicated).
func ItemEpoch(item discovery.ServiceItem) uint64 {
	e, _ := strconv.ParseUint(item.Attributes[AttrEpoch], 10, 64)
	return e
}

// SetCtrlAttrs stamps attrs with the control-plane span context and
// causal stamp a registration carries (see AttrTraceID above). Invalid
// contexts and zero stamps leave the attributes unset.
func SetCtrlAttrs(attrs map[string]string, tc obs.TraceContext, clk uint64) {
	if tc.Valid() {
		attrs[AttrTraceID] = strconv.FormatUint(tc.TraceID, 16)
		attrs[AttrSpanID] = strconv.FormatUint(tc.SpanID, 16)
	}
	if clk != 0 {
		attrs[AttrClk] = strconv.FormatUint(clk, 10)
	}
}

// itemCtrl parses a registration's control-plane trace attributes back
// out (zero values when absent or malformed).
func itemCtrl(item discovery.ServiceItem) (obs.TraceContext, uint64) {
	var tc obs.TraceContext
	tc.TraceID, _ = strconv.ParseUint(item.Attributes[AttrTraceID], 16, 64)
	tc.SpanID, _ = strconv.ParseUint(item.Attributes[AttrSpanID], 16, 64)
	clk, _ := strconv.ParseUint(item.Attributes[AttrClk], 10, 64)
	return tc, clk
}

// Dialer turns a discovered address into a Space handle.
type Dialer func(addr string) (space.Space, error)

// dialItems converts registry items to Shards, ordered by shard index
// (registration order for items without one). Shard IDs are the registered
// addresses, so every participant that discovers the same membership builds
// the same ring. When several registrations claim the same ring position
// (an expired primary's entry still cached beside its promoted backup's),
// the highest epoch wins.
func dialItems(items []discovery.ServiceItem, dial Dialer) ([]Shard, error) {
	sort.SliceStable(items, func(i, j int) bool {
		a, _ := strconv.Atoi(items[i].Attributes[AttrShard])
		b, _ := strconv.Atoi(items[j].Attributes[AttrShard])
		return a < b
	})
	best := make(map[string]discovery.ServiceItem, len(items))
	var order []string
	for _, item := range items {
		id := RingID(item)
		cur, ok := best[id]
		if !ok {
			order = append(order, id)
		}
		if !ok || ItemEpoch(item) > ItemEpoch(cur) {
			best[id] = item
		}
	}
	var shards []Shard
	for _, id := range order {
		item := best[id]
		sp, err := dial(item.Address)
		if err != nil {
			return nil, fmt.Errorf("shard: dial %s: %w", item.Address, err)
		}
		tc, clk := itemCtrl(item)
		shards = append(shards, Shard{ID: id, Space: sp, Epoch: ItemEpoch(item), Trace: tc, Clk: clk})
	}
	return shards, nil
}

// Resolver returns an Options.Failover function backed by the lookup
// service: it looks up every javaspace registration, keeps the one claiming
// the wanted ring position with the highest epoch, and dials it. The
// caller's router rejects stale epochs on Retarget, so resolving a
// not-yet-promoted (or already-known) registration is harmless.
func Resolver(c *discovery.Client, dial Dialer) func(ringID string) (Shard, error) {
	return func(ringID string) (Shard, error) {
		items, err := c.Lookup(map[string]string{"type": SpaceType})
		if err != nil {
			return Shard{}, err
		}
		var claims []discovery.ServiceItem
		for _, item := range items {
			if RingID(item) == ringID {
				claims = append(claims, item)
			}
		}
		shards, err := dialItems(claims, dial)
		if err != nil {
			return Shard{}, err
		}
		if len(shards) == 0 {
			return Shard{}, fmt.Errorf("shard: no registration for ring %q", ringID)
		}
		return shards[0], nil
	}
}

// DefaultWatchInterval is how often a ring client polls the lookup service
// for a newer topology — the bound on client ring convergence that a
// host's post-cutover drain, two of them, must outlast.
const DefaultWatchInterval = 500 * time.Millisecond

// Watcher polls the lookup service for published topologies and applies
// each strictly newer one to a Router — how a client of an elastic host
// follows its splits and merges. The topology names exactly the members and
// point labels of the ring; membership is never inferred from the plain
// registrations, which could resurrect a merged-away shard or hand default
// labels to a resharded one.
type Watcher struct {
	client   *discovery.Client
	clock    vclock.Clock
	router   *Router
	resolve  func(ringID string) (Shard, error)
	interval time.Duration
	loop     vclock.Loop

	mu  sync.Mutex
	err error
}

// NewWatcher returns a watcher feeding router every interval (zero:
// DefaultWatchInterval), dialing members new to it through resolve. Run it
// as a clock process; Stop it before the clock drains.
func NewWatcher(client *discovery.Client, clock vclock.Clock, router *Router, resolve func(ringID string) (Shard, error), interval time.Duration) *Watcher {
	if interval <= 0 {
		interval = DefaultWatchInterval
	}
	return &Watcher{client: client, clock: clock, router: router, resolve: resolve, interval: interval}
}

// Run polls until Stop. Lookup or dial errors are retained (see Err) and
// the loop keeps going — discovery hiccups must not kill the router.
func (w *Watcher) Run() {
	for w.loop.Tick(w.clock, w.interval) {
		w.poll()
	}
}

// poll applies the newest published topology if it is newer than the
// router's.
func (w *Watcher) poll() {
	items, err := w.client.Lookup(map[string]string{"type": TopoType})
	if err != nil {
		w.setErr(err)
		return
	}
	if t, ok := BestTopology(items); ok && t.Epoch > w.router.TopoEpoch() {
		_, err := w.router.ApplyTopology(t, w.resolve)
		w.setErr(err)
	}
}

func (w *Watcher) setErr(err error) {
	w.mu.Lock()
	if err != nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Stop ends the poll loop.
func (w *Watcher) Stop() { w.loop.Stop() }

// Err returns the most recent poll error, if any.
func (w *Watcher) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
