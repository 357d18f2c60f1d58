package shard

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/space"
	"gospaces/internal/vclock"
)

// Discovery attributes used by shard servers. A sharded master registers
// every shard server under the usual javaspace type attribute plus its
// shard index and the total shard count, so single-shard-aware clients
// (which LookupOne the type attribute) still find shard 0 and work
// unchanged.
const (
	AttrShard  = "shard"  // this server's shard index, "0".."K-1"
	AttrShards = "shards" // total shard count, "K"

	// Replication attributes. The ring ID of a shard is the address its
	// original primary registered under; a promoted backup serves from its
	// own address but re-registers with AttrRing naming the ring position
	// it now owns and AttrEpoch carrying the promoted epoch, so every
	// client resolves the same ring regardless of which replica currently
	// holds it.
	AttrRing  = "ring"  // ring position (original primary's address)
	AttrRole  = "role"  // "primary" or "backup"
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

	RolePrimary = "primary"
	RoleBackup  = "backup"
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

// Discover looks up every service matching tmpl (typically
// {"type": "javaspace"}) and dials each into a Shard, ordered by shard
// index (registration order for items without one). Shard IDs are the
// registered addresses, so every participant that discovers the same
// membership builds the same ring.
func Discover(c *discovery.Client, tmpl map[string]string, dial Dialer) ([]Shard, error) {
	items, err := c.Lookup(tmpl)
	if err != nil {
		return nil, err
	}
	return dialItems(items, dial, nil, nil)
}

// dialItems converts registry items to Shards, reusing handles from known
// (keyed by ring ID) instead of re-dialing. When several registrations
// claim the same ring position (an expired primary's entry still cached
// beside its promoted backup's), the highest epoch wins. A known handle
// is reused only while its epoch is current; a registration at a newer
// epoch is re-dialed (the old handle points at a deposed primary).
func dialItems(items []discovery.ServiceItem, dial Dialer, known map[string]space.Space, knownEpochs map[string]uint64) ([]Shard, error) {
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
			best[id] = item
			order = append(order, id)
			continue
		}
		if ItemEpoch(item) > ItemEpoch(cur) {
			best[id] = item
		}
	}
	var shards []Shard
	for _, id := range order {
		item := best[id]
		tc, clk := itemCtrl(item)
		if sp, ok := known[id]; ok && ItemEpoch(item) <= knownEpochs[id] {
			shards = append(shards, Shard{ID: id, Space: sp, Epoch: knownEpochs[id], Trace: tc, Clk: clk})
			continue
		}
		sp, err := dial(item.Address)
		if err != nil {
			return nil, fmt.Errorf("shard: dial %s: %w", item.Address, err)
		}
		shards = append(shards, Shard{ID: id, Space: sp, Epoch: ItemEpoch(item), Trace: tc, Clk: clk})
	}
	return shards, nil
}

// Resolver returns an Options.Failover function backed by the lookup
// service: it looks up every registration matching tmpl, keeps the one
// claiming the wanted ring position with the highest epoch, and dials it.
// The caller's router rejects stale epochs on Retarget, so resolving a
// not-yet-promoted (or already-known) registration is harmless.
func Resolver(c *discovery.Client, tmpl map[string]string, dial Dialer) func(ringID string) (Shard, error) {
	return func(ringID string) (Shard, error) {
		items, err := c.Lookup(tmpl)
		if err != nil {
			return Shard{}, err
		}
		var best discovery.ServiceItem
		found := false
		for _, item := range items {
			if RingID(item) != ringID {
				continue
			}
			if !found || ItemEpoch(item) > ItemEpoch(best) {
				best, found = item, true
			}
		}
		if !found {
			return Shard{}, fmt.Errorf("shard: no registration for ring %q", ringID)
		}
		sp, err := dial(best.Address)
		if err != nil {
			return Shard{}, fmt.Errorf("shard: dial %s: %w", best.Address, err)
		}
		tc, clk := itemCtrl(best)
		return Shard{ID: ringID, Space: sp, Epoch: ItemEpoch(best), Trace: tc, Clk: clk}, nil
	}
}

// Assembly is the deployment-level shape of one participant's ring: what
// the master, every worker and the TCP binaries each turn into Options the
// same way. Seed names the participant; Failover is Resolver(...) for a
// remote client and the host's in-process resolver on the master.
type Assembly struct {
	Clock       vclock.Clock
	Seed        string
	ExactlyOnce bool
	Obs         *obs.Obs
	// Counters receives the router's failover, retry, budget and breaker
	// counts (nil = uncounted).
	Counters *metrics.Counters
	// RetryBudget > 0 caps this participant's retry volume with its own
	// token bucket: the budget bounds what one process can amplify.
	RetryBudget int
	// Breakers arms the per-ring-position circuit breakers.
	Breakers bool
	Failover func(ringID string) (Shard, error)
}

// Assemble builds the router for a over shards.
func Assemble(a Assembly, shards []Shard) (*Router, error) {
	opts := Options{
		Clock: a.Clock, Seed: a.Seed, ExactlyOnce: a.ExactlyOnce, Obs: a.Obs,
		Counters: a.Counters, Failover: a.Failover,
	}
	if a.RetryBudget > 0 {
		opts.Budget = NewRetryBudget(a.RetryBudget, 0)
	}
	if a.Breakers {
		opts.Breaker = &BreakerConfig{}
	}
	return New(opts, shards)
}

// Watcher polls the lookup service and grows a Router's membership when
// new shard servers register — the join path for shards added between
// jobs. It only ever adds shards; a vanished registration is left in the
// ring (removing it would orphan that shard's entries).
type Watcher struct {
	client   *discovery.Client
	clock    vclock.Clock
	router   *Router
	tmpl     map[string]string
	dial     Dialer
	interval time.Duration

	mu     sync.Mutex
	quit   bool
	parker vclock.Waiter
	err    error
}

// NewWatcher returns a watcher feeding router from lookups of tmpl every
// interval. Run it as a clock process; Stop it before the clock drains.
func NewWatcher(client *discovery.Client, clock vclock.Clock, router *Router, tmpl map[string]string, dial Dialer, interval time.Duration) *Watcher {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	return &Watcher{client: client, clock: clock, router: router, tmpl: tmpl, dial: dial, interval: interval}
}

// Run polls until Stop. Lookup or dial errors are retained (see Err) and
// the loop keeps going — discovery hiccups must not kill the router.
func (w *Watcher) Run() {
	for {
		w.mu.Lock()
		if w.quit {
			w.mu.Unlock()
			return
		}
		w.parker = w.clock.NewWaiter()
		p := w.parker
		w.mu.Unlock()

		if woken := p.Wait(w.interval); woken {
			return // stopped
		}
		w.poll()
	}
}

func (w *Watcher) poll() {
	// A published topology is authoritative: it names exactly the members
	// and point labels of the ring, so once one exists the add-only legacy
	// path below is disabled — it could resurrect a merged-away shard (or
	// hand default labels to a resharded one) from a stale registration.
	if done := w.pollTopology(); done {
		return
	}
	items, err := w.client.Lookup(w.tmpl)
	if err != nil {
		w.setErr(err)
		return
	}
	known := make(map[string]space.Space)
	knownEpochs := make(map[string]uint64)
	cur := w.router.Shards()
	for _, s := range cur {
		known[s.ID] = s.Space
		knownEpochs[s.ID] = s.Epoch
	}
	fresh := 0
	for _, item := range items {
		if _, ok := known[RingID(item)]; !ok {
			fresh++
		}
	}
	if fresh == 0 {
		return
	}
	shards, err := dialItems(items, w.dial, known, knownEpochs)
	if err != nil {
		w.setErr(err)
		return
	}
	// Keep shards that have aged out of the registry but are still in the
	// ring: membership only grows.
	have := make(map[string]bool, len(shards))
	for _, s := range shards {
		have[s.ID] = true
	}
	for _, s := range cur {
		if !have[s.ID] {
			shards = append(shards, s)
		}
	}
	w.setErr(w.router.SetShards(shards))
}

// pollTopology applies the newest published topology, if any. It reports
// whether topology records govern this ring (true disables the legacy
// add-only membership growth for this poll).
func (w *Watcher) pollTopology() bool {
	items, err := w.client.Lookup(map[string]string{"type": TopoType})
	if err != nil {
		// Lookup trouble also dooms the legacy path; retain and retry.
		w.setErr(err)
		return true
	}
	t, ok := BestTopology(items)
	if !ok {
		// No topology published yet: before the first reshard the plain
		// membership lookup is authoritative — unless this router already
		// applied one (the record aged out of the registry), in which case
		// the legacy path must stay off.
		return w.router.TopoEpoch() > 0
	}
	if t.Epoch > w.router.TopoEpoch() {
		_, err := w.router.ApplyTopology(t, Resolver(w.client, w.tmpl, w.dial))
		w.setErr(err)
	}
	return true
}

func (w *Watcher) setErr(err error) {
	w.mu.Lock()
	if err != nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Stop ends the poll loop.
func (w *Watcher) Stop() {
	w.mu.Lock()
	w.quit = true
	p := w.parker
	w.mu.Unlock()
	if p != nil {
		p.Wake()
	}
}

// Err returns the most recent poll error, if any.
func (w *Watcher) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
