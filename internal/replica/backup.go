package replica

import (
	"fmt"
	"sync"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/metrics"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// BackupOptions configures a shard's backup-side replication controller.
type BackupOptions struct {
	Clock vclock.Clock
	// Epoch is the epoch the backup expects from its primary (default 1;
	// a rejoining backup starts at the promoted epoch).
	Epoch uint64
	// FailoverTimeout is how long the heartbeat stream may go silent
	// before the backup promotes itself. Default 2s.
	FailoverTimeout time.Duration
	// LeaseExpired, when set, is the registration-lease failure detector:
	// it reports whether the primary's lookup registration has lapsed.
	// Lease expiry promotes immediately, without waiting out the full
	// heartbeat silence.
	LeaseExpired func() bool
	// OnPromote runs after the role flip, with the new epoch. The glue
	// layer uses it to bind the space service, re-register under the ring
	// position, and retarget the master's router.
	OnPromote func(epoch uint64)
	// OnEvent, when set, receives failure-detection transitions for the
	// cluster flight recorder: kind "detect" fires when the monitor decides
	// to promote, with the trigger ("heartbeat silent" or "lease expired")
	// as detail. Called from the monitor process, outside b.mu.
	OnEvent func(kind, detail string)

	Counters *metrics.Counters
}

// Backup is the backup-side replication controller for one shard: it
// applies the primary's shipped journal records to its own hot
// tuplespace, watches the heartbeat stream and the primary's lookup
// lease, and promotes itself when the primary goes silent.
type Backup struct {
	opts    BackupOptions
	local   *space.Local
	applier *tuplespace.Applier

	// applyMu spans whole batch applications and excludes promotion, so a
	// promotion never lands halfway through a batch.
	applyMu sync.Mutex

	mu          sync.Mutex
	epoch       uint64
	applied     uint64 // last primary sequence number applied here
	primarySeq  uint64 // latest sequence number the primary reported
	lastContact time.Time
	synced      bool // a snapshot or append has arrived at least once
	promoted    bool
	monitor     vclock.Loop
}

// NewBackup returns a controller applying into local.
func NewBackup(local *space.Local, opts BackupOptions) *Backup {
	if opts.Epoch == 0 {
		opts.Epoch = 1
	}
	if opts.FailoverTimeout <= 0 {
		opts.FailoverTimeout = 2 * time.Second
	}
	return &Backup{
		opts:        opts,
		local:       local,
		applier:     tuplespace.NewApplier(local.TS),
		epoch:       opts.Epoch,
		lastContact: opts.Clock.Now(),
	}
}

// Bind registers the replication handlers on the backup node's server.
func (b *Backup) Bind(srv *transport.Server) {
	srv.Handle(methodAppend, b.handleAppend)
	srv.Handle(methodHeartbeat, b.handleHeartbeat)
	srv.Handle(methodSync, b.handleSync)
}

// admit checks an incoming RPC's epoch against ours and, when accepted,
// marks primary contact. It holds b.mu for the duration of fn.
func (b *Backup) admit(epoch uint64, fn func()) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.promoted || epoch < b.epoch {
		if b.opts.Counters != nil {
			b.opts.Counters.Inc(metrics.CounterReplFenced)
		}
		return ErrFenced
	}
	if epoch > b.epoch {
		// A newer primary adopted us (rejoin after our own demotion).
		b.epoch = epoch
	}
	b.lastContact = b.opts.Clock.Now()
	if fn != nil {
		fn()
	}
	return nil
}

func (b *Backup) handleAppend(arg interface{}) (interface{}, error) {
	a, ok := arg.(*appendArgs)
	if !ok {
		return nil, fmt.Errorf("replica: bad append args %T", arg)
	}
	b.applyMu.Lock()
	defer b.applyMu.Unlock()

	var applied uint64
	var synced bool
	if err := b.admit(a.Epoch, func() { applied, synced = b.applied, b.synced }); err != nil {
		return nil, err
	}
	if !synced {
		return nil, ErrOutOfSync // never initialized: need the snapshot first
	}
	if err := checkBatch(a.N, a.Batch); err != nil {
		return nil, err
	}
	// Skip records the backup already holds (a re-shipped batch after a
	// lost reply); a gap means the stream diverged and needs a re-sync.
	from, skip := a.From, uint64(0)
	if from <= applied {
		skip = min(applied-from+1, a.N)
		from += skip
	}
	if from > applied+1 {
		return nil, ErrOutOfSync
	}
	n, err := applyBatch(b.applier, a.Batch, skip)
	b.mu.Lock()
	if n > 0 {
		b.applied = from + n - 1
		b.primarySeq = max(b.primarySeq, b.applied)
	}
	applied = b.applied
	b.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("replica: apply record %d: %w", from+n, err)
	}
	return enc.Lend(appendReply{Applied: applied}), nil
}

func (b *Backup) handleHeartbeat(arg interface{}) (interface{}, error) {
	a, ok := arg.(*heartbeatArgs)
	if !ok {
		return nil, fmt.Errorf("replica: bad heartbeat args %T", arg)
	}
	var applied uint64
	err := b.admit(a.Epoch, func() {
		if a.Seq > b.primarySeq {
			b.primarySeq = a.Seq
		}
		applied = b.applied
	})
	if err != nil {
		return nil, err
	}
	return enc.Lend(appendReply{Applied: applied}), nil
}

func (b *Backup) handleSync(arg interface{}) (interface{}, error) {
	a, ok := arg.(*syncArgs)
	if !ok {
		return nil, fmt.Errorf("replica: bad sync args %T", arg)
	}
	b.applyMu.Lock()
	defer b.applyMu.Unlock()

	if err := b.admit(a.Epoch, nil); err != nil {
		return nil, err
	}
	if err := checkBatch(a.N, a.Batch); err != nil {
		return nil, err
	}
	b.applier.Reset()
	n, err := applyBatch(b.applier, a.Batch, 0)
	b.mu.Lock()
	// Half a snapshot is no position: until one applies whole, appends
	// answer ErrOutOfSync and the primary pushes another.
	b.synced = err == nil
	if err == nil {
		b.applied = a.Seq
		b.primarySeq = a.Seq
	}
	b.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("replica: apply snapshot record %d: %w", n, err)
	}
	return enc.Lend(appendReply{Applied: a.Seq}), nil
}

// --- failure detection and promotion ---

// Run is the monitor: a clock process that promotes the backup when the
// primary's heartbeat stream goes silent for FailoverTimeout, or sooner
// when the primary's lookup-registration lease lapses. It checks every
// FailoverTimeout/4 and returns after promotion or Stop.
func (b *Backup) Run() {
	for b.monitor.Tick(b.opts.Clock, b.opts.FailoverTimeout/4) {
		b.mu.Lock()
		promoted := b.promoted
		silent := b.opts.Clock.Since(b.lastContact) >= b.opts.FailoverTimeout
		b.mu.Unlock()
		if promoted {
			return // a Promote raced the park's timeout
		}
		leaseGone := b.opts.LeaseExpired != nil && b.opts.LeaseExpired()
		if silent || leaseGone {
			if b.opts.OnEvent != nil {
				reason := "heartbeat silent"
				if leaseGone {
					reason = "lease expired"
				}
				b.opts.OnEvent("detect", reason)
			}
			b.Promote()
			return
		}
	}
}

// Stop terminates the monitor without promoting (shutdown path).
func (b *Backup) Stop() { b.monitor.Stop() }

// Promote flips the backup to primary at epoch+1: replication RPCs from
// the deposed primary are fenced from this point on, and OnPromote wires
// the node into the serving path. It reports the resulting epoch and
// whether this call performed the flip.
func (b *Backup) Promote() (uint64, bool) {
	b.applyMu.Lock()
	defer b.applyMu.Unlock()
	b.mu.Lock()
	if b.promoted {
		epoch := b.epoch
		b.mu.Unlock()
		return epoch, false
	}
	b.promoted = true
	b.epoch++
	epoch := b.epoch
	b.mu.Unlock()
	b.monitor.Stop() // unpark the monitor so it exits promptly
	if b.opts.Counters != nil {
		b.opts.Counters.Inc(metrics.CounterReplPromotions)
	}
	if b.opts.OnPromote != nil {
		b.opts.OnPromote(epoch)
	}
	return epoch, true
}

// --- accessors ---

// Promoted reports whether the role flip has happened.
func (b *Backup) Promoted() bool { b.mu.Lock(); defer b.mu.Unlock(); return b.promoted }

// Epoch returns the backup's current epoch.
func (b *Backup) Epoch() uint64 { b.mu.Lock(); defer b.mu.Unlock(); return b.epoch }

// Applied returns the last primary sequence number applied locally.
func (b *Backup) Applied() uint64 { b.mu.Lock(); defer b.mu.Unlock(); return b.applied }

// Lag returns how many primary records are known but not yet applied.
func (b *Backup) Lag() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.primarySeq < b.applied {
		return 0
	}
	return b.primarySeq - b.applied
}

// Local returns the backup's space adapter (the promotion glue binds the
// space service around it).
func (b *Backup) Local() *space.Local { return b.local }
