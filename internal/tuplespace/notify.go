package tuplespace

import "time"

// Event describes an entry arrival delivered to a notification listener,
// mirroring JavaSpaces' RemoteEvent: a monotonically increasing sequence
// number per registration plus a copy of the arriving entry.
type Event struct {
	Registration uint64
	Sequence     uint64
	Entry        Entry
}

// Listener receives events. Implementations must not block: events are
// delivered synchronously from the writing process after the space lock is
// released.
type Listener func(Event)

type registration struct {
	id     uint64
	m      matcher
	fn     Listener
	expiry time.Time
	seq    uint64
	dead   bool
}

type notification struct {
	fn Listener
	ev Event
}

// Registration is the handle returned by Notify; Cancel stops delivery.
type Registration struct {
	space *Space
	reg   *registration
}

// ID returns the registration identifier carried in delivered events.
func (r *Registration) ID() uint64 { return r.reg.id }

// Cancel stops event delivery for this registration.
func (r *Registration) Cancel() {
	r.space.lock()
	r.reg.dead = true
	r.space.unlock()
}

// Notify registers fn to be called whenever an entry matching tmpl becomes
// publicly visible (a Write without a transaction, or a transactional write
// at commit). ttl bounds the registration lifetime (Forever for none).
func (s *Space) Notify(tmpl Entry, fn Listener, ttl time.Duration) (*Registration, error) {
	ti, m, err := compile(tmpl, nil)
	if err != nil {
		return nil, err
	}
	s.lock()
	defer s.unlock()
	if s.closed {
		return nil, ErrClosed
	}
	reg := &registration{id: s.nextReg, m: m, fn: fn}
	s.nextReg++
	if ttl > 0 {
		reg.expiry = s.clock.Now().Add(ttl)
	}
	s.notifs[ti.name] = append(s.notifs[ti.name], reg)
	return &Registration{space: s, reg: reg}, nil
}

// matchNotifsLocked queues on s.fire the notifications newly public entry
// se raises. Caller holds s.mu; unlock delivers them once it is released.
func (s *Space) matchNotifsLocked(se *storedEntry) {
	regs := s.notifs[se.ti.name]
	if len(regs) == 0 {
		return
	}
	now := s.clock.Now()
	out := regs[:0]
	for _, r := range regs {
		if r.dead || (!r.expiry.IsZero() && now.After(r.expiry)) {
			continue
		}
		out = append(out, r)
		if r.m.match(se.value()) {
			r.seq++
			s.stats.Notified++
			s.fire = append(s.fire, notification{fn: r.fn, ev: Event{
				Registration: r.id,
				Sequence:     r.seq,
				Entry:        copyOut(se.value()),
			}})
		}
	}
	s.notifs[se.ti.name] = out
}
