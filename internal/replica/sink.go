package replica

import (
	"sync"

	"gospaces/internal/tuplespace"
)

// SwitchSink is a tuplespace.RecordSink whose target can be installed —
// or swapped — after the journal is already attached. A space only
// accepts a journal while it is empty, so the replicated bring-up
// attaches a journal over a SwitchSink at construction and points it at
// the shard's replication controller later; after a role flip the same
// switch is re-pointed at the node's next controller. A nil target drops
// records, which is exactly right for a node with no replication peer —
// and Dropping tells the journal so, so a standby does not encode a record
// per applied op for nobody.
type SwitchSink struct {
	mu   sync.Mutex
	sink tuplespace.RecordSink
}

// NewSwitchSink returns a switch with no target.
func NewSwitchSink() *SwitchSink { return &SwitchSink{} }

// Set installs (or replaces, or with nil removes) the target sink.
func (s *SwitchSink) Set(sink tuplespace.RecordSink) {
	s.mu.Lock()
	s.sink = sink
	s.mu.Unlock()
}

// Append implements tuplespace.RecordSink by forwarding to the current
// target. It is called under the space mutex, so the target must not
// block (Primary.Sink only enqueues).
func (s *SwitchSink) Append(payload []byte) error {
	s.mu.Lock()
	t := s.sink
	s.mu.Unlock()
	if t == nil {
		return nil
	}
	return t.Append(payload)
}

// Dropping reports that Append would discard a record now: no target is
// installed (see tuplespace.RecordSink). A record journaled while Set runs
// is dropped or delivered exactly as Append alone would have decided.
func (s *SwitchSink) Dropping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sink == nil
}
