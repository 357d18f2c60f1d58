package transport

import (
	"errors"
	"testing"
	"time"

	"gospaces/internal/vclock"
)

// TestDoRetriesUntilSuccess: Do re-runs a failing op on its schedule and
// returns nil on the first success.
func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	b := Backoff{Attempts: 3, Initial: time.Millisecond, Max: 2 * time.Millisecond,
		Clock: vclock.NewReal()}
	err := b.Do(func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d; want nil, 3", err, calls)
	}
}
