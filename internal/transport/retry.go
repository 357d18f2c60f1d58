package transport

import (
	"fmt"
	"math/rand"
	"time"

	"gospaces/internal/vclock"
)

// Backoff retries an operation with exponential backoff and full jitter
// between attempts: each sleep is drawn uniformly from [0, d], where d is
// the exponential schedule's delay, so synchronized clients fan out instead
// of thundering-herding a recovering shard. The zero value is the shared
// dial/retry policy: 4 attempts, 50ms initial delay doubling up to 2s,
// slept on the real clock.
type Backoff struct {
	Attempts int           // total tries (not retries); <= 0 means 4
	Initial  time.Duration // delay before the second attempt; <= 0 means 50ms
	Max      time.Duration // delay cap; <= 0 means 2s
	Clock    vclock.Clock  // sleep source; nil means the real clock
	// Seed fixes the jitter stream (used when non-zero), keeping schedules
	// replayable under the virtual clock; zero seeds from the policy's
	// parameters, which is deterministic but shared across callers — pass
	// a caller-unique seed to decorrelate.
	Seed int64
}

func (b Backoff) withDefaults() Backoff {
	if b.Attempts <= 0 {
		b.Attempts = 4
	}
	if b.Initial <= 0 {
		b.Initial = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	if b.Clock == nil {
		b.Clock = vclock.NewReal()
	}
	return b
}

// Do runs op up to b.Attempts times, sleeping between failures. It returns
// nil on the first success, or the last error.
func (b Backoff) Do(op func() error) error {
	b = b.withDefaults()
	var jitter *rand.Rand // made at the first sleep: a first try that succeeds needs none
	delay := b.Initial
	var err error
	for i := 0; i < b.Attempts; i++ {
		if i > 0 {
			sleep := delay
			if sleep > 0 {
				if jitter == nil {
					seed := b.Seed
					if seed == 0 {
						seed = int64(b.Attempts)<<32 ^ int64(b.Initial) ^ int64(b.Max)
					}
					jitter = rand.New(rand.NewSource(seed))
				}
				// Full jitter: uniform over [0, delay]. The exponential
				// schedule still governs the envelope.
				sleep = time.Duration(jitter.Int63n(int64(sleep) + 1))
			}
			b.Clock.Sleep(sleep)
			delay *= 2
			if delay > b.Max {
				delay = b.Max
			}
		}
		if err = op(); err == nil {
			return nil
		}
	}
	return fmt.Errorf("transport: giving up after %d attempts: %w", b.Attempts, err)
}

// DialTCPRetry dials addr with DialTCP under b's retry policy. It rides out
// the window where a freshly registered service has published its address
// but its listener is not yet accepting.
func DialTCPRetry(addr string, b Backoff) (Client, error) {
	var c Client
	err := b.Do(func() error {
		var err error
		c, err = DialTCP(addr)
		return err
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}
