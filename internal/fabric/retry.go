package fabric

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Backoff shape: each backoff doubles the last, and jitter randomizes up
// to a fifth of it away (a delay d sleeps in [d*(1-jitter), d]), so a
// fleet of coordinators retrying the same dead worker does not stampede it.
const (
	multiplier = 2
	jitter     = 0.2
)

// Policy is the shared retry/backoff discipline every fabric network
// operation runs under: capped exponential backoff with jitter, a
// per-attempt deadline, and a bounded attempt count. The zero value takes
// the defaults below.
type Policy struct {
	// MaxAttempts bounds tries per operation (default 4).
	MaxAttempts int
	// BaseDelay is the first backoff (default 50ms); each subsequent
	// backoff doubles and caps at MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// AttemptTimeout is the per-attempt deadline (0 = none): each attempt
	// runs under a context that expires after this long, so one hung
	// worker cannot absorb the whole operation's budget.
	AttemptTimeout time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// permanentError marks an error no retry can fix (a rejected spec, a
// cancelled context): Do returns it immediately.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Policy.Do stops retrying and returns it as is.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Do runs fn until it succeeds, returns a Permanent error, the parent
// context ends, or MaxAttempts is exhausted. Each attempt receives a
// context bounded by AttemptTimeout; backoffs respect the parent context.
func (p Policy) Do(ctx context.Context, fn func(ctx context.Context) error) error {
	p = p.withDefaults()
	delay := p.BaseDelay
	var lastErr error
	for attempt := 1; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		err := fn(actx)
		cancel()
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		lastErr = err
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if attempt >= p.MaxAttempts {
			return fmt.Errorf("fabric: %d attempts exhausted: %w", p.MaxAttempts, lastErr)
		}
		d := delay - time.Duration(rand.Float64()*jitter*float64(delay))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
		delay *= multiplier
		if delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}
