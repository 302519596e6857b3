package serve

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's tri-state.
type BreakerState int

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe through; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a consecutive-failure circuit breaker: Threshold failures in a
// row open it, a Cooldown later one probe is allowed through, and the probe's
// outcome either closes it or re-arms the cooldown. fastd wires it over the
// fault-injected Hemera key-transfer path — a storm of modeled transfer
// faults trips the breaker, key-switch-bearing requests fail fast with
// ErrBreakerOpen, and once the faults subside the half-open probe re-closes
// it.
//
// All methods are safe for concurrent use.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests
	onChange  func(old, new BreakerState)

	state       BreakerState
	consecutive int
	openedAt    time.Time
}

// NewBreaker returns a closed breaker that opens after `threshold`
// consecutive failures and allows a half-open probe `cooldown` after opening.
// threshold < 1 is clamped to 1; cooldown <= 0 defaults to one second.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may proceed. In the open state it returns
// false until the cooldown has elapsed, then transitions to half-open and
// admits exactly one probe; further calls return false until the probe's
// outcome is recorded.
func (b *Breaker) Allow() bool {
	ok, _ := b.AllowProbe()
	return ok
}

// AllowProbe is Allow plus the information the caller needs to not leak the
// half-open probe slot: probe is true exactly when this admission performed
// the Open→HalfOpen transition and is therefore the single probe. A caller
// that obtains probe=true and then does NOT run the request to a recordable
// outcome (RecordSuccess/RecordFailure) must call CancelProbe, or the breaker
// wedges in half-open — where every Allow returns false — forever.
func (b *Breaker) AllowProbe() (ok, probe bool) {
	b.mu.Lock()
	var notify func()
	switch b.state {
	case BreakerClosed:
		b.mu.Unlock()
		return true, false
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			notify = b.setState(BreakerHalfOpen)
			b.mu.Unlock()
			if notify != nil {
				notify()
			}
			return true, true // the probe
		}
		b.mu.Unlock()
		return false, false
	default: // BreakerHalfOpen: probe in flight
		b.mu.Unlock()
		return false, false
	}
}

// OnStateChange registers a hook invoked (outside the breaker lock, so it
// may call State but must not block) after every state transition.
// At most one hook; nil clears it. fastd wires the per-shard
// serve.breaker.state gauge here.
func (b *Breaker) OnStateChange(fn func(old, new BreakerState)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onChange = fn
}

// setState performs a state transition with b.mu held and returns the
// notification thunk to run after unlock (nil when no hook or no change).
func (b *Breaker) setState(to BreakerState) func() {
	from := b.state
	if from == to {
		return nil
	}
	b.state = to
	if b.onChange == nil {
		return nil
	}
	cb := b.onChange
	return func() { cb(from, to) }
}

// CancelProbe returns an unused or inconclusive half-open probe slot:
// HalfOpen reverts to Open with the original openedAt preserved, so the
// already-elapsed cooldown lets the very next Allow become the new probe.
// Unlike RecordFailure it does not re-arm the cooldown (the downstream was
// never consulted) and unlike RecordSuccess it does not close the breaker.
// No-op in any other state, so it is safe to call after the probe's outcome
// was already recorded by other means.
func (b *Breaker) CancelProbe() {
	b.mu.Lock()
	var notify func()
	if b.state == BreakerHalfOpen {
		notify = b.setState(BreakerOpen)
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// RecordSuccess reports a successful request. It resets the failure streak
// and closes a half-open breaker.
func (b *Breaker) RecordSuccess() {
	b.mu.Lock()
	var notify func()
	b.consecutive = 0
	if b.state == BreakerHalfOpen {
		notify = b.setState(BreakerClosed)
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// RecordFailure reports a failed request. Threshold consecutive failures trip
// a closed breaker; any failure re-opens a half-open one (the probe failed,
// restart the cooldown).
func (b *Breaker) RecordFailure() {
	b.mu.Lock()
	var notify func()
	switch b.state {
	case BreakerHalfOpen:
		notify = b.trip()
	case BreakerClosed:
		b.consecutive++
		if b.consecutive >= b.threshold {
			notify = b.trip()
		}
	case BreakerOpen:
		// Late failure reports while open don't extend the cooldown.
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// trip must be called with b.mu held; returns the state-change notification
// thunk to run after unlock.
func (b *Breaker) trip() func() {
	notify := b.setState(BreakerOpen)
	b.openedAt = b.now()
	b.consecutive = 0
	return notify
}

// State returns the current state (open breakers whose cooldown has elapsed
// still report open until the next Allow performs the half-open transition).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// setClock replaces the breaker's time source (tests only).
func (b *Breaker) setClock(now func() time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
}
