package serve

import (
	"context"
	"fmt"
	"sync"

	"github.com/fastfhe/fast/internal/obs"
)

// Cross-request micro-batching on top of the admission Server.
//
// A Batcher coalesces concurrently admitted requests that share a batch key
// (fastd keys by session, so batchmates share key material) into one
// execution of the caller-supplied exec function. The coalescing window is
// the admission queue wait itself — no added latency, no timers: every
// request is individually admitted through Server.Do (so the degradation
// ladder and deadline shedding are untouched), and the
// first admitted request to reach a worker becomes the batch leader, taking
// every still-pending same-key request with it.
//
// Cancellation stays per-request: each BatchItem carries its own context and
// the executor fails exactly the canceled items while batchmates proceed.

// itemState is the lifecycle of a BatchItem on its board.
type itemState int

const (
	itemPending   itemState = iota // enrolled, waiting for a leader
	itemRunning                    // taken into a leader's batch
	itemDone                       // finished (res/err valid, done closed)
	itemWithdrawn                  // removed before any leader took it
)

// BatchItem is one request enrolled for batched execution. The exec callback
// reads Ctx and Payload and must call Finish exactly once per item.
type BatchItem struct {
	// Ctx is the request's own context; the executor uses it to cancel this
	// item independently of its batchmates.
	Ctx context.Context
	// Payload is the caller's compiled request, opaque to this package.
	Payload any

	key  string
	mu   sync.Mutex
	st   itemState
	res  any
	err  error
	done chan struct{}
}

// Finish records the item's outcome and releases its waiter. Idempotent:
// only the first call lands (the Batcher's panic guard calls it defensively
// after exec returns).
func (it *BatchItem) Finish(res any, err error) {
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.st == itemDone {
		return
	}
	it.st = itemDone
	it.res, it.err = res, err
	close(it.done)
}

// Batcher coalesces same-key requests admitted through one Server into
// micro-batches. Create with NewBatcher.
type Batcher struct {
	srv  *Server
	exec func([]*BatchItem)

	mu     sync.Mutex
	boards map[string][]*BatchItem

	mBatches   *obs.Counter   // batches executed
	mCoalesced *obs.Counter   // items that rode a batchmate's admission
	mSize      *obs.Histogram // batch size distribution
}

// NewBatcher wraps srv with micro-batching. exec executes one batch: it must
// call Finish on every item (a panic guard finishes stragglers with an error
// so waiters never hang). reg, when non-nil, receives the serve.batch.*
// instruments.
func NewBatcher(srv *Server, exec func([]*BatchItem), reg *obs.Registry) *Batcher {
	b := &Batcher{srv: srv, exec: exec, boards: make(map[string][]*BatchItem)}
	if reg != nil {
		b.mBatches = reg.Counter("serve.batch.count")
		b.mCoalesced = reg.Counter("serve.batch.coalesced")
		b.mSize = reg.Histogram("serve.batch.size")
	}
	return b
}

// Do admits one request and returns its batched-execution result. The
// request is enrolled on its key's board before admission, individually
// admitted via Server.Do (every rung of the degradation ladder applies to it
// alone), and executed either as a batch leader — taking all still-pending
// same-key requests — or as a follower whose result a leader already
// produced.
//
// On an admission rejection (queue full, shed, draining) or an
// abandon-while-queued, the enrollment is withdrawn and the admission error
// returned — unless a leader scooped the item first, in which case the work
// already ran on the batchmate's worker and its result is returned instead
// of a lie about capacity.
func (b *Batcher) Do(ctx context.Context, op Op, key string, payload any) (any, error) {
	it := &BatchItem{Ctx: ctx, Payload: payload, key: key, done: make(chan struct{})}
	b.enroll(it)
	admissionErr := b.srv.Do(ctx, op, func(context.Context) error {
		batch := b.lead(it)
		if batch == nil {
			// A batchmate's leader took this item; its verdict arrives when
			// that batch completes. If this request's own ctx dies meanwhile,
			// the executor fails the item fast — the wait stays bounded.
			<-it.done
			return it.err
		}
		b.runBatch(batch)
		return it.err
	})
	it.mu.Lock()
	st := it.st
	it.mu.Unlock()
	if st == itemDone {
		return it.res, it.err
	}
	if b.withdraw(it) {
		return nil, admissionErr
	}
	// Scooped between the rejection and the withdrawal: the work is running
	// (or just finished) on a batchmate's worker.
	<-it.done
	return it.res, it.err
}

// enroll puts the item on its key's board.
func (b *Batcher) enroll(it *BatchItem) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.boards[it.key] = append(b.boards[it.key], it)
}

// lead attempts to make it the leader of its board: if it is still pending,
// every pending same-key item (it included) is taken and returned. Returns
// nil when another leader already took it.
func (b *Batcher) lead(it *BatchItem) []*BatchItem {
	b.mu.Lock()
	defer b.mu.Unlock()
	it.mu.Lock()
	pendingSelf := it.st == itemPending
	it.mu.Unlock()
	if !pendingSelf {
		return nil
	}
	board := b.boards[it.key]
	batch := make([]*BatchItem, 0, len(board))
	for _, cand := range board {
		cand.mu.Lock()
		if cand.st == itemPending {
			cand.st = itemRunning
			batch = append(batch, cand)
			// Followers ride the leader's worker without ever reaching one
			// themselves; stamp their in-flight phase here so /debug/requests
			// shows them executing as part of a batch rather than stuck queued.
			if cand != it {
				obs.RequestFrom(cand.Ctx).SetPhase(obs.PhaseBatched)
			}
		}
		cand.mu.Unlock()
	}
	delete(b.boards, it.key)
	return batch
}

// withdraw removes a still-pending item from its board. Returns false when a
// leader already took it (the caller must then wait for the verdict).
func (b *Batcher) withdraw(it *BatchItem) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.st != itemPending {
		return false
	}
	it.st = itemWithdrawn
	board := b.boards[it.key]
	for i, cand := range board {
		if cand == it {
			board = append(board[:i], board[i+1:]...)
			break
		}
	}
	if len(board) == 0 {
		delete(b.boards, it.key)
	} else {
		b.boards[it.key] = board
	}
	return true
}

// runBatch executes one batch with a straggler guard: every item the exec
// callback failed to finish (bug or panic unwinding through it) is finished
// with an error so no waiter hangs. The panic itself propagates to the
// Server's per-worker isolation.
func (b *Batcher) runBatch(batch []*BatchItem) {
	b.mBatches.Inc()
	b.mSize.Observe(int64(len(batch)))
	if len(batch) > 1 {
		b.mCoalesced.Add(uint64(len(batch) - 1))
	}
	defer func() {
		for _, it := range batch {
			it.Finish(nil, fmt.Errorf("serve: batch executor did not finish item: %w", ErrPanicked))
		}
	}()
	b.exec(batch)
}

// Server returns the underlying admission server.
func (b *Batcher) Server() *Server { return b.srv }
