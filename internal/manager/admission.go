package manager

import (
	"sync/atomic"
	"time"

	"stdchk/internal/core"
)

// defaultRetryAfterHint is the backoff handed to shed callers when the
// config does not name one. It is deliberately small: a shed op is
// metadata-sized, so the queue drains in milliseconds and a longer hint
// would only inflate tail latency under transient bursts.
const defaultRetryAfterHint = 2 * time.Millisecond

// admission is the manager's global load-shedding gate. Mutating
// metadata ops (alloc, extend, commit) enter before dispatch and exit
// after their response is built; when the pending count would exceed the
// configured bound the op is rejected immediately with a typed
// core.ErrRetryAfter instead of queueing — bounded queues are what keeps
// an overloaded manager answering at all (every accepted op still
// completes in bounded time, and the reject itself is nearly free).
//
// A zero bound disables shedding but keeps the depth accounting, so the
// unbounded ablation still reports its (unbounded) queue growth.
type admission struct {
	max  int
	hint time.Duration

	cur      atomic.Int64
	peak     atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64
	connShed atomic.Int64
}

func newAdmission(maxPending int, hint time.Duration) *admission {
	if hint <= 0 {
		hint = defaultRetryAfterHint
	}
	return &admission{max: maxPending, hint: hint}
}

// enter admits one gated op or rejects it with retry-after. On success
// the caller must pair it with exit.
func (a *admission) enter() error {
	for {
		cur := a.cur.Load()
		if a.max > 0 && cur >= int64(a.max) {
			a.shed.Add(1)
			return core.ErrRetryAfter{Delay: a.hint}
		}
		if !a.cur.CompareAndSwap(cur, cur+1) {
			continue
		}
		a.admitted.Add(1)
		a.bumpPeak(cur + 1)
		return nil
	}
}

// exit releases an admitted op's queue slot.
func (a *admission) exit() { a.cur.Add(-1) }

func (a *admission) bumpPeak(depth int64) {
	for {
		peak := a.peak.Load()
		if depth <= peak || a.peak.CompareAndSwap(peak, depth) {
			return
		}
	}
}

// overloadHook is installed as the wire server's per-connection shed
// policy: a session-tagged frame arriving past the connection's inflight
// budget is rejected here, before the dispatcher ever decodes it.
func (a *admission) overloadHook(op string) error {
	a.connShed.Add(1)
	return core.ErrRetryAfter{Delay: a.hint}
}
