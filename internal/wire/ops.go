package wire

import (
	"fmt"
	"sync/atomic"
	"time"

	"stdchk/internal/metrics"
)

// UnknownOp is the key under which OpTable.Stats reports the requests
// that named no declared op.
const UnknownOp = "?"

// OpTable is a daemon's op table: the one place it declares the RPCs it
// serves. Each entry decodes its request and runs its handler; the table
// records every dispatch — count, errors and service time — so no handler
// keeps a counter of its own. Serve is the table's Handler. Ops are
// declared with On before the table serves and never after, so dispatch
// reads the map unlocked. A request naming no declared op is refused and
// recorded in one shared slot: a peer cannot grow the table.
type OpTable struct {
	ops     map[string]*opEntry
	unknown opEntry
}

// opEntry is one row of an OpTable and its record.
type opEntry struct {
	serve  func(*Req) (Resp, error)
	errors atomic.Int64
	lat    metrics.LatencyHistogram
}

// NewOpTable returns an empty table; daemon prefixes its errors.
func NewOpTable(daemon string) *OpTable {
	t := &OpTable{ops: make(map[string]*opEntry)}
	t.unknown.serve = func(r *Req) (Resp, error) {
		return Resp{}, fmt.Errorf("%s: unknown op %q", daemon, r.Op)
	}
	return t
}

// On declares op on t: its request type R, decoded from the request meta
// by R's own binary layout when it has one and as JSON otherwise (an op
// without a request takes struct{}), and its handler, which also gets the
// request body. Declaring an op twice panics.
func On[R any](t *OpTable, op string, fn func(req R, body []byte) (Resp, error)) {
	if _, dup := t.ops[op]; dup {
		panic(fmt.Sprintf("wire: op %q declared twice", op))
	}
	t.ops[op] = &opEntry{serve: func(r *Req) (Resp, error) {
		var req R
		if err := UnmarshalMeta(r.Meta, &req); err != nil {
			return Resp{}, err
		}
		return fn(req, r.Body)
	}}
}

// Serve dispatches r through its op's entry and records the call. The
// latency is the entry's whole service time: request decode and handler,
// up to the response the handler returns (its encoding and the frame
// write are not included).
func (t *OpTable) Serve(r *Req) (Resp, error) {
	e := t.ops[r.Op]
	if e == nil {
		e = &t.unknown
	}
	start := time.Now()
	resp, err := e.serve(r)
	e.lat.Observe(time.Since(start))
	if err != nil {
		e.errors.Add(1)
	}
	return resp, err
}

// Stats reports every declared op's record, and the unknown-op slot's
// under UnknownOp.
func (t *OpTable) Stats() map[string]metrics.OpStats {
	out := make(map[string]metrics.OpStats, len(t.ops)+1)
	for op, e := range t.ops {
		out[op] = e.stats()
	}
	out[UnknownOp] = t.unknown.stats()
	return out
}

func (e *opEntry) stats() metrics.OpStats {
	lat := e.lat.Snapshot()
	return metrics.OpStats{Count: lat.Count, Errors: e.errors.Load(), Latency: lat}
}
