package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stdchk/internal/wire"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around a call into that layer's public functions. Spans of one operation
// (a checkpoint, a restore, a probe) share Op; Parent is the span that
// caused this one (0 for the operation's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Only the traced run has
// one; the untraced run, where every end-to-end number comes from, passes
// nil.
type tracer struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
	link linkWatch
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one span and returns its id; parent 0 starts a new operation.
func (t *tracer) add(parent, op uint64, layer, name string, start, end time.Time) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.list) + 1)
	if parent == 0 {
		op = id
	}
	t.list = append(t.list, span{
		ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// record turns a round's per-operation timestamps into spans: one root per
// checkpoint and per restore, with the facade calls as children.
func (t *tracer) record(workload string, r *round) {
	for _, k := range r.ckpts {
		if k.err != nil {
			continue
		}
		op := t.add(0, 0, "workload", workload+".ckpt", k.start, k.stored)
		t.add(op, op, "client", "client.create", k.start, k.created)
		t.add(op, op, "client", "client.write", k.created, k.written)
		t.add(op, op, "client", "client.close", k.written, k.closed)
		t.add(op, op, "client", "client.wait", k.closed, k.stored)
	}
	for _, rs := range r.restores {
		if rs.err != nil {
			continue
		}
		op := t.add(0, 0, "workload", workload+".restore", rs.start, rs.done)
		t.add(op, op, "client", "client.open", rs.start, rs.opened)
		rd := t.add(op, op, "client", "client.read", rs.opened, rs.done)
		t.add(rd, op, "client", "client.first_byte", rs.opened, rs.firstByte)
	}
}

func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.list...)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	var werr error
	for _, s := range t.spans() {
		if werr = enc.Encode(s); werr != nil {
			break
		}
	}
	if err := errors.Join(werr, bw.Flush(), f.Close()); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// linkWatch observes the client's connections from outside, through the
// shaper hook the client calls for every connection it dials. It counts
// the dials, and on a link with a modeled delay it measures how long at
// least one send sat in that link: the union of the intervals spent inside
// Write. On lan_64k a Write is the 1 ms modeled delay plus a loopback send,
// so the union is the wall time spent waiting on the link, however many
// requests the client kept in flight.
type linkWatch struct {
	dials atomic.Int64

	mu     sync.Mutex
	active int
	since  time.Time
	sum    time.Duration
}

func (l *linkWatch) wrap(inner wire.Shaper, delayed bool) wire.Shaper {
	return func(c net.Conn) net.Conn {
		l.dials.Add(1)
		c = inner(c)
		if delayed {
			c = &watchedConn{Conn: c, l: l}
		}
		return c
	}
}

func (l *linkWatch) enter() {
	l.mu.Lock()
	if l.active == 0 {
		l.since = time.Now()
	}
	l.active++
	l.mu.Unlock()
}

func (l *linkWatch) exit() {
	l.mu.Lock()
	l.active--
	if l.active == 0 {
		l.sum += time.Since(l.since)
	}
	l.mu.Unlock()
}

func (l *linkWatch) reset() {
	l.dials.Store(0)
	l.mu.Lock()
	l.sum = 0
	l.mu.Unlock()
}

func (l *linkWatch) total() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sum
}

type watchedConn struct {
	net.Conn
	l *linkWatch
}

func (c *watchedConn) Write(p []byte) (int, error) {
	c.l.enter()
	defer c.l.exit()
	return c.Conn.Write(p)
}

// watchGoroutines samples the goroutine count during a traced measured
// phase and stores the peak; the returned stop waits for the sampler to
// exit. Untraced runs (tr nil) start nothing.
func watchGoroutines(tr *tracer, peak *int) (stop func()) {
	if tr == nil {
		return func() {}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > *peak {
				*peak = n
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}
