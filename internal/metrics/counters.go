package metrics

import (
	"fmt"
	"sync/atomic"
)

// Counters is a daemon's counter record: the one place it names the
// quantities it counts. Each counter is declared once, with how
// federation members' readings of it combine — summed, for work a
// member does on its own partition, or maxed, for a quantity every
// member sees or a bound each member holds. Sum and Max return the
// counter's handle, which the daemon keeps where it counts, so no
// request path looks a name up. SumFunc and MaxFunc declare a counter
// read from state the daemon keeps anyway (a table's size, a lock's
// acquisition count) each time the record is read. Counters are
// declared before the daemon serves and never after, so Snapshot reads
// the list unlocked. The zero value is ready to use.
type Counters struct {
	list []declared
}

type declared struct {
	name string
	max  bool
	read func() int64
}

// Sum declares a summed counter and returns its handle.
func (c *Counters) Sum(name string) *atomic.Int64 {
	v := new(atomic.Int64)
	c.declare(name, false, v.Load)
	return v
}

// Max declares a maxed counter and returns its handle.
func (c *Counters) Max(name string) *atomic.Int64 {
	v := new(atomic.Int64)
	c.declare(name, true, v.Load)
	return v
}

// SumFunc declares a summed counter whose value read returns.
func (c *Counters) SumFunc(name string, read func() int64) { c.declare(name, false, read) }

// MaxFunc declares a maxed counter whose value read returns.
func (c *Counters) MaxFunc(name string, read func() int64) { c.declare(name, true, read) }

// declare adds one counter; declaring a name twice panics.
func (c *Counters) declare(name string, max bool, read func() int64) {
	for _, d := range c.list {
		if d.name == name {
			panic(fmt.Sprintf("metrics: counter %q declared twice", name))
		}
	}
	c.list = append(c.list, declared{name: name, max: max, read: read})
}

// Snapshot reads every declared counter.
func (c *Counters) Snapshot() map[string]Counter {
	out := make(map[string]Counter, len(c.list))
	for _, d := range c.list {
		out[d.name] = Counter{Value: d.read(), Max: d.max}
	}
	return out
}

// Counter is one counter's reading: its value, and whether readings
// from several federation members combine by taking the largest (Max)
// or by adding.
type Counter struct {
	Value int64 `json:"v"`
	Max   bool  `json:"max,omitempty"`
}

// Merge combines two members' readings of one counter — the
// federation-side combiner. The zero Counter is its identity.
func (c Counter) Merge(o Counter) Counter {
	if c.Max || o.Max {
		return Counter{Value: max(c.Value, o.Value), Max: true}
	}
	return Counter{Value: c.Value + o.Value}
}
