package device

import (
	"net"
	"time"

	"stdchk/internal/wire"
)

// ShapedConn wraps a net.Conn so that traffic is paced by the local NIC's
// transmit/receive limiters and, optionally, a shared fabric limiter
// modelling the site switch (the §V.F bottleneck). Each endpoint of a
// connection wraps its own half with its own NIC. It charges only what the
// model has: a limiter without a rate when the connection was wrapped is
// left out, and a link whose transmit side paces nothing writes each
// transmission unsplit.
type ShapedConn struct {
	net.Conn
	tx, rx, fabric *Limiter // nil: not modelled on this connection
	delay          time.Duration
}

var (
	_ net.Conn           = (*ShapedConn)(nil)
	_ wire.BuffersWriter = (*ShapedConn)(nil)
)

// Shape wraps conn with the node's NIC and an optional shared fabric. The
// shaping is fixed when the connection is wrapped: a limiter without a
// rate at that moment is not charged on this connection, whatever
// SetRate later says. When nothing is modelled — no TX or RX rate, no
// delay, no rated fabric, as in NewNode(Unshaped()) — Shape returns conn
// itself.
func Shape(conn net.Conn, nic *NIC, fabric *Limiter) net.Conn {
	if conn == nil {
		return nil
	}
	s := &ShapedConn{Conn: conn, fabric: rated(fabric)}
	if nic != nil {
		s.tx, s.rx, s.delay = rated(nic.TX), rated(nic.RX), nic.Delay
	}
	if s.tx == nil && s.rx == nil && s.fabric == nil && s.delay <= 0 {
		return conn
	}
	return s
}

// rated returns l if it paces at all, nil otherwise.
func rated(l *Limiter) *Limiter {
	if l.Rate() > 0 {
		return l
	}
	return nil
}

// writeQuantum is the pacing granularity for transmissions. Pacing before
// each quantum (instead of once for the whole message) lets the receiving
// end overlap with the sender in wall-clock time, as a real pipelined link
// does.
const writeQuantum = 64 << 10

// linkSleep pays a link's one-way delay.
var linkSleep = time.Sleep

// Write sends p as one transmission: it pays the link delay once, then
// paces the bytes through the NIC TX queue and the fabric in writeQuantum
// pieces, or writes them unsplit when neither has a rate. The blocking
// delay models a stop-and-wait sender, so each serial request costs one
// latency while a windowed transport overlaps the charges of its in-flight
// requests across connections.
func (s *ShapedConn) Write(p []byte) (int, error) {
	if s.delay > 0 {
		linkSleep(s.delay)
	}
	if s.tx == nil && s.fabric == nil {
		return s.Conn.Write(p)
	}
	n, err := s.pace(net.Buffers{p})
	return int(n), err
}

// WriteBuffers sends a transmission given as a buffer list (a frame's
// control part and its body, or a run of queued frames) the way Write
// sends one slice: one link delay for the lot, then the bytes unsplit
// through wire.WriteBuffers, or paced in writeQuantum pieces on a rated
// link.
func (s *ShapedConn) WriteBuffers(bufs *net.Buffers) (int64, error) {
	if s.delay > 0 {
		linkSleep(s.delay)
	}
	if s.tx == nil && s.fabric == nil {
		return wire.WriteBuffers(s.Conn, bufs)
	}
	return s.pace(*bufs)
}

// pace writes a transmission in writeQuantum pieces, each charged to the
// TX queue and the fabric before it leaves.
func (s *ShapedConn) pace(rest net.Buffers) (int64, error) {
	var (
		written      int64
		quantum, out net.Buffers // out: quantum as WriteBuffers consumes it
	)
	for len(rest) > 0 {
		size := 0
		quantum = quantum[:0]
		for len(rest) > 0 && size < writeQuantum {
			b := rest[0]
			if room := writeQuantum - size; len(b) > room {
				quantum, rest[0], size = append(quantum, b[:room]), b[room:], writeQuantum
				break
			}
			quantum, rest, size = append(quantum, b), rest[1:], size+len(b)
		}
		s.tx.Acquire(size)
		s.fabric.Acquire(size)
		out = quantum
		n, err := wire.WriteBuffers(s.Conn, &out)
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Read paces the incoming bytes through the NIC RX queue. The fabric is
// charged on the transmit side only, so a byte crossing the switch is not
// double-counted.
func (s *ShapedConn) Read(p []byte) (int, error) {
	n, err := s.Conn.Read(p)
	if n > 0 {
		s.rx.Acquire(n)
	}
	return n, err
}
