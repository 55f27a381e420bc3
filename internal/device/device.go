// Package device models the capacity of the paper's testbed hardware:
// disks, NICs, a shared network fabric, and fixed per-call overheads (the
// FUSE context switch). stdchk's components are real concurrent TCP
// servers; only their *capacity* is simulated, by pacing transfers through
// calibrated rate limiters. This reproduces the evaluation's bottleneck
// structure (disk vs NIC vs stripe width vs shared server) independent of
// the machine the benchmarks run on.
//
// The model is a virtual single-server queue per device: a transfer of n
// bytes occupies the device for n/bandwidth seconds, and concurrent
// transfers serialize. This is the behaviour that produces the paper's
// saturation effects (two 1 Gbps benefactors saturating a 1 Gbps client,
// the NFS server crowding under simultaneous checkpoints, the §V.F fabric
// ceiling of ~280 MB/s).
package device

import (
	"sync"
	"time"
)

// MBps converts a decimal-megabyte-per-second figure (the unit used in the
// paper) into bytes per second.
func MBps(mb float64) float64 { return mb * 1e6 }

// Gbps converts a gigabit-per-second link speed into bytes per second.
func Gbps(g float64) float64 { return g * 1e9 / 8 }

// Limiter paces transfers to a fixed bandwidth. The zero value and the nil
// limiter are unshaped (infinite bandwidth); tests use unshaped devices,
// benchmarks use calibrated ones.
type Limiter struct {
	mu       sync.Mutex
	rate     float64 // bytes per second; <= 0 means unshaped
	nextFree time.Time
	// credit is scheduler debt: how long past the modeled completion
	// time sleeps actually woke. It may be repaid by starting later
	// requests slightly in the past, so aggregate throughput converges
	// on the configured rate. Idle time is never banked — an unused
	// link's capacity is lost, as on real hardware.
	credit time.Duration
}

// NewLimiter returns a limiter paced at bytesPerSec. Non-positive rates
// yield an unshaped limiter.
func NewLimiter(bytesPerSec float64) *Limiter {
	return &Limiter{rate: bytesPerSec}
}

// Rate returns the configured bandwidth in bytes per second (0 when
// unshaped).
func (l *Limiter) Rate() float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rate <= 0 {
		return 0
	}
	return l.rate
}

// SetRate changes the bandwidth. Safe for concurrent use. A connection's
// shaping is fixed when Shape wraps it: a connection wrapped while this
// limiter had no rate is not paced by it after SetRate, and one wrapped
// while it had a rate keeps consulting it.
func (l *Limiter) SetRate(bytesPerSec float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rate = bytesPerSec
}

// minSleep is the shortest pause worth issuing: time.Sleep overshoots
// sub-millisecond requests badly, so shorter debts stay recorded in the
// virtual queue and are slept off in a later, larger pause.
const minSleep = time.Millisecond

// maxCredit caps the banked scheduler debt.
const maxCredit = 10 * time.Millisecond

// Acquire blocks until a transfer of n bytes completes under the device
// model: the request is queued behind earlier transfers and occupies the
// device for n/rate seconds. Unshaped limiters return immediately.
func (l *Limiter) Acquire(n int) {
	if l == nil || n <= 0 {
		return
	}
	l.mu.Lock()
	if l.rate <= 0 {
		l.mu.Unlock()
		return
	}
	dur := time.Duration(float64(n) / l.rate * float64(time.Second))
	now := time.Now()
	start := l.nextFree
	if start.IsZero() || start.Before(now) {
		// The device is idle. Repay banked scheduler debt by starting
		// slightly in the past, but never earlier than the previous
		// request's modeled completion: idle capacity itself is lost.
		back := l.credit
		if !start.IsZero() && back > now.Sub(start) {
			back = now.Sub(start)
		}
		l.credit -= back
		start = now.Add(-back)
	}
	end := start.Add(dur)
	l.nextFree = end
	l.mu.Unlock()

	if wait := time.Until(end); wait >= minSleep {
		time.Sleep(wait)
		if over := time.Since(end); over > 0 {
			l.mu.Lock()
			l.credit += over
			if l.credit > maxCredit {
				l.credit = maxCredit
			}
			l.mu.Unlock()
		}
	}
}

// Busy reports whether the device currently has queued work (its virtual
// availability lies in the future). The replication scheduler uses this to
// give foreground writes priority.
func (l *Limiter) Busy() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate > 0 && l.nextFree.After(time.Now())
}

// Disk models a node-local disk with distinct sustained read and write
// bandwidths sharing one spindle (a single queue). The queue is paced in
// nanoseconds of spindle time so reads and writes with different bandwidths
// contend correctly.
type Disk struct {
	q         *Limiter // rate 1e9 units/s; one unit = 1 ns of spindle time
	readRate  float64
	writeRate float64
}

// NewDisk returns a disk with the given sustained read/write bandwidths in
// bytes per second. Non-positive rates are unshaped.
func NewDisk(readBps, writeBps float64) *Disk {
	return &Disk{q: NewLimiter(1e9), readRate: readBps, writeRate: writeBps}
}

// UnshapedDisk returns a disk with no pacing, for tests.
func UnshapedDisk() *Disk { return &Disk{} }

// Read blocks for the duration of reading n bytes.
func (d *Disk) Read(n int) {
	if d == nil {
		return
	}
	d.acquire(n, d.readRate)
}

// Write blocks for the duration of writing n bytes.
func (d *Disk) Write(n int) {
	if d == nil {
		return
	}
	d.acquire(n, d.writeRate)
}

// Busy reports whether the spindle has queued work.
func (d *Disk) Busy() bool {
	if d == nil || d.q == nil {
		return false
	}
	return d.q.Busy()
}

func (d *Disk) acquire(n int, rate float64) {
	if d == nil || d.q == nil || rate <= 0 || n <= 0 {
		return
	}
	d.q.Acquire(int(float64(n) / rate * 1e9))
}

// NIC models a full-duplex network interface: independent transmit and
// receive queues at the link speed, plus an optional fixed per-transmission
// latency.
type NIC struct {
	TX *Limiter
	RX *Limiter
	// Delay is the one-way latency a transmission pays before its bytes
	// enter the link: propagation plus the sender's protocol-stack cost.
	// It is charged once per transmission (a Write, or a frame or run of
	// frames sent as one buffer list), which makes a stop-and-wait
	// exchange pay it once per request — the per-RPC cost that pipelined
	// and batched transports amortize across a window (paper §IV.E). Zero
	// is a latency-free link.
	Delay time.Duration
}

// NewNIC returns a NIC with the given link bandwidth (bytes per second) in
// each direction. Non-positive is unshaped.
func NewNIC(bps float64) *NIC {
	return &NIC{TX: NewLimiter(bps), RX: NewLimiter(bps)}
}

// CallCost models a fixed per-invocation overhead, such as the ~32 µs
// kernel/user context switch a FUSE call pays (paper Table 1). Costs
// accumulate in a virtual queue and are slept off in >= minSleep pauses,
// the same self-correcting scheme the Limiter uses, because individual
// 32 µs sleeps are unachievable.
type CallCost struct {
	mu       sync.Mutex
	cost     time.Duration
	nextFree time.Time
	credit   time.Duration
}

// NewCallCost returns a per-call cost model. Non-positive costs are free.
func NewCallCost(d time.Duration) *CallCost { return &CallCost{cost: d} }

// Pay blocks for the per-call cost.
func (c *CallCost) Pay() {
	if c == nil || c.cost <= 0 {
		return
	}
	c.mu.Lock()
	now := time.Now()
	start := c.nextFree
	if start.IsZero() || start.Before(now) {
		back := c.credit
		if !start.IsZero() && back > now.Sub(start) {
			back = now.Sub(start)
		}
		c.credit -= back
		start = now.Add(-back)
	}
	end := start.Add(c.cost)
	c.nextFree = end
	c.mu.Unlock()
	if wait := time.Until(end); wait >= minSleep {
		time.Sleep(wait)
		if over := time.Since(end); over > 0 {
			c.mu.Lock()
			c.credit += over
			if c.credit > maxCredit {
				c.credit = maxCredit
			}
			c.mu.Unlock()
		}
	}
}

// Cost returns the per-call duration.
func (c *CallCost) Cost() time.Duration {
	if c == nil {
		return 0
	}
	return c.cost
}

// Profile bundles the calibrated capacities of one node.
type Profile struct {
	// DiskReadBps / DiskWriteBps are the node-local disk's sustained
	// bandwidths in bytes per second (paper: 86.2 MB/s write).
	DiskReadBps  float64
	DiskWriteBps float64
	// LinkBps is the NIC speed in bytes per second (paper: 1 Gbps
	// benefactors; 10 Gbps client in §V.D).
	LinkBps float64
	// LinkDelay is the NIC's one-way per-transmission latency (see
	// NIC.Delay). The readload harness uses it to model the LAN round
	// trip a serial chunk transfer pays per request.
	LinkDelay time.Duration
	// MemCopyBps bounds in-memory copies (the /stdchk/null path in
	// Table 1 is memcpy-limited at about 1 GB/s).
	MemCopyBps float64
	// FuseCallCost is the per-syscall user-space file system overhead
	// (paper: ~32 µs).
	FuseCallCost time.Duration
}

// PaperNode is the calibration for a standard testbed node in §V: dual
// 3.0 GHz Xeon, SCSI disk at 86.2 MB/s sustained write, Gigabit Ethernet.
func PaperNode() Profile {
	return Profile{
		DiskReadBps:  MBps(90),
		DiskWriteBps: MBps(86.2),
		LinkBps:      Gbps(1),
		MemCopyBps:   1.35e9, // calibrated so /stdchk/null writes 1 GB in ~1.04 s (Table 1)
		FuseCallCost: 32 * time.Microsecond,
	}
}

// PaperTenGigClient is the §V.D client: SATA disk, 8 GB RAM, 10 Gbps NIC.
func PaperTenGigClient() Profile {
	p := PaperNode()
	p.LinkBps = Gbps(10)
	p.DiskWriteBps = MBps(60) // commodity SATA of the era
	p.DiskReadBps = MBps(70)
	return p
}

// NFSServerMBps is the calibrated throughput of the dedicated NFS server
// baseline (paper §V.A: 24.8 MB/s).
const NFSServerMBps = 24.8

// Unshaped is a profile with no pacing at all, for unit tests.
func Unshaped() Profile { return Profile{} }

// NewNode materializes a profile into device instances.
func NewNode(p Profile) *Node {
	nic := NewNIC(p.LinkBps)
	nic.Delay = p.LinkDelay
	return &Node{
		Disk: NewDisk(p.DiskReadBps, p.DiskWriteBps),
		NIC:  nic,
		Mem:  NewLimiter(p.MemCopyBps),
		Fuse: NewCallCost(p.FuseCallCost),
	}
}

// Node is the set of device models for one machine.
type Node struct {
	Disk *Disk
	NIC  *NIC
	Mem  *Limiter
	Fuse *CallCost
}
