package manager

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"stdchk/internal/proto"
	"stdchk/internal/wire"
)

// Standby implements the paper's "hot-standby manager as a failover"
// option (§IV.A): it probes the primary manager and, after a configurable
// number of missed probes, starts a replacement manager in recovery mode
// so benefactor-held chunk-map replicas (or a shared journal) restore the
// metadata.
//
// The standby takes over on ListenAddr, which is where clients and
// benefactors should (re)connect — in a deployment this is a virtual IP or
// DNS name pointing at whichever manager is active.
type Standby struct {
	cfg StandbyConfig

	mu      sync.Mutex
	mgr     *Manager
	stopped bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// StandbyConfig parameterizes a Standby.
type StandbyConfig struct {
	// PrimaryAddr is the manager to watch.
	PrimaryAddr string
	// ListenAddr is where the replacement manager serves after takeover.
	ListenAddr string
	// ProbeInterval is the liveness probe period (default 1s).
	ProbeInterval time.Duration
	// FailAfter is the number of consecutive failed probes that trigger
	// takeover (default 3).
	FailAfter int
	// Manager configures the replacement (Recover is forced on unless a
	// JournalPath is set, in which case the journal restores state and
	// quorum recovery fills gaps).
	Manager Config
	// Logger receives takeover events.
	Logger *log.Logger
}

// NewStandby starts watching the primary.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.PrimaryAddr == "" {
		return nil, fmt.Errorf("standby: PrimaryAddr is required")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	s := &Standby{cfg: cfg, stop: make(chan struct{})}
	s.wg.Add(1)
	go s.watch()
	return s, nil
}

// Manager returns the replacement manager after takeover (nil before).
func (s *Standby) Manager() *Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mgr
}

// TookOver reports whether the standby has activated.
func (s *Standby) TookOver() bool { return s.Manager() != nil }

// Close stops the watcher and any replacement manager it started.
func (s *Standby) Close() error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	if m := s.Manager(); m != nil {
		return m.Close()
	}
	return nil
}

func (s *Standby) logf(format string, args ...interface{}) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf("standby: "+format, args...)
	}
}

func (s *Standby) watch() {
	defer s.wg.Done()
	failures := 0
	ticker := time.NewTicker(s.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		if s.probe() {
			failures = 0
			continue
		}
		failures++
		s.logf("probe %d/%d failed", failures, s.cfg.FailAfter)
		if failures < s.cfg.FailAfter {
			continue
		}
		s.takeover()
		return
	}
}

// probe checks primary liveness with one MStats request. The whole probe,
// dial included, is bounded by ProbeInterval: a primary that accepts the
// connection and then stalls fails the probe like one that refuses it.
func (s *Standby) probe() bool {
	deadline := time.Now().Add(s.cfg.ProbeInterval)
	conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", s.cfg.PrimaryAddr)
	if err != nil {
		return false
	}
	defer conn.Close()
	// Tagged, like every other stdchk call: only the bench module and
	// tests send untagged frames.
	if conn.SetDeadline(deadline) != nil || wire.Write(conn, &wire.Msg{Op: proto.MStats, Session: 1}) != nil {
		return false
	}
	resp, err := wire.Read(conn)
	return err == nil && resp.Err == ""
}

// takeover starts the replacement manager.
func (s *Standby) takeover() {
	cfg := s.cfg.Manager
	cfg.ListenAddr = s.cfg.ListenAddr
	if cfg.JournalPath == "" {
		cfg.Recover = true
	}
	if cfg.Logger == nil {
		cfg.Logger = s.cfg.Logger
	}
	// The primary's address may need releasing (same-host failover);
	// retry briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := New(cfg)
		if err == nil {
			s.logf("took over on %s (recover=%v)", m.Addr(), cfg.Recover)
			s.mu.Lock()
			s.mgr = m
			s.mu.Unlock()
			return
		}
		if time.Now().After(deadline) {
			s.logf("takeover failed: %v", err)
			return
		}
		select {
		case <-s.stop:
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
}
