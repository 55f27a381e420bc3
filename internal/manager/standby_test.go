package manager

import (
	"net"
	"sync"
	"testing"
	"time"
)

// TestStandbyTakesOverFromStalledPrimary: a primary that accepts the
// standby's connections and then never answers — a suspended desktop —
// fails each probe once ProbeInterval has passed, so the standby takes
// over within (FailAfter+1)·ProbeInterval: the first probe starts one
// interval in, and each of FailAfter probes runs out its interval.
func TestStandbyTakesOverFromStalledPrimary(t *testing.T) {
	const (
		interval  = 50 * time.Millisecond
		failAfter = 2
		// slack covers starting the replacement manager and scheduling
		// under -race on shared cores.
		slack = time.Second
		bound = (failAfter+1)*interval + slack
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c) // held open, never read or written
			mu.Unlock()
		}
	}()

	start := time.Now()
	s, err := NewStandby(StandbyConfig{
		PrimaryAddr:   ln.Addr().String(),
		ListenAddr:    "127.0.0.1:0",
		ProbeInterval: interval,
		FailAfter:     failAfter,
		Manager:       Config{HeartbeatInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer func() { // before s.Close: a probe parked on a held conn returns
		ln.Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	}()

	for !s.TookOver() {
		if time.Since(start) > bound {
			t.Fatalf("no takeover %v after a stalled primary (bound %v)", time.Since(start), bound)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("took over after %v", time.Since(start))
}
