package client

import (
	"strings"
	"testing"
	"time"

	"stdchk/internal/core"
)

func TestProtocolString(t *testing.T) {
	tests := []struct {
		p    Protocol
		want string
	}{
		{SlidingWindow, "sliding-window"},
		{IncrementalWrite, "incremental"},
		{CompleteLocalWrite, "complete-local"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
	if !strings.Contains(Protocol(99).String(), "99") {
		t.Error("unknown protocol String() should embed the value")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Protocol != SlidingWindow {
		t.Errorf("default protocol = %v", cfg.Protocol)
	}
	if cfg.Semantics != core.WriteOptimistic {
		t.Errorf("default semantics = %v", cfg.Semantics)
	}
	if cfg.BufferBytes <= 0 || cfg.TempFileBytes <= 0 || cfg.ReserveQuantum <= 0 {
		t.Error("default staging sizes not set")
	}
	// The prefetch window is a byte budget: 4 MB by default, an explicit
	// value kept as set.
	if cfg.ReadAheadBytes != 4<<20 {
		t.Errorf("default read window = %d bytes, want 4 MB", cfg.ReadAheadBytes)
	}
	if got := (Config{ReadAheadBytes: 32 << 10}).withDefaults().ReadAheadBytes; got != 32<<10 {
		t.Errorf("explicit ReadAheadBytes overridden: %d bytes", got)
	}
}

func TestNewRequiresManagerAddr(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted empty ManagerAddr")
	}
}

func TestWriteMetricsBandwidths(t *testing.T) {
	m := WriteMetrics{
		Bytes:        10e6,
		OpenToClose:  time.Second,
		OpenToStored: 2 * time.Second,
	}
	if got := m.OABMBps(); got != 10 {
		t.Errorf("OAB = %v, want 10", got)
	}
	if got := m.ASBMBps(); got != 5 {
		t.Errorf("ASB = %v, want 5", got)
	}
	var zero WriteMetrics
	if zero.OABMBps() != 0 || zero.ASBMBps() != 0 {
		t.Error("zero metrics should report zero bandwidth")
	}
}

func TestCreateFailsWithoutManager(t *testing.T) {
	cl, err := New(Config{ManagerAddr: "127.0.0.1:1"}) // nothing listens
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Create("x.n1.t0"); err == nil {
		t.Fatal("Create succeeded with no manager")
	}
	if _, err := cl.Open("x.n1.t0"); err == nil {
		t.Fatal("Open succeeded with no manager")
	}
	if _, err := cl.List(""); err == nil {
		t.Fatal("List succeeded with no manager")
	}
}

func TestSetPolicyValidatesLocally(t *testing.T) {
	cl, err := New(Config{ManagerAddr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Invalid policy must fail before any network I/O.
	if err := cl.SetPolicy("f", core.Policy{Kind: core.PolicyPurge}); err == nil {
		t.Fatal("invalid policy accepted")
	}
}
