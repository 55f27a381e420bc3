package leakcheck

import (
	"strings"
	"testing"
	"time"
)

func parked(stop chan struct{}) { <-stop }

// TestReportNamesTheGrownGroup starts three goroutines between two
// snapshots: the report must count them under their creator in the
// difference, and list both sides.
func TestReportNamesTheGrownGroup(t *testing.T) {
	const key = "created by stdchk/internal/leakcheck.TestReportNamesTheGrownGroup"
	base := Take()
	stop := make(chan struct{})
	defer func() {
		// Wait the goroutines out, so a rerun's baseline does not hold them.
		close(stop)
		for Take()[key].N != 0 {
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 3; i++ {
		go parked(stop)
	}
	now := Take()
	for deadline := time.Now().Add(5 * time.Second); now[key].N < 3 || !strings.Contains(now[key].Stack, "parked"); now = Take() {
		if time.Now().After(deadline) {
			t.Fatalf("the goroutines never parked:\n%s", Report(base, now))
		}
		time.Sleep(time.Millisecond)
	}
	r := Report(base, now)
	for _, want := range []string{
		"baseline, by creator:\n",
		"now, by creator:\n",
		"   3  " + key + "\n",
		"leakcheck.parked(",
		"difference (now - baseline):\n  +3  " + key + "\n",
	} {
		if !strings.Contains(r, want) {
			t.Fatalf("report lacks %q:\n%s", want, r)
		}
	}
}
