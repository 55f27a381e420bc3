// Package leakcheck explains a failed goroutine-leak check: a test takes a
// Snapshot with its baseline and, when the goroutine count does not come
// back, prints Report — both snapshots grouped by the function that
// started each goroutine, with counts and one stack per group, then the
// groups whose count changed.
package leakcheck

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
)

// Snapshot is the goroutines alive at one moment, by creating function.
type Snapshot map[string]Group

// Group is one creator's goroutines: how many, and one stack.
type Group struct {
	N     int
	Stack string
}

// Take records every goroutine.
func Take() Snapshot {
	buf := make([]byte, 4<<20)
	s := Snapshot{}
	for _, stack := range strings.Split(strings.TrimSpace(string(buf[:runtime.Stack(buf, true)])), "\n\n") {
		lines := strings.Split(stack, "\n")
		key := lines[max(len(lines)-2, 0)] // the outermost frame, if no function started it
		if _, c, ok := strings.Cut(stack, "\ncreated by "); ok {
			c, _, _ = strings.Cut(c, "\n")
			key, _, _ = strings.Cut("created by "+c, " in goroutine ")
		}
		g := s[key]
		if g.N++; g.N == 1 {
			g.Stack = stack
		}
		s[key] = g
	}
	return s
}

// Report lays out baseline, then now, then the groups whose count differs.
func Report(baseline, now Snapshot) string {
	var b strings.Builder
	for i, s := range []Snapshot{baseline, now} {
		fmt.Fprintf(&b, "%s, by creator:\n", [...]string{"baseline", "now"}[i])
		for _, key := range slices.Sorted(maps.Keys(s)) {
			fmt.Fprintf(&b, "%4d  %s\n      %s\n\n", s[key].N, key, strings.ReplaceAll(s[key].Stack, "\n", "\n      "))
		}
	}
	b.WriteString("difference (now - baseline):\n")
	all := maps.Clone(now)
	maps.Copy(all, baseline)
	for _, key := range slices.Sorted(maps.Keys(all)) {
		if d := now[key].N - baseline[key].N; d != 0 {
			fmt.Fprintf(&b, "%+4d  %s\n", d, key)
		}
	}
	return b.String()
}
