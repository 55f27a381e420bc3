package metrics

import "testing"

func TestCountersSnapshot(t *testing.T) {
	var c Counters
	hits := c.Sum("hits")
	peak := c.Max("peak")
	size := 7
	c.SumFunc("size", func() int64 { return int64(size) })
	c.MaxFunc("bound", func() int64 { return 64 })

	s := c.Snapshot()
	want := map[string]Counter{"hits": {}, "peak": {Max: true}, "size": {Value: 7}, "bound": {Value: 64, Max: true}}
	if len(s) != len(want) {
		t.Fatalf("snapshot %v, want %v", s, want)
	}
	for name, w := range want {
		if s[name] != w {
			t.Fatalf("%s = %+v, want %+v", name, s[name], w)
		}
	}

	hits.Add(3)
	peak.Store(5)
	size = 9
	s = c.Snapshot()
	if s["hits"].Value != 3 || s["peak"].Value != 5 || s["size"].Value != 9 {
		t.Fatalf("snapshot after updates: %v", s)
	}
}

func TestCountersDeclareTwicePanics(t *testing.T) {
	var c Counters
	c.Sum("x")
	defer func() {
		if recover() == nil {
			t.Fatal("second declaration of x did not panic")
		}
	}()
	c.MaxFunc("x", func() int64 { return 0 })
}

// TestCounterMerge: summed readings add, maxed readings take the larger,
// and the zero Counter (a merge's starting point) changes neither.
func TestCounterMerge(t *testing.T) {
	for _, tc := range []struct{ a, b, want Counter }{
		{Counter{Value: 3}, Counter{Value: 4}, Counter{Value: 7}},
		{Counter{Value: 3, Max: true}, Counter{Value: 4, Max: true}, Counter{Value: 4, Max: true}},
		{Counter{Value: 9, Max: true}, Counter{Value: 4, Max: true}, Counter{Value: 9, Max: true}},
		{Counter{}, Counter{Value: 4}, Counter{Value: 4}},
		{Counter{}, Counter{Value: 4, Max: true}, Counter{Value: 4, Max: true}},
	} {
		if got := tc.a.Merge(tc.b); got != tc.want {
			t.Fatalf("%+v.Merge(%+v) = %+v, want %+v", tc.a, tc.b, got, tc.want)
		}
	}
}
