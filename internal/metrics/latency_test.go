package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestLatencyHistogramPercentiles(t *testing.T) {
	var h LatencyHistogram
	// 90 fast samples (~100µs) and 10 slow (~100ms): p50 must sit near
	// the fast mode, p99 near the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	count, sum, buckets := s.Count, s.SumMicros, s.Buckets
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
	if sum <= 0 {
		t.Fatalf("sum = %d", sum)
	}
	p50 := Percentile(buckets, 0.50)
	p99 := Percentile(buckets, 0.99)
	if p50 < 50*time.Microsecond || p50 > 300*time.Microsecond {
		t.Fatalf("p50 = %v, want ~100µs", p50)
	}
	if p99 < 50*time.Millisecond || p99 > 300*time.Millisecond {
		t.Fatalf("p99 = %v, want ~100ms", p99)
	}
	if p999 := Percentile(buckets, 0.999); p999 < p99 {
		t.Fatalf("p999 %v < p99 %v", p999, p99)
	}
}

func TestLatencyHistogramConcurrent(t *testing.T) {
	var h LatencyHistogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	count, buckets := s.Count, s.Buckets
	if count != 8000 {
		t.Fatalf("count = %d", count)
	}
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total != 8000 {
		t.Fatalf("bucket total = %d", total)
	}
}

func TestMergeBuckets(t *testing.T) {
	a := []int64{1, 2}
	b := []int64{0, 1, 5}
	m := MergeBuckets(a, b)
	want := []int64{1, 3, 5}
	if len(m) != len(want) {
		t.Fatalf("len = %d", len(m))
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("m[%d] = %d, want %d", i, m[i], want[i])
		}
	}
	if Percentile(nil, 0.99) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}
