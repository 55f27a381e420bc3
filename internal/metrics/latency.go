package metrics

import (
	"math/bits"
	"slices"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the number of log2-spaced microsecond buckets a
// LatencyHistogram carries: bucket i counts observations in
// [2^i, 2^(i+1)) µs, so 40 buckets span sub-microsecond to ~12 days —
// every latency this system can produce.
const LatencyBuckets = 40

// LatencyHistogram is a lock-free log2 latency histogram. Observe is
// wait-free (three atomic adds), so it can sit on the manager's request
// path and inside an open-loop load generator without perturbing the
// latencies it measures. The zero value is ready to use.
type LatencyHistogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // microseconds
	buckets [LatencyBuckets]atomic.Int64
}

// latencyBucket maps a duration to its log2-µs bucket index.
func latencyBucket(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := bits.Len64(uint64(us)) - 1
	if b >= LatencyBuckets {
		b = LatencyBuckets - 1
	}
	return b
}

// Observe records one latency sample.
func (h *LatencyHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(d.Microseconds())
	h.buckets[latencyBucket(d)].Add(1)
}

// LatencyStats is the wire form of a latency histogram: log2-spaced
// microsecond buckets (bucket i counts observations in [2^i, 2^(i+1))
// µs) plus count and sum for the mean. Percentiles are derived
// client-side; merging across federation members is element-wise
// addition.
type LatencyStats struct {
	Count     int64   `json:"count"`
	SumMicros int64   `json:"sumMicros"`
	Buckets   []int64 `json:"buckets,omitempty"`
}

// Merge returns the sum of s and o, sharing no buckets with either — the
// federation-side combiner.
func (s LatencyStats) Merge(o LatencyStats) LatencyStats {
	s.Count += o.Count
	s.SumMicros += o.SumMicros
	s.Buckets = MergeBuckets(slices.Clone(s.Buckets), o.Buckets)
	return s
}

// Snapshot returns the histogram's current counters in wire form;
// trailing empty buckets are trimmed.
func (h *LatencyHistogram) Snapshot() LatencyStats {
	s := LatencyStats{Count: h.count.Load(), SumMicros: h.sum.Load()}
	last := -1
	var full [LatencyBuckets]int64
	for i := range h.buckets {
		full[i] = h.buckets[i].Load()
		if full[i] > 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]int64(nil), full[:last+1]...)
	}
	return s
}

// OpStats is what a daemon's op table records for one op: how many
// requests it dispatched, how many of those failed, and their service
// times (Latency.Count equals Count).
type OpStats struct {
	Count   int64        `json:"count"`
	Errors  int64        `json:"errors,omitempty"`
	Latency LatencyStats `json:"latency"`
}

// Merge returns the sum of s and o — the federation-side combiner.
func (s OpStats) Merge(o OpStats) OpStats {
	return OpStats{Count: s.Count + o.Count, Errors: s.Errors + o.Errors, Latency: s.Latency.Merge(o.Latency)}
}

// Percentile returns the q-quantile (0 < q ≤ 1) latency from log2-µs
// buckets, interpolating linearly within the winning bucket. It is the
// decode half of Snapshot: use it on LatencyStats that crossed the wire
// or were merged across federation members.
func Percentile(buckets []int64, q float64) time.Duration {
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		if seen+c > rank {
			lo := int64(1) << uint(i) // bucket lower bound, µs
			hi := lo << 1
			frac := float64(rank-seen) / float64(c)
			us := float64(lo) + frac*float64(hi-lo)
			return time.Duration(us * float64(time.Microsecond))
		}
		seen += c
	}
	return 0
}

// MergeBuckets adds src element-wise into dst, growing dst as needed —
// the federation-side combiner for per-member LatencyStats.
func MergeBuckets(dst, src []int64) []int64 {
	if len(src) > len(dst) {
		grown := make([]int64, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, c := range src {
		dst[i] += c
	}
	return dst
}
