package main

import (
	"time"

	"stdchk/internal/metrics"
	"stdchk/internal/proto"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names with the direction and, for end-to-end metrics, the bound;
// bench_test.go holds the two lists together.
type metricDef struct {
	name, unit string
}

// endToEndDefs are the numbers a checkpointing application feels. Every
// workload reports every one of them, from the untraced run.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"write_oab_mbps", "MB/s"},
	{"write_asb_mbps", "MB/s"},
	{"restore_mbps", "MB/s"},
	{"ckpt_per_s", "1/s"},
	{"ckpt_p50_ms", "ms"},
	{"open_p50_ms", "ms"},
	{"uploaded_per_logical", "ratio"},
	{"stored_per_logical", "ratio"},
	{"verified_ops_ratio", "ratio"},
}

// perLayerDefs are the traced run's numbers, one group per module.
var perLayerDefs = []metricDef{
	{"chunker.cbch_split_mbps", "MB/s"},
	{"chunker.cbch_mean_chunk_kb", "KB"},
	{"chunker.cbch_chunks_per_image", "count"},
	{"chunker.fsch_split_ns_per_mb", "ns/MB"},

	{"hashing.sha1_1m_mbps", "MB/s"},
	{"hashing.sha1_8k_mbps", "MB/s"},
	{"hashing.rolling_mbps", "MB/s"},

	{"wire.frame_1m_us", "us"},
	{"wire.frame_1m_allocs", "count"},
	{"wire.frame_hdr_us", "us"},
	{"wire.frame_hdr_allocs", "count"},
	{"wire.dial_us", "us"},
	{"wire.call_rtt_us", "us"},
	{"wire.mux_call_rtt_us", "us"},
	{"wire.call_64k_us", "us"},
	{"wire.mux_calls_per_s_w8", "1/s"},

	{"store.mem_put_1m_us", "us"},
	{"store.mem_getinto_1m_us", "us"},
	{"store.disk_put_1m_us", "us"},
	{"store.disk_getinto_1m_us", "us"},
	{"store.disk_put_64k_us", "us"},
	{"store.disk_getinto_64k_us", "us"},

	{"benefactor.bput_1m_us", "us"},
	{"benefactor.bget_1m_us", "us"},
	{"benefactor.bput_64k_us", "us"},
	{"benefactor.bget_64k_us", "us"},
	{"benefactor.bgetbatch16_64k_us", "us"},
	{"benefactor.bput_w8_64k_mbps", "MB/s"},
	{"benefactor.bhas_us", "us"},

	{"manager.alloc_us", "us"},
	{"manager.extend_us", "us"},
	{"manager.commit_8_us", "us"},
	{"manager.commit_64_us", "us"},
	{"manager.getmap_cold_us", "us"},
	{"manager.getmap_hot_us", "us"},
	{"manager.statversion_us", "us"},
	{"manager.haschunks_128_us", "us"},
	{"manager.alloc_srv_p50_us", "us"},
	{"manager.commit_srv_p50_us", "us"},
	{"manager.journal_entries_per_fsync", "ratio"},
	{"manager.stripe_contention_ratio", "ratio"},
	{"manager.mapcache_hit_ratio", "ratio"},
	{"manager.dedup_hit_ratio", "ratio"},
	{"manager.rpcs_per_ckpt", "count"},

	{"federation.route_statversion_us", "us"},
	{"federation.route_overhead_us", "us"},

	{"client.create_us", "us"},
	{"client.write_blocked_ms", "ms"},
	{"client.close_ms", "ms"},
	{"client.wait_ms", "ms"},
	{"client.open_us", "us"},
	{"client.first_byte_us", "us"},
	{"client.read_ms", "ms"},
	{"client.chunks_per_mb", "1/MB"},
	{"client.dedup_bytes_ratio", "ratio"},
	{"client.bytes_batched_ratio", "ratio"},
	{"client.mapcache_hit_ratio", "ratio"},
	{"client.dials_per_ckpt", "count"},
	{"client.ckpt_tail_ms", "ms"},
	{"client.ckpt_tail_pct", "%"},
	{"client.ckpt_samples", "count"},
	{"client.open_tail_ms", "ms"},
	{"client.open_tail_pct", "%"},
	{"client.open_samples", "count"},

	{"runtime.cpu_s_per_gb", "s/GB"},
	{"runtime.allocs_per_mb", "1/MB"},
	{"runtime.alloc_bytes_per_mb", "B/MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_rss_mb", "MB"},
	{"runtime.goroutines_peak", "count"},

	{"share.chunker", "ratio"},
	{"share.hashing", "ratio"},
	{"share.wire", "ratio"},
	{"share.store", "ratio"},
	{"share.benefactor", "ratio"},
	{"share.manager", "ratio"},
	{"share.link_wait", "ratio"},
	{"share.unattributed", "ratio"},

	{"trace.overhead_pct", "%"},
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// okCkpts and okRestores drop failed operations: they count against
// verified_ops_ratio, not into any timing.
func (r *round) okCkpts() []ckpt {
	out := make([]ckpt, 0, len(r.ckpts))
	for _, k := range r.ckpts {
		if k.err == nil {
			out = append(out, k)
		}
	}
	return out
}

func (r *round) okRestores() []restore {
	out := make([]restore, 0, len(r.restores))
	for _, rs := range r.restores {
		if rs.err == nil {
			out = append(out, rs)
		}
	}
	return out
}

// values maps every operation record to one number.
func values[T any](ops []T, f func(T) float64) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = f(op)
	}
	return out
}

// endToEnd is the round's value of every end-to-end metric.
func (r *round) endToEnd() map[string]float64 {
	ks, rs := r.okCkpts(), r.okRestores()
	var uploaded, logical int64
	for _, k := range ks {
		uploaded += k.uploaded
		logical += k.bytes
	}
	return map[string]float64{
		"setup_s": r.setup.Seconds(),
		"write_oab_mbps": median(values(ks, func(k ckpt) float64 {
			return metrics.MBps(k.bytes, k.closed.Sub(k.start))
		})),
		"write_asb_mbps": median(values(ks, func(k ckpt) float64 {
			return metrics.MBps(k.bytes, k.stored.Sub(k.start))
		})),
		"restore_mbps": median(values(rs, func(x restore) float64 {
			return metrics.MBps(x.bytes, x.done.Sub(x.start))
		})),
		"ckpt_per_s": ratio(float64(len(ks)), r.loop.Seconds()),
		"ckpt_p50_ms": median(values(ks, func(k ckpt) float64 {
			return ms(k.stored.Sub(k.start))
		})),
		"open_p50_ms": median(values(rs, func(x restore) float64 {
			return ms(x.done.Sub(x.start))
		})),
		"uploaded_per_logical": ratio(float64(uploaded), float64(logical)),
		"stored_per_logical": ratio(
			float64(r.after.StoredBytes-r.before.StoredBytes),
			float64(r.after.LogicalBytes-r.before.LogicalBytes)),
		"verified_ops_ratio": ratio(float64(r.attempted()-r.failed()), float64(r.attempted())),
	}
}

// summarizeRounds folds per-round values into one summary per metric.
func summarizeRounds(defs []metricDef, perRound []map[string]float64, samples int) map[string]summary {
	out := make(map[string]summary, len(defs))
	for _, d := range defs {
		vals := make([]float64, 0, len(perRound))
		for _, m := range perRound {
			if v, ok := m[d.name]; ok {
				vals = append(vals, v)
			}
		}
		out[d.name] = summarize(d.unit, vals, samples)
	}
	return out
}

// clientLayer is the traced round's view of the client facade and of the
// counters the program publishes: where a checkpoint's and a restore's
// time went between the calls an application makes.
func (r *round) clientLayer() map[string]float64 {
	ks, rs := r.okCkpts(), r.okRestores()
	var deduped, logical, fetched, batched, restored int64
	var chunks int
	for _, k := range ks {
		deduped += k.deduped
		logical += k.bytes
	}
	for _, x := range rs {
		fetched += x.fetched
		batched += x.batched
		restored += x.bytes
		chunks += x.chunks
	}
	a, b := r.after, r.before
	mb := float64(logical+restored) / 1e6
	return map[string]float64{
		"client.create_us":           median(values(ks, func(k ckpt) float64 { return us(k.created.Sub(k.start)) })),
		"client.write_blocked_ms":    median(values(ks, func(k ckpt) float64 { return ms(k.blocked) })),
		"client.close_ms":            median(values(ks, func(k ckpt) float64 { return ms(k.closed.Sub(k.written)) })),
		"client.wait_ms":             median(values(ks, func(k ckpt) float64 { return ms(k.stored.Sub(k.closed)) })),
		"client.open_us":             median(values(rs, func(x restore) float64 { return us(x.opened.Sub(x.start)) })),
		"client.first_byte_us":       median(values(rs, func(x restore) float64 { return us(x.firstByte.Sub(x.opened)) })),
		"client.read_ms":             median(values(rs, func(x restore) float64 { return ms(x.done.Sub(x.opened)) })),
		"client.chunks_per_mb":       ratio(float64(chunks), float64(restored)/1e6),
		"client.dedup_bytes_ratio":   ratio(float64(deduped), float64(logical)),
		"client.bytes_batched_ratio": ratio(float64(batched), float64(fetched)),
		"client.mapcache_hit_ratio":  ratio(float64(r.cache.Hits), float64(r.cache.Hits+r.cache.Misses)),
		"client.dials_per_ckpt":      ratio(float64(r.dials), float64(len(ks))),

		"manager.alloc_srv_p50_us":          histogramP50(r.after.AllocLatency),
		"manager.commit_srv_p50_us":         histogramP50(r.after.CommitLatency),
		"manager.journal_entries_per_fsync": ratio(float64(a.JournalBatchLen-b.JournalBatchLen), float64(a.JournalFsyncs-b.JournalFsyncs)),
		"manager.stripe_contention_ratio":   ratio(float64(a.StripeContention-b.StripeContention), float64(a.StripeOps-b.StripeOps)),
		"manager.mapcache_hit_ratio":        ratio(float64(a.MapCache.Hits-b.MapCache.Hits), float64(a.MapCache.Hits-b.MapCache.Hits+a.MapCache.Misses-b.MapCache.Misses)),
		"manager.dedup_hit_ratio":           ratio(float64(a.DedupHits-b.DedupHits), float64(a.DedupChunks-b.DedupChunks)),
		"manager.rpcs_per_ckpt":             ratio(float64(a.Transactions-b.Transactions), float64(len(ks))),

		"runtime.cpu_s_per_gb":       ratio(r.cpu.Seconds(), mb/1e3),
		"runtime.allocs_per_mb":      ratio(float64(r.mem1.Mallocs-r.mem0.Mallocs), mb),
		"runtime.alloc_bytes_per_mb": ratio(float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc), mb),
		"runtime.gc_pause_ms":        float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs) / 1e6,
		"runtime.goroutines_peak":    float64(r.gorPeak),
	}
}

// histogramP50 is the median of one of the manager's server-side latency
// histograms, in microseconds.
func histogramP50(h proto.LatencyStats) float64 {
	return us(metrics.Percentile(h.Buckets, 0.5))
}
