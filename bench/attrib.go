package main

import (
	"math"
	"time"
)

// attribute splits the traced rounds' time between the layers, from
// outside: how often each op shape ran (counted from the program's public
// counters and the restored chunk maps) times what one such op costs in
// that layer alone (the probes), over the time the operations took.
//
// The denominator is the operations' busy time: the sum of every
// checkpoint's Create→Wait and every restore's Open→last byte, or the
// process CPU time over the same phase when that is larger. The second
// case is the pipelined, CPU-bound one (bulk_1m, incr_blcr): two cores work
// on one checkpoint at once, so the layers' times add up to the CPU spent,
// not to the wall time, and a share there is a share of CPU cost. On
// latency-bound workloads the first case holds and a share is a share of
// the time the application waited.
//
// share.unattributed is the rest: what the client pipeline, the scheduler,
// the garbage collector and the kernel's socket path cost that no layer's
// public function can be charged with from outside.
func attribute(sc shapeCosts, rounds []*round) map[string]float64 {
	var t struct {
		chunker, hashing, wire, store, benefactor, manager, link time.Duration
	}
	var busy, cpu time.Duration
	perByte := func(secPerByte float64, bytes int64) time.Duration {
		return time.Duration(secPerByte * float64(bytes) * float64(time.Second))
	}
	scale := func(d time.Duration, n float64) time.Duration { return time.Duration(float64(d) * n) }

	for _, r := range rounds {
		ks, rs := r.okCkpts(), r.okRestores()
		var written, uploaded, restored int64
		var restoredChunks int
		for _, k := range ks {
			written += k.bytes
			uploaded += k.uploaded
			busy += k.stored.Sub(k.start)
		}
		for _, x := range rs {
			restored += x.bytes
			restoredChunks += x.chunks
			busy += x.done.Sub(x.start)
		}
		cpu += r.cpu
		chunk := float64(sc.chunkBytes)
		writtenChunks := float64(written) / chunk
		uploadedChunks := float64(uploaded) / chunk
		readChunks := float64(restoredChunks)
		a, b := r.after, r.before
		nCk := float64(len(ks))

		// Every written chunk is hashed by the client, every uploaded one
		// again by store.Put, every restored one by the client's verify.
		t.hashing += scale(sc.sha1, writtenChunks+uploadedChunks+readChunks)
		if sc.cbch {
			t.hashing += perByte(sc.rollPerByte, written)
			t.chunker += perByte(math.Max(0, sc.splitPerByte-sc.rollPerByte), written)
		} else {
			t.chunker += perByte(sc.splitPerByte, written)
		}
		t.wire += scale(sc.wireCall, uploadedChunks+readChunks) +
			scale(sc.rtt, float64(a.Transactions-b.Transactions)) +
			scale(sc.dial, float64(r.dials))
		t.store += scale(max(0, sc.memPut-sc.sha1), uploadedChunks) + scale(sc.memGet, readChunks)
		t.benefactor += scale(max(0, sc.bput-sc.wireCall-sc.memPut), uploadedChunks) +
			scale(max(0, sc.bget-sc.wireCall-sc.memGet), readChunks)
		m := sc.mgr
		t.manager += scale(m.alloc, nCk) +
			scale(m.extend, float64(a.Extends-b.Extends)) +
			scale(m.commit(ratio(writtenChunks, nCk)), nCk) +
			scale(m.has128, float64(a.DedupChunks-b.DedupChunks)/128) +
			scale(m.getMapCold, float64(a.GetMaps-b.GetMaps)) +
			scale(m.statVersion, float64(a.StatVersions-b.StatVersions))
		t.link += r.linkWait
	}

	denom := float64(max(busy, cpu))
	out := map[string]float64{
		"share.chunker":    ratio(float64(t.chunker), denom),
		"share.hashing":    ratio(float64(t.hashing), denom),
		"share.wire":       ratio(float64(t.wire), denom),
		"share.store":      ratio(float64(t.store), denom),
		"share.benefactor": ratio(float64(t.benefactor), denom),
		"share.manager":    ratio(float64(t.manager), denom),
		"share.link_wait":  ratio(float64(t.link), denom),
	}
	rest := 1.0
	for _, v := range out {
		rest -= v
	}
	out["share.unattributed"] = rest
	return out
}
