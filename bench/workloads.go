package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/device"
	"stdchk/internal/grid"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
	traces "stdchk/internal/workload"
)

const (
	benefactors = 4
	// linkDelay is lan_64k's modeled one-way latency on the client's NIC —
	// the only device model the benchmark turns on.
	linkDelay = time.Millisecond
)

// sizing fixes a workload's op counts. Counts, not durations: a round
// always leaves the memory-backed stores in the same state, so restore
// speed does not depend on how fast the writes before it happened to be.
type sizing struct {
	images     int   // checkpoints written per round (per client for meta_small)
	imageBytes int64 // logical size of one checkpoint
	warmBytes  int64 // warm-up image written and restored during set-up
	restores   int   // newest versions streamed back after the write phase
	datasets   int   // meta_small: datasets pre-populated during set-up
}

// workload is one named input shape; see README.md for why each exists.
// cfg carries only what the shape needs: the client's transport and cache
// switches (DataMux, UploadWindow, ReadBatch, ReadAhead, MapCacheEntries,
// SharedManagerConns) stay unset, so the numbers are what a user gets from
// the shipped defaults.
type workload struct {
	name    string
	why     string
	clients int
	cfg     client.Config
	link    device.Profile // the client machine's NIC model
	journal bool           // manager journals to disk with group-commit fsync
	blcr    bool           // images are one BLCR trace instead of unrelated images
	full    sizing
	quick   sizing
}

var workloads = []*workload{
	{
		name:    "bulk_1m",
		why:     "Bytes dominate: 64 MB unique images in 1 MB chunks; chunk copies, SHA-1 and store put/get set the speed, metadata is ~4 RPCs per image. Control for per-request and metadata changes.",
		clients: 1,
		cfg: client.Config{
			StripeWidth: benefactors, ChunkSize: 1 << 20, Replication: 1,
			BufferBytes: 16 << 20, // a quarter image: OAB measures back-pressure, not memcpy
		},
		full:  sizing{images: 6, imageBytes: 64 << 20, warmBytes: 16 << 20, restores: 6},
		quick: sizing{images: 2, imageBytes: 4 << 20, warmBytes: 1 << 20, restores: 2},
	},
	{
		name:    "lan_64k",
		why:     "Per-request latency dominates: 8 MB images in 64 KB chunks over a client link with 1 ms one-way delay, CPU idle. Where windowing and batching show; control for CPU-only changes.",
		clients: 1,
		cfg:     client.Config{StripeWidth: benefactors, ChunkSize: 64 << 10, Replication: 1},
		link:    device.Profile{LinkDelay: linkDelay},
		full:    sizing{images: 10, imageBytes: 8 << 20, warmBytes: 1 << 20, restores: 10},
		quick:   sizing{images: 2, imageBytes: 1 << 20, warmBytes: 256 << 10, restores: 2},
	},
	{
		name:    "incr_blcr",
		why:     "Incremental checkpoints of a BLCR trace (25% aligned, 60% shifted), content-based chunking: rolling hash, SHA-1 and dedup probes do the work, few bytes cross the wire; restores read scattered chunks.",
		clients: 1,
		cfg: client.Config{
			StripeWidth: benefactors, Replication: 1,
			Incremental: true, Chunking: client.ChunkCbCH,
		},
		blcr:  true,
		full:  sizing{images: 8, imageBytes: 32 << 20, warmBytes: 4 << 20, restores: 8},
		quick: sizing{images: 3, imageBytes: 2 << 20, warmBytes: 512 << 10, restores: 2},
	},
	{
		name:    "meta_small",
		why:     "Metadata dominates: 2 clients write 64 KB versions (8 x 8 KB chunks) and open latest over 512 datasets, manager journal fsynced; RPC count, header codec, map caches set speed. Control for byte costs.",
		clients: 2,
		cfg:     client.Config{StripeWidth: benefactors, ChunkSize: 8 << 10, Replication: 1},
		journal: true,
		full:    sizing{images: 700, imageBytes: 64 << 10, datasets: 512},
		quick:   sizing{images: 12, imageBytes: 64 << 10, datasets: 16},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) sizing(quick bool) sizing {
	if quick {
		return w.quick
	}
	return w.full
}

// inputs are a run's seed-derived bytes, generated once before any round
// is timed. The program under test sees only these bytes.
type inputs struct {
	size   sizing
	warm   []byte
	images [][]byte
	// pool holds meta_small's base images; a version's content is a pool
	// image stamped with (dataset, version), so every chunk is unique and
	// the expected bytes of any version can be rebuilt for comparison.
	pool [][]byte
	seed int64
}

func (w *workload) generate(seed int64, quick bool) *inputs {
	sz := w.sizing(quick)
	in := &inputs{size: sz, seed: seed}
	switch {
	case w.clients > 1:
		const poolImages = 61
		in.pool = traces.AppLevel(seed, poolImages, sz.imageBytes).Images
	case w.blcr:
		in.images = traces.BLCR5Min(seed, sz.images, sz.imageBytes).Images
	default:
		in.images = traces.AppLevel(seed, sz.images, sz.imageBytes).Images
	}
	if sz.warmBytes > 0 {
		// A different generator seed: the warm-up image must share no
		// chunk with the measured ones, or it would seed the dedup index.
		in.warm = traces.AppLevel(^seed, 1, sz.warmBytes).Images[0]
	}
	return in
}

// ckpt is one checkpoint write as the harness saw it from outside.
type ckpt struct {
	start, created, written, closed, stored time.Time
	blocked                                 time.Duration // sum of time inside Write calls
	bytes, uploaded, deduped                int64
	err                                     error
}

// restore is one read-back, compared byte for byte while it streams.
type restore struct {
	start, opened, firstByte, done time.Time
	bytes, fetched, batched        int64
	chunks                         int
	err                            error
}

// writeImage writes img as checkpoint name in block-sized application
// writes and waits until it is committed.
func writeImage(c *client.Client, name string, img []byte, block int) ckpt {
	k := ckpt{start: time.Now(), bytes: int64(len(img))}
	w, err := c.Create(name)
	k.created = time.Now()
	if err != nil {
		k.err = err
		return k
	}
	for off := 0; off < len(img); off += block {
		end := min(off+block, len(img))
		t := time.Now()
		_, err = w.Write(img[off:end])
		k.blocked += time.Since(t)
		if err != nil {
			break
		}
	}
	k.written = time.Now()
	cerr := w.Close()
	k.closed = time.Now()
	werr := w.Wait()
	k.stored = time.Now()
	if k.err = errors.Join(err, cerr, werr); k.err != nil {
		return k
	}
	m := w.Metrics()
	k.uploaded, k.deduped = m.Uploaded, m.Deduped
	if m.Bytes != k.bytes || m.Uploaded+m.Deduped != m.Bytes {
		k.err = fmt.Errorf("%s: wrote %d bytes, metrics say %d = %d uploaded + %d deduped",
			name, k.bytes, m.Bytes, m.Uploaded, m.Deduped)
	}
	return k
}

// checkUpload fails a checkpoint that skipped bytes although the workload
// has dedup off: there every logical byte must cross the wire.
func (w *workload) checkUpload(k ckpt) ckpt {
	if k.err == nil && !w.cfg.Incremental && k.uploaded != k.bytes {
		k.err = fmt.Errorf("%s: uploaded %d of %d bytes with dedup off", w.name, k.uploaded, k.bytes)
	}
	return k
}

// restoreImage opens name, streams it through buf and compares every byte
// with want(servedName), the image the served version must hold.
func restoreImage(c *client.Client, name string, want func(served string) ([]byte, error), buf []byte, countChunks bool) restore {
	rs := restore{start: time.Now()}
	r, err := c.Open(name)
	rs.opened = time.Now()
	if err != nil {
		rs.err = err
		return rs
	}
	defer r.Close()
	img, err := want(r.Name())
	if err != nil {
		rs.err = err
		return rs
	}
	off := 0
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if rs.firstByte.IsZero() {
				rs.firstByte = time.Now()
			}
			if off+n > len(img) || !bytes.Equal(buf[:n], img[off:off+n]) {
				rs.err = fmt.Errorf("%s: restored bytes differ from the written image at offset %d", r.Name(), off)
				return rs
			}
			off += n
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			rs.err = err
			return rs
		}
	}
	rs.done = time.Now()
	rs.bytes, rs.fetched, rs.batched = int64(off), r.BytesFetched(), r.BytesBatched()
	switch {
	case off != len(img) || r.Size() != int64(len(img)):
		rs.err = fmt.Errorf("%s: restored %d bytes (map says %d) of a %d-byte image", r.Name(), off, r.Size(), len(img))
	case rs.fetched != r.Size():
		rs.err = fmt.Errorf("%s: fetched %d bytes for a %d-byte image", r.Name(), rs.fetched, r.Size())
	}
	if countChunks {
		rs.chunks = len(r.Map().Chunks)
	}
	return rs
}

// round is everything one fresh cluster produced: set-up time, the
// per-operation records of the measured phase and the counters read at its
// edges.
type round struct {
	setup    time.Duration
	ckpts    []ckpt
	restores []restore
	// loop is the wall time ckpt_per_s divides by: the write phase for a
	// single client, the whole write+open loop for meta_small.
	loop     time.Duration
	measured time.Duration // wall time of the whole measured phase
	cpu      time.Duration // process user+sys CPU over the measured phase
	before   proto.ManagerStats
	after    proto.ManagerStats
	cache    proto.MapCacheStats // client chunk-map caches, summed
	linkWait time.Duration       // traced: wall time with a modeled-delay send in progress
	dials    int64               // traced: connections the clients dialed
	mem0     runtime.MemStats    // traced: heap counters at the edges
	mem1     runtime.MemStats
	gorPeak  int
	setupErr error
	// spaceErr is the end-of-round space check, one more attempted
	// operation: without dedup the manager must account exactly as many
	// stored bytes as logical ones.
	spaceErr error
}

func (r *round) failed() int {
	n := 0
	if r.spaceErr != nil {
		n++
	}
	for _, k := range r.ckpts {
		if k.err != nil {
			n++
		}
	}
	for _, rs := range r.restores {
		if rs.err != nil {
			n++
		}
	}
	return n
}

func (r *round) attempted() int { return len(r.ckpts) + len(r.restores) + 1 }

func (r *round) firstErr() error {
	if r.spaceErr != nil {
		return r.spaceErr
	}
	for _, k := range r.ckpts {
		if k.err != nil {
			return k.err
		}
	}
	for _, rs := range r.restores {
		if rs.err != nil {
			return rs.err
		}
	}
	return nil
}

// startCluster brings up one manager and four memory-backed benefactors on
// loopback, every device unshaped, with replication, pruning, GC and
// heartbeat-driven expiry pushed out of the run so no background work
// lands inside a measurement.
func (w *workload) startCluster(dir string, seq int) (*grid.Cluster, error) {
	mcfg := manager.Config{
		HeartbeatInterval:   2 * time.Second,
		ReplicationInterval: time.Hour,
		PruneInterval:       time.Hour,
		SessionTTL:          time.Hour,
	}
	if w.journal {
		// Acknowledged means durable: every commit waits for its group's
		// fsync. The flush policy is part of the workload, identical on
		// both sides of any comparison.
		mcfg.JournalPath = filepath.Join(dir, fmt.Sprintf("journal-%s-%d", w.name, seq))
		mcfg.FsyncJournal = true
	}
	return grid.Start(grid.Options{
		Benefactors:       benefactors,
		BenefactorProfile: device.Unshaped(),
		Manager:           mcfg,
		GCInterval:        time.Hour,
		GCGrace:           time.Hour,
	})
}

// newClient is grid.Cluster.NewClient with one difference: a traced run
// wraps the client's shaper to count dials and modeled link waits from
// outside.
func (w *workload) newClient(c *grid.Cluster, tr *tracer) (*client.Client, error) {
	node := device.NewNode(w.link)
	cfg := w.cfg
	cfg.ManagerAddr = c.Manager.Addr()
	cfg.Shaper = grid.ShaperFor(node, nil)
	if tr != nil {
		cfg.Shaper = tr.link.wrap(cfg.Shaper, w.link.LinkDelay > 0)
	}
	cfg.LocalDisk, cfg.Mem = node.Disk, node.Mem
	return client.New(cfg)
}

// runRound runs one round on a fresh cluster. tr is nil on the untraced
// runs every end-to-end number comes from.
func (w *workload) runRound(in *inputs, dir string, seq int, tr *tracer) *round {
	r := &round{}
	t0 := time.Now()
	cl, err := w.startCluster(dir, seq)
	if err != nil {
		r.setupErr = err
		return r
	}
	defer func() {
		cl.Close()
		runtime.GC() // the next round starts from the same heap
	}()
	clients := make([]*client.Client, w.clients)
	for i := range clients {
		if clients[i], err = w.newClient(cl, tr); err != nil {
			r.setupErr = err
			return r
		}
		defer clients[i].Close()
	}
	var ms *metaState
	if w.clients > 1 {
		ms, err = prepopulate(clients, in)
	} else {
		err = warmUp(clients[0], w, in)
	}
	if err != nil {
		r.setupErr = fmt.Errorf("%s set-up: %w", w.name, err)
		return r
	}
	r.setup = time.Since(t0)

	r.before = cl.Manager.Stats()
	if tr != nil {
		tr.link.reset()
		runtime.ReadMemStats(&r.mem0)
	}
	stopPeak := watchGoroutines(tr, &r.gorPeak)
	cpu0 := cpuTime()
	m0 := time.Now()
	if ms != nil {
		w.metaLoop(clients, in, ms, r, tr != nil)
	} else {
		w.imageLoop(clients[0], in, r, tr != nil)
	}
	r.measured = time.Since(m0)
	r.cpu = cpuTime() - cpu0
	stopPeak()
	if tr != nil {
		runtime.ReadMemStats(&r.mem1)
		r.linkWait, r.dials = tr.link.total(), tr.link.dials.Load()
		tr.record(w.name, r)
	}
	r.after = cl.Manager.Stats()
	stored, logical := r.after.StoredBytes-r.before.StoredBytes, r.after.LogicalBytes-r.before.LogicalBytes
	if !w.cfg.Incremental && stored != logical {
		r.spaceErr = fmt.Errorf("%s: manager stored %d bytes for %d logical bytes without dedup", w.name, stored, logical)
	}
	for _, c := range clients {
		s := c.MapCacheStats()
		r.cache.Hits += s.Hits
		r.cache.Misses += s.Misses
	}
	return r
}

// warmUp writes and restores one throw-away image on the fresh cluster, so
// dials, pool growth and first-use paths are paid in set-up.
func warmUp(c *client.Client, w *workload, in *inputs) error {
	name := w.name + "-warm.n0.t0"
	if k := writeImage(c, name, in.warm, appBlock); k.err != nil {
		return k.err
	}
	rs := restoreImage(c, name, func(string) ([]byte, error) { return in.warm, nil }, make([]byte, appBlock), false)
	return rs.err
}

// appBlock is the size of one application write and of the reused restore
// buffer.
const appBlock = 1 << 20

// imageLoop is the single-client measured phase: write every image as the
// next version of one dataset, then stream the newest versions back.
func (w *workload) imageLoop(c *client.Client, in *inputs, r *round, traced bool) {
	name := func(v int) string { return fmt.Sprintf("%s.n1.t%d", w.name, v) }
	t0 := time.Now()
	for v, img := range in.images {
		r.ckpts = append(r.ckpts, w.checkUpload(writeImage(c, name(v), img, appBlock)))
	}
	r.loop = time.Since(t0)
	buf := make([]byte, appBlock)
	for i := 0; i < in.size.restores; i++ {
		v := len(in.images) - 1 - i
		want := func(string) ([]byte, error) { return in.images[v], nil }
		r.restores = append(r.restores, restoreImage(c, name(v), want, buf, traced))
	}
}

// metaState tracks, per dataset, the newest version known committed.
type metaState struct {
	latest []atomic.Int32
}

func metaName(d, v int) string { return fmt.Sprintf("meta.n%d.t%d", d, v) }

// fillMeta builds version v of dataset d into dst: a pool image with each
// 8 KB chunk stamped, so no two chunks in the run share a hash.
func (in *inputs) fillMeta(dst []byte, d, v int) {
	copy(dst, in.pool[(d*31+v)%len(in.pool)])
	for off := 0; off+16 <= len(dst); off += 8 << 10 {
		binary.BigEndian.PutUint64(dst[off:], uint64(d))
		binary.BigEndian.PutUint64(dst[off+8:], uint64(v))
	}
}

// parseMeta recovers (dataset, version) from a served file name.
func parseMeta(name string) (d, v int, err error) {
	parts := strings.Split(name, ".")
	if len(parts) != 3 || !strings.HasPrefix(parts[1], "n") || !strings.HasPrefix(parts[2], "t") {
		return 0, 0, fmt.Errorf("unexpected file name %q", name)
	}
	if d, err = strconv.Atoi(parts[1][1:]); err != nil {
		return 0, 0, fmt.Errorf("unexpected file name %q", name)
	}
	if v, err = strconv.Atoi(parts[2][1:]); err != nil {
		return 0, 0, fmt.Errorf("unexpected file name %q", name)
	}
	return d, v, nil
}

// prepopulate writes version 0 of every dataset, the clients splitting the
// work. More datasets than the client's 256-entry map cache holds.
func prepopulate(clients []*client.Client, in *inputs) (*metaState, error) {
	ms := &metaState{latest: make([]atomic.Int32, in.size.datasets)}
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			img := make([]byte, in.size.imageBytes)
			for d := ci; d < in.size.datasets; d += len(clients) {
				in.fillMeta(img, d, 0)
				if k := writeImage(c, metaName(d, 0), img, len(img)); k.err != nil {
					errs[ci] = k.err
					return
				}
			}
		}()
	}
	wg.Wait()
	return ms, errors.Join(errs...)
}

// metaLoop is meta_small's measured phase. Each client goroutine writes
// the next version of a dataset it owns (datasets are split by parity, so
// version numbers never race), then opens "latest" of any dataset and
// reads it back. A read may race the other client's commit; it must serve
// a version at least as new as the one committed before the open began.
func (w *workload) metaLoop(clients []*client.Client, in *inputs, ms *metaState, r *round, traced bool) {
	type result struct {
		ckpts    []ckpt
		restores []restore
	}
	results := make([]result, len(clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(in.seed*7919 + int64(ci)))
			img := make([]byte, in.size.imageBytes)
			exp := make([]byte, in.size.imageBytes)
			buf := make([]byte, in.size.imageBytes)
			owned := in.size.datasets / len(clients)
			res := &results[ci]
			for i := 0; i < in.size.images; i++ {
				d := rng.Intn(owned)*len(clients) + ci
				v := int(ms.latest[d].Load()) + 1
				in.fillMeta(img, d, v)
				k := w.checkUpload(writeImage(c, metaName(d, v), img, len(img)))
				if k.err == nil {
					ms.latest[d].Store(int32(v))
				}
				res.ckpts = append(res.ckpts, k)

				rd := rng.Intn(in.size.datasets)
				floor := int(ms.latest[rd].Load())
				want := func(served string) ([]byte, error) {
					sd, sv, err := parseMeta(served)
					if err != nil {
						return nil, err
					}
					if sd != rd || sv < floor {
						return nil, fmt.Errorf("open latest of dataset %d served %s, older than committed version %d", rd, served, floor)
					}
					in.fillMeta(exp, sd, sv)
					return exp, nil
				}
				res.restores = append(res.restores, restoreImage(c, fmt.Sprintf("meta.n%d", rd), want, buf, traced))
			}
		}()
	}
	wg.Wait()
	r.loop = time.Since(t0)
	for _, res := range results {
		r.ckpts = append(r.ckpts, res.ckpts...)
		r.restores = append(r.restores, res.restores...)
	}
}
