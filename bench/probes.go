package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/chunker"
	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/grid"
	"stdchk/internal/hashing"
	"stdchk/internal/manager"
	"stdchk/internal/metrics"
	"stdchk/internal/proto"
	"stdchk/internal/store"
	"stdchk/internal/wire"
	traces "stdchk/internal/workload"
)

// prober times calls into each layer's public functions from outside, with
// the op shapes the workloads produce. Every call is a span: one root per
// probe, one child per call.
type prober struct {
	tr    *tracer
	quick bool
	dir   string
	rng   *rand.Rand
	out   map[string]float64
	err   error // first set-up failure; a probe that cannot run fails the traced run
}

// n scales a probe's call count: full for a steady median, a handful in
// -quick mode where only the plumbing is under test.
func (p *prober) n(full int) int {
	if p.quick {
		return max(3, full/16)
	}
	return full
}

func (p *prober) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// bytes returns n fresh incompressible bytes.
func (p *prober) bytes(n int) []byte {
	b := make([]byte, n)
	p.rng.Read(b)
	return b
}

// timeCalls runs f n times and returns the median call duration. prep,
// when non-nil, runs before each call outside the timed interval.
func (p *prober) timeCalls(layer, name string, n int, prep func(i int), f func(i int) error) time.Duration {
	if p.err != nil {
		return 0
	}
	durs := make([]float64, 0, n)
	rootStart := time.Now()
	type call struct{ start, end time.Time }
	calls := make([]call, 0, n)
	for i := 0; i < n; i++ {
		if prep != nil {
			prep(i)
		}
		t0 := time.Now()
		err := f(i)
		t1 := time.Now()
		if err != nil {
			p.fail(fmt.Errorf("probe %s: %w", name, err))
			return 0
		}
		calls = append(calls, call{t0, t1})
		durs = append(durs, float64(t1.Sub(t0)))
	}
	root := p.tr.add(0, 0, layer, name, rootStart, time.Now())
	for _, c := range calls {
		p.tr.add(root, root, layer, name+".call", c.start, c.end)
	}
	return time.Duration(median(durs))
}

// Probe results land here so the compiler cannot drop the measured calls.
var (
	sinkID   core.ChunkID
	sinkHash uint64
)

// caller is what wire.Conn and wire.MuxConn have in common.
type caller interface {
	Call(op string, reqMeta interface{}, reqBody []byte, respMeta interface{}) ([]byte, error)
}

// mallocs counts heap allocations per call of f over n calls.
func mallocs(n int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// distinct stamps a counter into data so every call stores a new chunk,
// and returns the chunk's content address.
func distinct(data []byte, i int) core.ChunkID {
	binary.BigEndian.PutUint64(data, uint64(i)+1)
	return core.HashChunk(data)
}

// shapeCosts are the per-operation self-time inputs of the attribution,
// measured at the traced workload's own chunk size and journal policy.
type shapeCosts struct {
	chunkBytes   int64
	cbch         bool
	sha1         time.Duration // core.HashChunk of one chunk
	wireCall     time.Duration // one RPC carrying a chunk body against a no-op wire.Server
	rtt          time.Duration // one header-only RPC against the same server
	dial         time.Duration // wire.Dial plus Close against the same server
	memPut       time.Duration // store.Memory.Put of one chunk (includes its SHA-1)
	memGet       time.Duration // store.Memory.GetInto of one chunk
	bput, bget   time.Duration // the same chunk through a real benefactor
	rollPerByte  float64       // seconds of hashing.Rolling per byte
	splitPerByte float64       // seconds of the workload's chunker per byte (includes rolling for CbCH)
	mgr          managerCosts
}

// managerCosts are handler times through manager.Manager.Invoke.
type managerCosts struct {
	alloc, extend, statVersion, getMapCold, getMapHot, has128 time.Duration
	commitA, commitB                                          time.Duration // commits of chunksA and chunksB chunks
	chunksA, chunksB                                          int
}

// commit interpolates the commit handler's time for n chunks.
func (m managerCosts) commit(n float64) time.Duration {
	perChunk := float64(m.commitB-m.commitA) / float64(m.chunksB-m.chunksA)
	return time.Duration(math.Max(0, float64(m.commitA)+perChunk*(n-float64(m.chunksA))))
}

// runProbes fills every fixed-shape per-layer metric and returns the costs
// at w's own shape for the attribution.
func runProbes(tr *tracer, w *workload, in *inputs, seed int64, quick bool, dir string) (map[string]float64, shapeCosts, error) {
	p := &prober{
		tr: tr, quick: quick, dir: dir,
		rng: rand.New(rand.NewSource(seed ^ 0x5eed)),
		out: make(map[string]float64),
	}
	sc := shapeCosts{chunkBytes: w.cfg.ChunkSize, cbch: w.cfg.Chunking == client.ChunkCbCH}

	p.chunkerAndHashing(w, in, &sc)
	p.wire(&sc)
	p.store(&sc)
	p.benefactor(&sc)
	named := p.manager(true, 8, 64)
	p.out["manager.alloc_us"] = us(named.alloc)
	p.out["manager.extend_us"] = us(named.extend)
	p.out["manager.commit_8_us"] = us(named.commitA)
	p.out["manager.commit_64_us"] = us(named.commitB)
	p.out["manager.getmap_cold_us"] = us(named.getMapCold)
	p.out["manager.getmap_hot_us"] = us(named.getMapHot)
	p.out["manager.statversion_us"] = us(named.statVersion)
	p.out["manager.haschunks_128_us"] = us(named.has128)
	sc.mgr = named
	if !w.journal {
		sc.mgr = p.manager(false, 8, 64)
	}
	p.federation()
	return p.out, sc, p.err
}

func (p *prober) chunkerAndHashing(w *workload, in *inputs, sc *shapeCosts) {
	// The CbCH probe splits the kind of image incr_blcr writes.
	size := int64(32 << 20)
	if p.quick {
		size = 2 << 20
	}
	img := traces.BLCR5Min(p.rng.Int63(), 1, size).Images[0]
	var spans []chunker.Span
	params := chunker.StreamParams{}
	d := p.timeCalls("chunker", "chunker.cbch_split", p.n(3), nil, func(int) error {
		spans = params.Split(img)
		return chunker.Validate(spans, int64(len(img)))
	})
	p.out["chunker.cbch_split_mbps"] = metrics.MBps(int64(len(img)), d)
	p.out["chunker.cbch_chunks_per_image"] = float64(len(spans))
	p.out["chunker.cbch_mean_chunk_kb"] = ratio(float64(len(img))/1024, float64(len(spans)))
	cbchPerByte := d.Seconds() / float64(len(img))

	fixed := chunker.Fixed{Size: 1 << 20}
	d = p.timeCalls("chunker", "chunker.fsch_split", p.n(48), nil, func(int) error {
		spans = fixed.Split(img)
		return nil
	})
	p.out["chunker.fsch_split_ns_per_mb"] = float64(d.Nanoseconds()) / (float64(len(img)) / 1e6)
	sc.splitPerByte = d.Seconds() / float64(len(img))

	buf := p.bytes(1 << 20)
	sha := func(name string, b []byte, n int) time.Duration {
		return p.timeCalls("hashing", name, n, nil, func(int) error {
			sinkID = core.HashChunk(b)
			return nil
		})
	}
	p.out["hashing.sha1_1m_mbps"] = metrics.MBps(1<<20, sha("hashing.sha1_1m", buf, p.n(48)))
	p.out["hashing.sha1_8k_mbps"] = metrics.MBps(8<<10, sha("hashing.sha1_8k", buf[:8<<10], p.n(480)))

	roll := hashing.NewRolling(params.WithDefaults().Window)
	d = p.timeCalls("hashing", "hashing.rolling", p.n(16), nil, func(int) error {
		var h uint64
		for _, b := range buf {
			h = roll.Roll(b)
		}
		sinkHash = h
		return nil
	})
	p.out["hashing.rolling_mbps"] = metrics.MBps(int64(len(buf)), d)
	sc.rollPerByte = d.Seconds() / float64(len(buf))

	if sc.cbch {
		// The workload's chunks are content-defined: take their mean size
		// from its own first image.
		own := params.Split(in.images[0])
		sc.chunkBytes = int64(len(in.images[0]) / max(1, len(own)))
		sc.splitPerByte = cbchPerByte
	}
	sc.sha1 = sha("hashing.sha1_shape", buf[:min(int(sc.chunkBytes), len(buf))], p.n(96))
}

// echoServer is a wire.Server whose handler does nothing: what a call
// against it costs is the wire layer's own time.
func echoServer() (*wire.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return wire.NewServer(ln, func(*wire.Req) (wire.Resp, error) {
		return wire.Resp{Meta: proto.HeartbeatResp{OK: true}}, nil
	}, nil), nil
}

func (p *prober) wire(sc *shapeCosts) {
	if p.err != nil {
		return
	}
	// One-way frames over a loopback socket pair: wire.Write on one end,
	// wire.ReadInto on the other, timed until the reader has the frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.fail(err)
		return
	}
	defer ln.Close()
	tx, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		p.fail(err)
		return
	}
	defer tx.Close()
	rx, err := ln.Accept()
	if err != nil {
		p.fail(err)
		return
	}
	defer rx.Close()
	// The writer takes each frame's verdict before sending the next, so
	// one slot is enough — and lets the reader leave its EOF and exit.
	got := make(chan error, 1)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		br := bufio.NewReaderSize(rx, 32<<10)
		var m wire.Msg
		for {
			err := wire.ReadInto(br, &m)
			if err == nil && m.Body != nil {
				wire.PutBuf(m.Body)
			}
			got <- err
			if err != nil {
				return
			}
		}
	}()
	meta, err := wire.MarshalMeta(proto.PutReq{ID: core.HashChunk([]byte("probe"))})
	if err != nil {
		p.fail(err)
		return
	}
	frame := func(body []byte) func(int) error {
		msg := &wire.Msg{Op: proto.BPut, Meta: meta, Body: body}
		return func(int) error {
			if err := wire.Write(tx, msg); err != nil {
				return err
			}
			return <-got
		}
	}
	body := p.bytes(1 << 20)
	f1m, fhdr := frame(body), frame(nil)
	p.out["wire.frame_1m_us"] = us(p.timeCalls("wire", "wire.frame_1m", p.n(96), nil, f1m))
	p.out["wire.frame_hdr_us"] = us(p.timeCalls("wire", "wire.frame_hdr", p.n(480), nil, fhdr))
	if p.err == nil {
		p.out["wire.frame_1m_allocs"] = mallocs(p.n(48), func() { p.fail(f1m(0)) })
		p.out["wire.frame_hdr_allocs"] = mallocs(p.n(480), func() { p.fail(fhdr(0)) })
	}
	tx.Close() // the reader sees EOF and exits
	<-readerDone

	// Round trips through a wire.Server with a no-op handler.
	srv, err := echoServer()
	if err != nil {
		p.fail(err)
		return
	}
	defer srv.Close()
	conn, err := wire.Dial(srv.Addr(), nil)
	if err != nil {
		p.fail(err)
		return
	}
	defer conn.Close()
	mux, err := wire.DialMux(srv.Addr(), nil)
	if err != nil {
		p.fail(err)
		return
	}
	defer mux.Close()
	sc.dial = p.timeCalls("wire", "wire.dial", p.n(240), nil, func(int) error {
		c, err := wire.Dial(srv.Addr(), nil)
		if err != nil {
			return err
		}
		return c.Close()
	})
	p.out["wire.dial_us"] = us(sc.dial)
	req := proto.GetReq{ID: core.HashChunk([]byte("probe"))}
	call := func(c caller, body []byte) func(int) error {
		return func(int) error {
			var resp proto.HeartbeatResp
			_, err := c.Call(proto.BPing, req, body, &resp)
			return err
		}
	}
	sc.rtt = p.timeCalls("wire", "wire.call_rtt", p.n(960), nil, call(conn, nil))
	p.out["wire.call_rtt_us"] = us(sc.rtt)
	p.out["wire.mux_call_rtt_us"] = us(p.timeCalls("wire", "wire.mux_call_rtt", p.n(960), nil, call(mux, nil)))
	p.out["wire.call_64k_us"] = us(p.timeCalls("wire", "wire.call_64k", p.n(480), nil, call(conn, body[:64<<10])))
	sc.wireCall = p.timeCalls("wire", "wire.call_shape", p.n(240), nil, call(conn, body[:min(int(sc.chunkBytes), len(body))]))

	// Eight callers keep eight requests outstanding on one MuxConn.
	const window = 8
	per := p.n(480)
	muxCall := call(mux, nil)
	p.out["wire.mux_calls_per_s_w8"] = p.windowed("wire", "wire.mux_calls_w8", window, per, func(_, i int) error { return muxCall(i) })
}

// windowed runs f from `window` goroutines, `per` calls each, as one span,
// and returns calls per second.
func (p *prober) windowed(layer, name string, window, per int, f func(worker, i int) error) float64 {
	if p.err != nil {
		return 0
	}
	errs := make([]error, window)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < window; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := f(g, i); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	t1 := time.Now()
	if err := errors.Join(errs...); err != nil {
		p.fail(fmt.Errorf("probe %s: %w", name, err))
		return 0
	}
	p.tr.add(0, 0, layer, name, t0, t1)
	return float64(window*per) / t1.Sub(t0).Seconds()
}

// storeProbe times Put of n distinct chunks and GetInto of the same.
func (p *prober) storeProbe(name string, st store.Store, size, n int) (put, get time.Duration) {
	data := make([][]byte, n)
	ids := make([]core.ChunkID, n)
	base := p.bytes(size)
	for i := range data {
		data[i] = append([]byte(nil), base...)
		ids[i] = distinct(data[i], i)
	}
	put = p.timeCalls("store", name+"_put", n, nil, func(i int) error {
		_, err := st.Put(ids[i], data[i])
		return err
	})
	dst := make([]byte, size)
	get = p.timeCalls("store", name+"_getinto", n, nil, func(i int) error {
		_, err := st.GetInto(ids[i], dst)
		return err
	})
	return put, get
}

func (p *prober) store(sc *shapeCosts) {
	if p.err != nil {
		return
	}
	put, get := p.storeProbe("store.mem_1m", store.NewMemory(0, nil), 1<<20, p.n(32))
	p.out["store.mem_put_1m_us"], p.out["store.mem_getinto_1m_us"] = us(put), us(get)
	sc.memPut, sc.memGet = p.storeProbe("store.mem_shape", store.NewMemory(0, nil), int(sc.chunkBytes), p.n(96))

	ddir := filepath.Join(p.dir, "probe-disk")
	disk, err := store.OpenDisk(ddir, 0, nil)
	if err != nil {
		p.fail(err)
		return
	}
	defer os.RemoveAll(ddir)
	defer disk.Close()
	put, get = p.storeProbe("store.disk_1m", disk, 1<<20, p.n(16))
	p.out["store.disk_put_1m_us"], p.out["store.disk_getinto_1m_us"] = us(put), us(get)
	put, get = p.storeProbe("store.disk_64k", disk, 64<<10, p.n(64))
	p.out["store.disk_put_64k_us"], p.out["store.disk_getinto_64k_us"] = us(put), us(get)
}

func (p *prober) benefactor(sc *shapeCosts) {
	if p.err != nil {
		return
	}
	b, err := benefactor.New(benefactor.Config{Store: store.NewMemory(0, nil), GCInterval: time.Hour})
	if err != nil {
		p.fail(err)
		return
	}
	defer b.Close()
	conn, err := wire.Dial(b.Addr(), nil)
	if err != nil {
		p.fail(err)
		return
	}
	defer conn.Close()

	seq := 0
	// putGet times BPut of n distinct chunks, then BGet of the same.
	putGet := func(name string, size, n int) (put, get time.Duration, ids []core.ChunkID) {
		base := p.bytes(size)
		ids = make([]core.ChunkID, n)
		put = p.timeCalls("benefactor", name+"_bput", n,
			func(i int) { seq++; ids[i] = distinct(base, seq) },
			func(i int) error {
				_, err := conn.Call(proto.BPut, proto.PutReq{ID: ids[i]}, base, nil)
				return err
			})
		get = p.timeCalls("benefactor", name+"_bget", n, nil, func(i int) error {
			body, err := conn.Call(proto.BGet, proto.GetReq{ID: ids[i]}, nil, nil)
			if err == nil && len(body) != size {
				err = fmt.Errorf("got %d bytes of a %d-byte chunk", len(body), size)
			}
			wire.PutBuf(body)
			return err
		})
		return put, get, ids
	}
	put, get, _ := putGet("benefactor.1m", 1<<20, p.n(32))
	p.out["benefactor.bput_1m_us"], p.out["benefactor.bget_1m_us"] = us(put), us(get)
	put, get, ids := putGet("benefactor.64k", 64<<10, p.n(96))
	p.out["benefactor.bput_64k_us"], p.out["benefactor.bget_64k_us"] = us(put), us(get)
	sc.bput, sc.bget, _ = putGet("benefactor.shape", int(sc.chunkBytes), p.n(96))

	batch := ids[:min(16, len(ids))]
	p.out["benefactor.bgetbatch16_64k_us"] = us(p.timeCalls("benefactor", "benefactor.bgetbatch16_64k", p.n(48), nil, func(int) error {
		var resp proto.BatchGetResp
		body, err := conn.Call(proto.BGetBatch, proto.BatchGetReq{IDs: batch}, nil, &resp)
		if err == nil && len(body) != len(batch)*(64<<10) {
			err = fmt.Errorf("batch returned %d bytes for %d chunks", len(body), len(batch))
		}
		wire.PutBuf(body)
		return err
	}))
	p.out["benefactor.bhas_us"] = us(p.timeCalls("benefactor", "benefactor.bhas", p.n(480), nil, func(int) error {
		var resp proto.HasResp
		_, err := conn.Call(proto.BHas, proto.HasReq{IDs: batch[:min(8, len(batch))]}, nil, &resp)
		return err
	}))

	// Eight BPuts outstanding on one multiplexed connection.
	mux, err := wire.DialMux(b.Addr(), nil)
	if err != nil {
		p.fail(err)
		return
	}
	defer mux.Close()
	const window = 8
	per := p.n(64)
	bufs := make([][]byte, window)
	for g := range bufs {
		bufs[g] = p.bytes(64 << 10)
	}
	rate := p.windowed("benefactor", "benefactor.bput_w8_64k", window, per, func(g, i int) error {
		id := distinct(bufs[g], (g+1)<<32|i)
		_, err := mux.Call(proto.BPut, proto.PutReq{ID: id}, bufs[g], nil)
		return err
	})
	p.out["benefactor.bput_w8_64k_mbps"] = rate * float64(64<<10) / 1e6
}

// manager times the metadata handlers through Manager.Invoke — the exact
// handler path without a socket in front. journal selects meta_small's
// durable (fsync per commit group) policy.
func (p *prober) manager(journal bool, chunksA, chunksB int) managerCosts {
	mc := managerCosts{chunksA: chunksA, chunksB: chunksB}
	if p.err != nil {
		return mc
	}
	cfg := manager.Config{
		HeartbeatInterval: time.Hour, ReplicationInterval: time.Hour,
		PruneInterval: time.Hour, SessionTTL: time.Hour,
	}
	tag := "nojournal"
	if journal {
		tag = "journal"
		jdir := filepath.Join(p.dir, "probe-journal")
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			p.fail(err)
			return mc
		}
		defer os.RemoveAll(jdir)
		cfg.JournalPath = filepath.Join(jdir, "journal")
		cfg.FsyncJournal = true
	}
	m, err := manager.New(cfg)
	if err != nil {
		p.fail(err)
		return mc
	}
	defer m.Close()
	for i := 0; i < benefactors; i++ {
		addr := fmt.Sprintf("probe%02d:1", i)
		reg := proto.RegisterReq{ID: core.NodeID(addr), Addr: addr, Capacity: 1 << 40, Free: 1 << 40}
		if err := m.Invoke(proto.MRegister, reg, nil); err != nil {
			p.fail(err)
			return mc
		}
	}

	const chunkSize = 8 << 10
	n := p.n(96)
	allocs := make([]proto.AllocResp, n)
	name := func(series string, i int) string { return fmt.Sprintf("probe-%s.n%d.t0", series, i) }
	alloc := func(series string) func(i int) error {
		return func(i int) error {
			return m.Invoke(proto.MAlloc, proto.AllocReq{
				Name: name(series, i), StripeWidth: benefactors, ChunkSize: chunkSize,
				ReserveBytes: chunkSize, Replication: 1,
			}, &allocs[i])
		}
	}
	commit := func(series string, chunks int) func(i int) error {
		return func(i int) error {
			locs := make([]core.NodeID, 0, len(allocs[i].Stripe))
			for _, st := range allocs[i].Stripe {
				locs = append(locs, st.ID)
			}
			// Seeded by series and i, so no chunk repeats across commits.
			_, cs, size := manager.BuildCheckpoint(int64(len(series))<<32|int64(i), 0, chunks, chunkSize, false, locs)
			return m.Invoke(proto.MCommit, proto.CommitReq{WriteID: allocs[i].WriteID, FileSize: size, Chunks: cs}, nil)
		}
	}
	layer := "manager"
	pre := "manager." + tag + "."
	mc.alloc = p.timeCalls(layer, pre+"alloc", n, nil, alloc("a"))
	mc.extend = p.timeCalls(layer, pre+"extend", n, nil, func(i int) error {
		return m.Invoke(proto.MExtend, proto.ExtendReq{WriteID: allocs[i].WriteID, Bytes: int64(chunksA) * chunkSize}, nil)
	})
	mc.commitA = p.timeCalls(layer, pre+"commit_a", n, nil, commit("a", chunksA))
	mc.getMapCold = p.timeCalls(layer, pre+"getmap_cold", n, nil, func(i int) error {
		return m.Invoke(proto.MGetMap, proto.GetMapReq{Name: name("a", i)}, nil)
	})
	mc.getMapHot = p.timeCalls(layer, pre+"getmap_hot", n, nil, func(i int) error {
		return m.Invoke(proto.MGetMap, proto.GetMapReq{Name: name("a", i)}, nil)
	})
	mc.statVersion = p.timeCalls(layer, pre+"statversion", n, nil, func(i int) error {
		return m.Invoke(proto.MStatVersion, proto.StatVersionReq{Name: name("a", i)}, nil)
	})
	// The larger commit: sessions are opened outside the timed calls.
	for i := 0; i < n && p.err == nil; i++ {
		p.fail(alloc("bb")(i))
		p.fail(m.Invoke(proto.MExtend, proto.ExtendReq{WriteID: allocs[i].WriteID, Bytes: int64(chunksB) * chunkSize}, nil))
	}
	mc.commitB = p.timeCalls(layer, pre+"commit_b", n, nil, commit("bb", chunksB))

	// A 128-hash dedup probe, half of it present.
	ids := make([]core.ChunkID, 128)
	present, _, _ := manager.BuildCheckpoint(int64(len("bb"))<<32, 0, chunksB, chunkSize, false, nil)
	for i := range ids {
		if i < len(present) && i%2 == 0 {
			ids[i] = present[i]
		} else {
			ids[i] = core.HashChunk(binary.BigEndian.AppendUint64(nil, uint64(i)))
		}
	}
	mc.has128 = p.timeCalls(layer, pre+"haschunks_128", n, nil, func(int) error {
		return m.Invoke(proto.MHasChunks, proto.HasReq{IDs: ids}, nil)
	})
	return mc
}

// federation measures what routing through a two-member Router adds to a
// dataset-scoped metadata call, against calling the owner directly.
func (p *prober) federation() {
	if p.err != nil {
		return
	}
	cl, err := grid.Start(grid.Options{
		Managers: 2, Benefactors: benefactors, BenefactorProfile: device.Unshaped(),
		Manager: manager.Config{
			HeartbeatInterval: 2 * time.Second, ReplicationInterval: time.Hour, PruneInterval: time.Hour,
		},
		GCInterval: time.Hour, GCGrace: time.Hour,
	})
	if err != nil {
		p.fail(err)
		return
	}
	defer cl.Close()
	c, _, err := cl.NewClient(client.Config{StripeWidth: benefactors, Replication: 1}, device.Unshaped())
	if err != nil {
		p.fail(err)
		return
	}
	defer c.Close()
	const name = "probe-fed.n0.t0"
	if k := writeImage(c, name, p.bytes(64<<10), 64<<10); k.err != nil {
		p.fail(k.err)
		return
	}
	router, err := cl.NewRouter(nil)
	if err != nil {
		p.fail(err)
		return
	}
	defer router.Close()
	_, owner := router.Membership().OwnerOf(name)
	pool := wire.NewPool(nil, 8)
	defer pool.Close()
	n := p.n(480)
	routed := p.timeCalls("federation", "federation.route_statversion", n, nil, func(int) error {
		_, err := router.StatVersion(proto.StatVersionReq{Name: name})
		return err
	})
	direct := p.timeCalls("federation", "federation.direct_statversion", n, nil, func(int) error {
		var resp proto.StatVersionResp
		_, err := pool.Call(owner, proto.MStatVersion, proto.StatVersionReq{Name: name}, nil, &resp)
		return err
	})
	p.out["federation.route_statversion_us"] = us(routed)
	p.out["federation.route_overhead_us"] = us(routed - direct)
}
