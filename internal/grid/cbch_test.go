package grid

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"stdchk/internal/chunker"
	"stdchk/internal/client"
	"stdchk/internal/manager"
	"stdchk/internal/workload"
)

// cbchTestParams bounds live CbCH spans small enough that a multi-MB test
// image yields hundreds of chunks (expected span ~= Min + 2^Bits = 32 KiB).
func cbchTestParams() chunker.StreamParams {
	return chunker.StreamParams{Window: 48, Bits: 14, Min: 16 << 10, Max: 128 << 10}
}

// TestCbCHLiveIncrementalCheckpointing is the live Table 3 contrast
// (paper §IV.C): two successive BLCR-style checkpoint images — mostly
// identical content whose offsets shift between versions — written through
// the real wire path with incremental checkpointing on, once with
// fixed-size chunking and once with content-based chunking. Fixed-size
// dedup only catches the offset-aligned prefix; content-anchored
// boundaries re-synchronize after every shifted region, so CbCH must dedup
// at least 2x the bytes. Ground truth comes from both sides of the wire:
// writer byte accounting (Uploaded/Deduped) and the manager's dedup-probe
// counters (DedupHits).
func TestCbCHLiveIncrementalCheckpointing(t *testing.T) {
	c := testCluster(t, 3, manager.Config{})
	tr := workload.BLCR5Min(77, 2, 8<<20)

	// run writes both trace versions and returns the second version's
	// metrics plus the manager-side dedup-hit delta for the run.
	run := func(prefix string, cfg client.Config) (second client.WriteMetrics, hits int64) {
		t.Helper()
		cl := testClient(t, c, cfg)
		before, err := cl.ManagerStats()
		if err != nil {
			t.Fatal(err)
		}
		var last client.WriteMetrics
		for i, img := range tr.Images {
			w := writeFile(t, cl, fmt.Sprintf("%s.n1.t%d", prefix, i), img)
			last = w.Metrics()
			if got, want := last.Uploaded+last.Deduped, int64(len(img)); got != want {
				t.Fatalf("%s v%d: uploaded %d + deduped %d != written %d",
					prefix, i, last.Uploaded, last.Deduped, want)
			}
		}
		// Round-trip integrity: both versions, including the COW-shared
		// chunks, must read back exactly.
		for i, img := range tr.Images {
			if got := readFile(t, cl, fmt.Sprintf("%s.n1.t%d", prefix, i)); !bytes.Equal(got, img) {
				t.Fatalf("%s v%d corrupted on round trip", prefix, i)
			}
		}
		after, err := cl.ManagerStats()
		if err != nil {
			t.Fatal(err)
		}
		return last, after.DedupHits - before.DedupHits
	}

	fixed, fixedHits := run("fsch", client.Config{
		ChunkSize:   128 << 10,
		StripeWidth: 2,
		Incremental: true,
	})
	cbch, cbchHits := run("cbch", client.Config{
		Chunking:    client.ChunkCbCH,
		CbCH:        cbchTestParams(),
		StripeWidth: 2,
		Incremental: true,
	})

	// The BLCR trace keeps ~25% of bytes offset-aligned, so fixed-size
	// dedup must find some sharing — otherwise the workload (not the
	// chunking) is what changed.
	if fixed.Deduped == 0 {
		t.Fatal("fixed-size dedup found nothing; BLCR trace lost its aligned prefix")
	}
	if fixedHits == 0 || cbchHits == 0 {
		t.Fatalf("manager saw no dedup hits (fixed %d, cbch %d)", fixedHits, cbchHits)
	}
	if cbch.Deduped < 2*fixed.Deduped {
		t.Fatalf("CbCH deduped %d bytes of %d, fixed %d of %d; want >= 2x",
			cbch.Deduped, cbch.Bytes, fixed.Deduped, fixed.Bytes)
	}
	// And the flip side: CbCH moved correspondingly fewer bytes on the wire.
	if cbch.Uploaded >= fixed.Uploaded {
		t.Fatalf("CbCH uploaded %d bytes, fixed %d; content chunking saved nothing",
			cbch.Uploaded, fixed.Uploaded)
	}
}

// TestCbCHAllProtocolsRoundTrip: every write but the fixed-size sliding
// window is staged — copied into segments that a stage goroutine cuts —
// and the streaming boundary finder runs on that stage, so all three
// write protocols must produce correct (and identical) committed content
// with variable-size chunks, and with fixed-size ones that do not divide a
// segment (96 KB), whose chunks sometimes span two.
func TestCbCHAllProtocolsRoundTrip(t *testing.T) {
	c := testCluster(t, 3, manager.Config{})
	data := payload(81, 3<<20+4321)
	for _, p := range []client.Protocol{client.SlidingWindow, client.IncrementalWrite, client.CompleteLocalWrite} {
		t.Run(p.String(), func(t *testing.T) {
			for _, mode := range []client.ChunkingMode{client.ChunkCbCH, client.ChunkFixed} {
				t.Run(mode.String(), func(t *testing.T) {
					cl := testClient(t, c, client.Config{
						Protocol:      p,
						Chunking:      mode,
						CbCH:          cbchTestParams(),
						ChunkSize:     96 << 10,
						StripeWidth:   2,
						TempFileBytes: 256 << 10,
					})
					name := fmt.Sprintf("%sproto%d.n1.t0", mode, p)
					writeFile(t, cl, name, data)
					if got := readFile(t, cl, name); !bytes.Equal(got, data) {
						t.Fatalf("%s: %s round trip corrupted", p, mode)
					}
					// The committed map must be flagged variable (CbCH only)
					// with in-bounds spans.
					r, err := cl.Open(name)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					m := r.Map()
					if m.Variable != (mode == client.ChunkCbCH) {
						t.Fatalf("committed map flagged Variable=%v under %s chunking", m.Variable, mode)
					}
					if err := m.Validate(); err != nil {
						t.Fatal(err)
					}
					if len(m.Chunks) < 20 {
						t.Fatalf("only %d chunks; %s bounds not applied", len(m.Chunks), mode)
					}
				})
			}
		})
	}
}

// TestCbCHZeroPagesStayFewChunks: process images are full of zero pages,
// and a window of zeros hashes to 0 — low bits all zero at every position.
// The live chunker must not take that for a boundary (it once cut zero
// runs every Min = 48 bytes: 87,000 chunks, puts and map entries for this
// image); zero runs ride inside ordinary spans and dedup like any content.
func TestCbCHZeroPagesStayFewChunks(t *testing.T) {
	c := testCluster(t, 3, manager.Config{})
	cl := testClient(t, c, client.Config{Chunking: client.ChunkCbCH, StripeWidth: 2, Incremental: true})
	img := payload(83, 8<<20)
	for off := 0; off < len(img); off += 256 << 10 {
		clear(img[off+128<<10 : off+256<<10]) // every other 32 pages
	}

	writeFile(t, cl, "zeropages.n1.t0", img)
	second := writeFile(t, cl, "zeropages.n1.t1", img).Metrics()
	if second.Uploaded != 0 || second.Deduped != int64(len(img)) {
		t.Fatalf("identical second version uploaded %d bytes, deduped %d of %d", second.Uploaded, second.Deduped, len(img))
	}
	for _, name := range []string{"zeropages.n1.t0", "zeropages.n1.t1"} {
		if got := readFile(t, cl, name); !bytes.Equal(got, img) {
			t.Fatalf("%s corrupted on round trip", name)
		}
	}
	r, err := cl.Open("zeropages.n1.t1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := len(r.Map().Chunks); n >= 1000 {
		t.Fatalf("%d chunks for an 8 MB half-zero image under default CbCH (~64 KB spans); zero runs are being shredded", n)
	}
}

// TestReaderFailsOverMidReadToReplica kills the benefactor listed first
// for the tail chunks while a read is in progress and asserts the
// remaining fetches fall over to the second replica, with content-hash
// integrity intact end to end.
func TestReaderFailsOverMidReadToReplica(t *testing.T) {
	c := testCluster(t, 3, manager.Config{
		ReplicationInterval: 50 * time.Millisecond,
		DefaultReplication:  2,
		HeartbeatInterval:   100 * time.Millisecond,
	})
	cl := testClient(t, c, client.Config{
		ChunkSize:      32 << 10,
		Replication:    2,
		StripeWidth:    2,
		ReadAheadBytes: 32 << 10, // keep the prefetch window behind the kill point
	})
	data := payload(55, 512<<10)
	writeFile(t, cl, "fo.n1.t0", data)

	// Wait until every chunk has a second replica to fall over to.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := cl.Stat("fo.n1")
		if err != nil {
			t.Fatal(err)
		}
		if info.Versions[0].Replication >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication stuck at %d", info.Versions[0].Replication)
		}
		time.Sleep(20 * time.Millisecond)
	}

	r, err := cl.Open("fo.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Consume the head of the file, then kill the benefactor that every
	// remaining chunk would try first.
	head := make([]byte, 64<<10)
	if _, err := io.ReadFull(r, head); err != nil {
		t.Fatal(err)
	}
	m := r.Map()
	victimID := m.Locations[len(m.Locations)-1][0]
	victim := -1
	for i, id := range c.NodeIDs() {
		if id == victimID {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatalf("benefactor %s not found in cluster", victimID)
	}
	if err := c.StopBenefactor(victim); err != nil {
		t.Fatal(err)
	}

	rest, err := r.ReadAll()
	if err != nil {
		t.Fatalf("read after first-replica death: %v", err)
	}
	got := append(head, rest...)
	if !bytes.Equal(got, data) {
		t.Fatalf("failover read corrupted: %d bytes, want %d", len(got), len(data))
	}
}

// TestReaderCloseDrainsInflightPrefetches closes a reader while its
// read-ahead window is full of in-flight fetches. The drain must recycle
// every pool-backed buffer (verified by the race detector seeing the
// async receives) and later reads must be unaffected.
func TestReaderCloseDrainsInflightPrefetches(t *testing.T) {
	c := testCluster(t, 2, manager.Config{})
	cl := testClient(t, c, client.Config{ChunkSize: 32 << 10, StripeWidth: 2, ReadAheadBytes: 8 * 32 << 10})
	data := payload(56, 1<<20)
	writeFile(t, cl, "drain.n1.t0", data)

	r, err := cl.Open("drain.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	// One small read primes the full prefetch window.
	small := make([]byte, 10)
	if _, err := io.ReadFull(r, small); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(small); err == nil {
		t.Fatal("read succeeded on closed reader")
	}
	// Closing again is a no-op, and the store is still fully readable.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, cl, "drain.n1.t0"); !bytes.Equal(got, data) {
		t.Fatal("data disturbed by abandoned prefetches")
	}
}
