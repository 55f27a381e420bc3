package fsiface

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/grid"
	"stdchk/internal/manager"
)

func testFS(t *testing.T) (*FS, *grid.Cluster) {
	t.Helper()
	c, err := grid.Start(grid.Options{
		Benefactors:       3,
		BenefactorProfile: device.Unshaped(),
		Manager:           manager.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl, _, err := c.NewClient(client.Config{ChunkSize: 32 << 10, StripeWidth: 2}, device.Unshaped())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	fs, err := New(Config{Client: cl, MetaTTL: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return fs, c
}

func randData(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestCreateWriteReadCycle(t *testing.T) {
	fs, _ := testFS(t)
	data := randData(1, 300<<10)

	f, err := fs.Create("blast/blast.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	// Application-style small writes (4 KB blocks).
	for off := 0; off < len(data); off += 4 << 10 {
		end := off + 4<<10
		if end > len(data) {
			end = len(data)
		}
		if _, err := f.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}

	r, err := fs.Open("blast/blast.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(data))
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch through the facade")
	}
}

func TestHandleModeEnforcement(t *testing.T) {
	fs, _ := testFS(t)
	f, err := fs.Create("m/m.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(make([]byte, 10)); err == nil {
		t.Fatal("read on write handle succeeded")
	}
	f.Write([]byte("x"))
	f.Close()
	f.Wait()

	r, err := fs.Open("m/m.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Write([]byte("x")); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("write on read handle: %v", err)
	}
}

func TestStatAndReadDirCaching(t *testing.T) {
	fs, c := testFS(t)
	f, err := fs.Create("app/app.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(randData(2, 64<<10))
	f.Close()
	f.Wait()

	before := c.Manager.Stats().Transactions
	for i := 0; i < 20; i++ {
		if _, err := fs.Stat("app/app.n1.t0"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadDir("app"); err != nil {
			t.Fatal(err)
		}
	}
	after := c.Manager.Stats().Transactions
	// Only the first stat/readdir should have contacted the manager
	// (and MList/MStat don't count as transactions anyway); the point is
	// the call volume did not scale with the 20 iterations.
	if after-before > 4 {
		t.Fatalf("metadata cache ineffective: %d manager transactions for cached calls", after-before)
	}
	if fs.CacheSize() == 0 {
		t.Fatal("nothing cached")
	}
}

func TestUnlinkInvalidatesAndDeletes(t *testing.T) {
	fs, _ := testFS(t)
	f, err := fs.Create("d/d.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(randData(3, 32<<10))
	f.Close()
	f.Wait()
	if _, err := fs.Stat("d/d.n1.t0"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("d/d.n1.t0"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("d/d.n1.t0"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("open after unlink: %v", err)
	}
}

func TestPolicyPassThrough(t *testing.T) {
	fs, _ := testFS(t)
	want := core.Policy{Kind: core.PolicyReplace, KeepVersions: 2}
	if err := fs.SetPolicy("pol", want); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Policy("pol")
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || got.KeepVersions != want.KeepVersions {
		t.Fatalf("policy = %+v, want %+v", got, want)
	}
}

func TestFuseCostCharged(t *testing.T) {
	fs, _ := testFS(t)
	fs.fuse = device.NewCallCost(5 * time.Millisecond)
	start := time.Now()
	if _, err := fs.ReadDir(""); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("FUSE cost not charged")
	}
}

func TestBaselineKindsCharge(t *testing.T) {
	// A slow profile makes the charging observable.
	profile := device.Profile{
		DiskWriteBps: 1e6, // 1 MB/s
		MemCopyBps:   1e6,
		LinkBps:      1e6,
		FuseCallCost: time.Millisecond,
	}
	nfs := device.NewLimiter(1e6)
	const n = 100 << 10 // 100 KB -> ~100 ms at 1 MB/s
	for _, kind := range []BaselineKind{BaselineLocal, BaselineFuseLocal, BaselineNull, BaselineNFS} {
		t.Run(kind.String(), func(t *testing.T) {
			b := NewBaseline(kind, device.NewNode(profile), nfs)
			start := time.Now()
			if _, err := b.Write(make([]byte, n)); err != nil {
				t.Fatal(err)
			}
			b.Close()
			if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
				t.Fatalf("%v write of 100KB at 1MB/s took only %v", kind, elapsed)
			}
			if b.Written() != n {
				t.Fatalf("Written = %d", b.Written())
			}
			if b.Duration() <= 0 {
				t.Fatal("Duration not recorded")
			}
		})
	}
}

func TestBaselineOrderingMatchesTable1(t *testing.T) {
	// With the paper profile, for the same data: null << local <= fuse.
	// Each run gets a fresh node so one baseline's queue state cannot
	// leak into the next measurement.
	const block = 128 << 10
	// Large enough that the ~2% FUSE overhead exceeds scheduler jitter.
	const total = 32 << 20
	run := func(kind BaselineKind) time.Duration {
		node := device.NewNode(device.Profile{
			DiskWriteBps: device.MBps(86.2),
			MemCopyBps:   1.35e9,
			FuseCallCost: 32 * time.Microsecond,
		})
		b := NewBaseline(kind, node, nil)
		buf := make([]byte, block)
		for w := 0; w < total; w += block {
			b.Write(buf)
		}
		b.Close()
		return b.Duration()
	}
	// Other test binaries sharing the cores only ever add time to a run
	// (the device model sleeps; a late wake-up is never early), so the
	// fastest of three is the estimate of the modelled cost.
	best := func(kind BaselineKind) time.Duration {
		d := run(kind)
		for i := 0; i < 2; i++ {
			d = min(d, run(kind))
		}
		return d
	}
	local := best(BaselineLocal)
	fuse := best(BaselineFuseLocal)
	null := best(BaselineNull)
	if null >= local/2 {
		t.Fatalf("null %v not much faster than local %v", null, local)
	}
	// FUSE overhead is small but positive (paper: ~2%); allow scheduler
	// jitter either way (race-instrumented runs wobble by several
	// percent), reject anything large.
	overhead := float64(fuse-local) / float64(local)
	if overhead < -0.10 || overhead > 0.15 {
		t.Fatalf("fuse overhead %.1f%% (local %v, fuse %v), want ~2%%", 100*overhead, local, fuse)
	}
}

func TestNewRequiresClient(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted nil client")
	}
}
