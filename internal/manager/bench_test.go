package manager

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/proto"
)

// BenchmarkManagerOps measures the metadata plane end to end through the
// handler path: per iteration one full checkpoint's metadata traffic
// (DriveCheckpoint — alloc, extend, batched dedup probe, commit with
// copy-on-write reuse, chunk-map fetch). RunParallel puts concurrent
// writers on distinct datasets, the stripe-friendly §V.E shape. The
// bench-compare CI job gates allocs/op regressions on this path, and the
// managerload experiment runs the identical driver.
//
// The journal sub-benchmarks put a price on durability in one run:
// no-journal is the catalog alone, journal-async adds the ordered ticket
// writer (an atomic increment and a channel send inside the dataset
// stripe's critical section), journal-fsync makes every commit wait for
// its batch's fsync, concurrent writers sharing one fsync per batch.
func BenchmarkManagerOps(b *testing.B) {
	b.Run("no-journal", func(b *testing.B) { benchManagerOps(b, Config{}) })
	b.Run("journal-async", func(b *testing.B) {
		benchManagerOps(b, Config{JournalPath: filepath.Join(b.TempDir(), "journal")})
	})
	b.Run("journal-fsync", func(b *testing.B) {
		benchManagerOps(b, Config{JournalPath: filepath.Join(b.TempDir(), "journal"), FsyncJournal: true})
	})
}

func benchManagerOps(b *testing.B, cfg Config) {
	cfg.HeartbeatInterval = time.Hour
	cfg.ReplicationInterval = time.Hour
	cfg.PruneInterval = time.Hour
	cfg.SessionTTL = time.Hour
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 8; i++ {
		req := proto.RegisterReq{
			ID:   core.NodeID(fmt.Sprintf("bb%d:1", i)),
			Addr: fmt.Sprintf("bb%d:1", i), Capacity: 1 << 40, Free: 1 << 40,
		}
		if err := m.Invoke(proto.MRegister, req, nil); err != nil {
			b.Fatal(err)
		}
	}

	invoke := func(op, _ string, req, resp interface{}) error { return m.Invoke(op, req, resp) }
	var writerSeq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := writerSeq.Add(1)
		for t := 0; pb.Next(); t++ {
			name := fmt.Sprintf("bench.n%d.t%d", w, t)
			if _, err := DriveCheckpoint(invoke, name, w, t, 8, 8<<10, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}
