package benefactor

import (
	"bytes"
	"slices"
	"sort"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/faultpoint"
	"stdchk/internal/wire"
)

// fpScrubCorrupt simulates a latent storage fault: armed with ModeError,
// the next verified chunk fails its integrity check exactly as if a bit
// had flipped on disk, exercising the full quarantine → report → repair
// path without the test needing to know the store's on-disk layout.
var fpScrubCorrupt = faultpoint.Register("benefactor.scrub.corrupt")

// scrubLoop runs the background integrity scrub. Content addressing makes
// verification self-contained: a chunk's name IS its expected hash (paper
// §IV.C), so a donor can audit its own holdings with no manager round
// trip. Each tick verifies at most ScrubBatch chunks — the rate limit
// that keeps scrub reads from competing with the serve path — resuming
// from a cursor so large stores are covered incrementally across ticks.
func (b *Benefactor) scrubLoop() {
	defer b.wg.Done()
	ticker := time.NewTicker(b.cfg.ScrubInterval)
	defer ticker.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-ticker.C:
			b.ScrubOnce()
		}
	}
}

// ScrubOnce verifies up to ScrubBatch chunks starting after the resumable
// cursor (wrapping at the end of the inventory) and quarantines failures.
// Returns the chunks checked and the corruptions found. Exposed for tests
// and tooling.
func (b *Benefactor) ScrubOnce() (checked, corrupt int) {
	inv := b.chunks.Inventory() // sorted
	if len(inv) == 0 {
		return 0, 0
	}
	b.mu.Lock()
	cursor := b.scrubCursor
	b.mu.Unlock()
	start := sort.Search(len(inv), func(i int) bool {
		return bytes.Compare(inv[i][:], cursor[:]) > 0
	})
	n := b.cfg.ScrubBatch
	if n > len(inv) {
		n = len(inv)
	}
	var last core.ChunkID
	for i := 0; i < n; i++ {
		id := inv[(start+i)%len(inv)]
		last = id
		checked++
		if b.verifyChunk(id) {
			continue
		}
		corrupt++
		b.quarantine(id)
	}
	b.mu.Lock()
	b.scrubCursor = last
	b.scrubbed += int64(checked)
	b.mu.Unlock()
	return checked, corrupt
}

// verifyChunk re-reads one chunk and re-derives its content address. A
// chunk deleted since the inventory snapshot passes vacuously; a read
// error (the disk store's own hash check fires core.ErrIntegrity) or a
// hash mismatch fails.
func (b *Benefactor) verifyChunk(id core.ChunkID) bool {
	if err := fpScrubCorrupt.Hit(); err != nil {
		return false
	}
	size, ok := b.chunks.Size(id)
	if !ok {
		return true
	}
	buf := wire.GetBuf(int(size))
	data, err := b.chunks.GetInto(id, buf[:0])
	healthy := err == nil && core.HashChunk(data) == id
	wire.PutBuf(buf)
	return healthy
}

// quarantine removes a corrupt replica and queues its ID for the next
// heartbeat, where the manager drops this location from the chunk-map
// (readers stop being routed here) and schedules critical-priority repair
// from the surviving replicas. Deleting rather than fencing is safe
// precisely because the data is content-addressed: there is nothing to
// salvage from bytes that no longer hash to their name. The scrubber and
// any number of serving goroutines may catch the same replica at once;
// it is queued and counted once per report.
func (b *Benefactor) quarantine(id core.ChunkID) {
	if err := b.chunks.Delete(id); err != nil {
		b.logf("scrub: quarantine %s: %v", id.Short(), err)
	}
	b.mu.Lock()
	delete(b.births, id)
	pending := slices.Contains(b.corrupt, id)
	if !pending {
		b.corrupt = append(b.corrupt, id)
		b.corruptFound++
	}
	b.mu.Unlock()
	if !pending {
		b.logf("scrub: chunk %s failed verification, quarantined", id.Short())
	}
}
