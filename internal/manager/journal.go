package manager

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/faultpoint"
	"stdchk/internal/metrics"
	"stdchk/internal/namespace"
	"stdchk/internal/proto"
)

// Fault-injection points on the journal's durability path (no-ops unless a
// test or STDCHK_FAULTPOINTS arms them; see internal/faultpoint).
var (
	fpJournalAppend = faultpoint.Register("manager.journal.append")
	fpJournalFsync  = faultpoint.Register("manager.journal.fsync")
)

// journalEntry is one record of the manager's append-only metadata
// journal. Replaying the journal in order reconstructs the catalog after a
// manager restart (the engineered alternative to the paper's
// benefactor-quorum recovery, which is also implemented; see recovery.go).
//
// Seq is the entry's order ticket, assigned inside the mutating stripe's
// critical section, so it totals-orders journaled mutations. Catalog
// snapshots record the ticket watermark their state includes; replay
// applies only entries past the newest snapshot's watermark. Entries written before tickets existed decode as Seq 0 and
// replay whenever no snapshot watermark excludes them.
type journalEntry struct {
	Seq         uint64              `json:"seq,omitempty"`
	Op          string              `json:"op"` // commit | delete | policy | decommission
	Name        string              `json:"name"`
	Version     core.VersionID      `json:"version,omitempty"`
	Replication int                 `json:"replication,omitempty"`
	ChunkSize   int64               `json:"chunkSize,omitempty"`
	Variable    bool                `json:"variable,omitempty"`
	FileSize    int64               `json:"fileSize,omitempty"`
	Chunks      []proto.CommitChunk `json:"chunks,omitempty"`
	Policy      *core.Policy        `json:"policy,omitempty"`
	// Writer is the committing client's declared identity (commit entries
	// only; absent in journals written before writer identity existed).
	Writer string `json:"writer,omitempty"`
	// CommittedAt is the version's commit time (commit entries only;
	// absent in journals written before commit times were recorded, whose
	// replayed versions read the clock at replay).
	CommittedAt time.Time `json:"committedAt,omitzero"`

	// ticketed, when set, runs atomically with the entry's order ticket
	// (never written to the file). A commit allocates its version ID
	// there, so IDs are handed out in ticket order across stripes and
	// replay — which allocates in ticket order — reproduces them: a
	// journaled delete names its version by ID.
	ticketed func()
}

// journal is the manager's one append-only journal writer. The entries
// found at open time go to replay and are not kept.
//
// A record only takes an order ticket and enqueues: record assigns a
// strictly increasing sequence number and sends the entry in one step
// (inside the caller's stripe critical section, which is what makes ticket
// order match publication order — see catalog.journalHook), so the queue
// holds entries in ticket order and a single writer goroutine drains it in
// order, flushing when the queue goes quiet instead of per record. Commits
// keep full stripe parallelism; the cost is a small window of
// acknowledged-but-unjournaled entries that a process crash loses.
//
// The fsync flag arms power-loss durability: the writer fsyncs once per
// drained batch, so acknowledged commits survive not just a process crash
// but the machine going dark.
// Fsynced appends are true group commit — the committer blocks until the
// batch carrying its record is fsynced (see seqEntry.ack), so "acknowledged
// but lost" cannot happen, while stripes that ticketed concurrently share
// one fsync. Folders whose policy demands DurabilityFsync get the same
// treatment per record even when the global flag is off (the durable hint
// on record).
//
// Write, flush and fsync failures are sticky: the first one is recorded,
// every subsequent record call fails fast (commits abort instead of
// acknowledging state the journal did not capture), and close returns it.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	path string

	// fsync arms a per-batch fsync.
	fsync bool

	// firstErr is the sticky first write/flush/fsync failure (guarded by
	// mu).
	firstErr error

	// seqMu makes ticket, journalEntry.ticketed and the send on queue one
	// step, and guards closed, which close sets before it closes the
	// queue; seq is the order ticket; done signals the writer goroutine
	// has drained and flushed.
	seqMu  sync.Mutex
	closed bool
	seq    atomic.Uint64
	queue  chan seqEntry
	done   chan struct{}
	logf   func(format string, args ...interface{})

	// Durability counters, declared in the manager's counter record by
	// openJournal. batches counts flush batches reaching the file,
	// batchLen the entries they carried (their ratio is the group-commit
	// amortization), fsyncs the fsync syscalls, errs the write/flush/fsync
	// failures observed.
	batches, batchLen, fsyncs, errs *atomic.Int64
}

type seqEntry struct {
	e       journalEntry
	durable bool
	// ack, when non-nil, receives the batch outcome after this entry's
	// batch is flushed (and fsynced, in fsync mode): group commit blocks
	// the committer until its record is durable, while the writer amortizes
	// one fsync across every stripe's concurrently ticketed records.
	ack chan error
}

// journalQueueDepth bounds acknowledged-but-unwritten entries. A full
// queue applies backpressure to committers (the enqueue blocks inside the
// stripe critical section, holding seqMu), which also bounds the crash
// window.
const journalQueueDepth = 1024

// openJournal reads any existing entries, opens the file for appends and
// starts the writer goroutine. It returns the entries for replay; the
// journal keeps none of them. A torn final record (crash mid-append) is
// truncated away with a warning — everything before it is intact,
// matching replay's historical tolerance. fsync arms group-commit
// fsync. seqFloor lifts the ticket counter past a snapshot's watermark (a
// truncated journal may hold no entry at or below it).
func openJournal(path string, fsync bool, logf func(string, ...interface{}), seqFloor uint64, counters *metrics.Counters) (*journal, []journalEntry, error) {
	entries, goodOff, torn, err := scanJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	if torn {
		if err := os.Truncate(path, goodOff); err != nil {
			return nil, nil, fmt.Errorf("truncate torn journal %s: %w", path, err)
		}
		logf("journal %s: truncated torn trailing record at offset %d (%d intact entries)", path, goodOff, len(entries))
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("open journal %s: %w", path, err)
	}
	j := &journal{f: f, w: bufio.NewWriter(f), path: path, fsync: fsync, logf: logf,
		queue:    make(chan seqEntry, journalQueueDepth),
		done:     make(chan struct{}),
		batches:  counters.Sum("journal.batches"),
		batchLen: counters.Sum(proto.CtrJournalRecords),
		fsyncs:   counters.Sum(proto.CtrJournalFsyncs),
		errs:     counters.Sum("journal.errors"),
	}
	// Resume ticketing above every persisted ticket and the snapshot
	// watermark so new entries always order after replayed ones.
	seq := seqFloor
	for _, e := range entries {
		seq = max(seq, e.Seq)
	}
	j.seq.Store(seq)
	go j.writeLoop()
	return j, entries, nil
}

// scanJournal decodes the journal's intact entry prefix and reports where
// it ends: goodOff is the byte offset just past the last whole record and
// torn whether trailing bytes (a crash mid-append) follow it.
func scanJournal(path string) (entries []journalEntry, goodOff int64, torn bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("read journal %s: %w", path, err)
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var e journalEntry
		if derr := dec.Decode(&e); derr != nil {
			if errors.Is(derr, io.EOF) {
				// Clean end: only whitespace followed the last record (a
				// truncated record surfaces as ErrUnexpectedEOF or a
				// syntax error, never io.EOF).
				return entries, goodOff, false, nil
			}
			// A torn final record (crash mid-append) ends the usable
			// prefix; everything before it is intact.
			return entries, goodOff, true, nil
		}
		entries = append(entries, e)
		goodOff = dec.InputOffset()
	}
}

// stickyErr returns the first recorded write failure, if any.
func (j *journal) stickyErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.firstErr
}

// failLocked records a write/flush/fsync failure. Callers hold j.mu.
func (j *journal) failLocked(err error) {
	j.errs.Add(1)
	if j.firstErr == nil {
		j.firstErr = err
	}
}

// record appends one entry: it assigns the next order ticket and
// enqueues, leaving marshal/write/flush to the writer goroutine. durable
// asks the writer to fsync the batch carrying this entry even when the
// journal's global fsync mode is off (per-folder DurabilityFsync). After
// any write failure record fails fast: callers must not acknowledge state
// the journal can no longer capture.
func (j *journal) record(e journalEntry, durable bool) error {
	if err := j.stickyErr(); err != nil {
		return fmt.Errorf("journal: failing fast after earlier error: %w", err)
	}
	se := seqEntry{e: e, durable: durable}
	if j.fsync || durable {
		// Group commit: this caller blocks until the writer has flushed
		// and fsynced the batch carrying its record, so an acknowledged
		// commit is a durable one. The wait happens after releasing seqMu
		// so other records and a concurrent close go on meanwhile.
		se.ack = make(chan error, 1)
	}
	j.seqMu.Lock()
	if j.closed {
		j.seqMu.Unlock()
		return core.ErrClosed
	}
	se.e.Seq = j.seq.Add(1)
	if e.ticketed != nil {
		e.ticketed()
	}
	j.queue <- se
	j.seqMu.Unlock()
	if se.ack == nil {
		return nil
	}
	if err := <-se.ack; err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// appendLocked marshals and buffers one entry. Callers hold j.mu.
func (j *journal) appendLocked(e journalEntry) error {
	if err := fpJournalAppend.Hit(); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	return writeEntry(j.w, e)
}

// writeEntry marshals one entry as a line of the journal file: the one
// encoding appends and truncation share.
func writeEntry(w *bufio.Writer, e journalEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("journal: marshal: %w", err)
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	return nil
}

// syncLocked fsyncs the journal file. Callers hold j.mu with the buffer
// flushed.
func (j *journal) syncLocked() error {
	if err := fpJournalFsync.Hit(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.fsyncs.Add(1)
	return nil
}

// writeLoop is the writer goroutine: it drains the queue in order — record
// sends in ticket order — appending each entry as it arrives and flushing
// — and, in fsync mode or when the batch carried a durable-hinted entry,
// fsyncing — once whenever the queue goes quiet rather than per record.
// After a write failure the loop keeps draining (so senders and closers
// never block) but appends nothing more: record fails fast on the sticky
// error, so no new entries are acknowledged either.
func (j *journal) writeLoop() {
	defer close(j.done)
	flushed := true
	batch := int64(0)
	durable := false
	var acks []chan error

	// settle flushes (and, when the batch needs it, fsyncs) the current
	// batch and delivers the outcome to every committer waiting on it.
	settle := func() {
		j.mu.Lock()
		batchErr := j.firstErr
		if batchErr == nil && !flushed {
			if err := j.w.Flush(); err != nil {
				batchErr = fmt.Errorf("journal: flush: %w", err)
				j.failLocked(batchErr)
				j.logf("journal flush failed: %v", err)
			} else if j.fsync || durable {
				if err := j.syncLocked(); err != nil {
					batchErr = err
					j.failLocked(err)
					j.logf("journal fsync failed: %v", err)
				}
			}
		}
		j.mu.Unlock()
		if !flushed {
			j.batches.Add(1)
			j.batchLen.Add(batch)
		}
		for _, ch := range acks {
			ch <- batchErr
		}
		acks = acks[:0]
		batch = 0
		durable = false
		flushed = true
	}

	for se := range j.queue {
		j.mu.Lock()
		var err error
		if j.firstErr != nil {
			err = j.firstErr
		} else if err = j.appendLocked(se.e); err != nil {
			j.failLocked(err)
		}
		j.mu.Unlock()
		if se.ack != nil {
			// Delivered at settle time even when the append failed: the
			// waiter needs the error, not a hang.
			acks = append(acks, se.ack)
		}
		if err != nil {
			j.logf("journal write failed: %v", err)
		} else {
			flushed = false
			batch++
			durable = durable || se.durable
		}
		// Settle when the queue goes quiet — or when the batch has grown
		// past a bound, so a durable waiter cannot be starved by a steady
		// stream of relaxed entries keeping the queue busy.
		if (!flushed || len(acks) > 0) && (len(j.queue) == 0 || batch >= 256) {
			settle()
		}
	}
	settle()
}

// truncateTo atomically rewrites the journal keeping only entries with
// tickets past the watermark (records a just-written snapshot already
// covers). The kept suffix goes to a temp file that is fsynced and renamed
// over the journal, so a crash at any instant leaves either the full
// journal (snapshot + full replay skips the covered prefix by watermark)
// or the truncated one — never a partial file. Returns how many entries
// were kept and dropped.
func (j *journal) truncateTo(watermark uint64) (kept, dropped int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0, 0, core.ErrClosed
	}
	if err := j.w.Flush(); err != nil {
		err = fmt.Errorf("journal: flush before truncate: %w", err)
		j.failLocked(err)
		return 0, 0, err
	}
	entries, _, _, err := scanJournal(j.path)
	if err != nil {
		return 0, 0, err
	}
	tmp := j.path + ".truncating"
	tf, err := os.Create(tmp)
	if err != nil {
		return 0, 0, fmt.Errorf("journal: truncate: %w", err)
	}
	bw := bufio.NewWriter(tf)
	for _, e := range entries {
		if e.Seq <= watermark {
			dropped++
			continue
		}
		if werr := writeEntry(bw, e); werr != nil {
			tf.Close()
			os.Remove(tmp)
			return 0, 0, fmt.Errorf("journal: truncate: %w", werr)
		}
		kept++
	}
	if err := bw.Flush(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return 0, 0, fmt.Errorf("journal: truncate: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return 0, 0, fmt.Errorf("journal: truncate: %w", err)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return 0, 0, fmt.Errorf("journal: truncate: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return 0, 0, fmt.Errorf("journal: truncate: %w", err)
	}
	// The append handle still points at the replaced inode; reopen so new
	// records land in the truncated file.
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		err = fmt.Errorf("journal: reopen after truncate: %w", err)
		j.failLocked(err)
		return kept, dropped, err
	}
	old.Close()
	j.f = nf
	j.w = bufio.NewWriter(nf)
	return kept, dropped, nil
}

// close drains the queue (writing every acknowledged entry in ticket
// order), flushes, and closes the file. It returns the journal's
// sticky first write error, so callers learn about entries the writer
// could not persist. Safe to call more than once; the manager guards it
// with closeOnce.
func (j *journal) close() error {
	j.seqMu.Lock()
	if !j.closed {
		j.closed = true
		close(j.queue)
	}
	j.seqMu.Unlock()
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		if err := j.w.Flush(); err != nil {
			j.failLocked(fmt.Errorf("journal: flush: %w", err))
		} else if j.fsync {
			if err := j.syncLocked(); err != nil {
				j.failLocked(err)
			}
		}
		j.f.Close()
		j.f = nil
	}
	return j.firstErr
}

// journalRecord writes an entry if journaling is enabled. Commits and
// deletes into a folder whose policy demands DurabilityFsync carry the
// durable hint, escalating their batch to an fsync even when the manager's
// global fsync mode is off. Failures propagate: the catalog hook aborts
// the surrounding commit/delete instead of acknowledging unjournaled
// state.
func (m *Manager) journalRecord(e journalEntry) error {
	if m.journal == nil {
		return nil
	}
	durable := false
	if !m.journal.fsync && (e.Op == "commit" || e.Op == "delete") {
		durable = m.policies.get(namespace.FolderOf(e.Name)).Durability == core.DurabilityFsync
	}
	if err := m.journal.record(e, durable); err != nil {
		m.logf("journal write failed: %v", err)
		return err
	}
	return nil
}

// replayJournal reconstructs the catalog from the entries openJournal
// read, skipping entries a loaded snapshot already covers (ticket <= watermark;
// with no snapshot the watermark is 0 and everything replays, including
// pre-ticket entries that decode as Seq 0). Replay runs single-threaded
// before the manager serves, with the catalog in replaying mode (lenient
// copy-on-write validation; see catalog.replaying).
func (m *Manager) replayJournal(entries []journalEntry, watermark uint64) error {
	m.cat.replaying = true
	defer func() { m.cat.replaying = false }()
	replayed := 0
	for i, e := range entries {
		if watermark > 0 && e.Seq <= watermark {
			continue
		}
		replayed++
		switch e.Op {
		case "commit":
			m.cat.replayAt = e.CommittedAt
			_, _, _, err := m.cat.commit(e.Name, namespace.FolderOf(e.Name), e.Replication, e.ChunkSize, e.Variable, e.FileSize, e.Chunks, e.Writer)
			m.cat.replayAt = time.Time{}
			if err != nil {
				return fmt.Errorf("entry %d (commit %s): %w", i, e.Name, err)
			}
		case "delete":
			if _, err := m.cat.deleteVersion(e.Name, e.Version); err != nil && !errors.Is(err, core.ErrNotFound) {
				return fmt.Errorf("entry %d (delete %s): %w", i, e.Name, err)
			}
		case "policy":
			if e.Policy != nil {
				m.policies.set(e.Name, *e.Policy)
			}
		case "decommission":
			// Name carries the dead node's ID. Replaying the drop keeps a
			// restarted manager from resurrecting chunk locations on a node
			// that was declared dead before the crash; if the node later
			// rejoins, register's inventory reconciliation re-adopts them.
			m.cat.dropLocationEverywhere(core.NodeID(e.Name))
		default:
			return fmt.Errorf("entry %d: unknown journal op %q", i, e.Op)
		}
	}
	m.ctr.journalReplayed.Store(int64(replayed))
	if replayed > 0 {
		m.logf("replayed %d journal entries (watermark %d)", replayed, watermark)
	}
	return nil
}
