// Package store implements the chunk storage a benefactor contributes:
// content-addressed chunk persistence with integrity verification, capacity
// accounting and the inventory listing used by the manager's garbage
// collection protocol (paper §IV.A).
//
// Two implementations are provided: an in-memory store (tests, simulation)
// and a disk-backed store (daemon deployments). Both verify that chunk
// bytes match their content-based name, which is stdchk's defence against
// faulty or malicious benefactors (paper §IV.C).
//
// Buffers stay with the caller on both sides: Put never keeps the slice
// it is handed (the memory store copies into an exact-size slice, the disk
// store writes a file), so a caller recycling buffers may reuse data as
// soon as Put returns, and GetInto serves reads into a caller-provided
// buffer so the steady-state read path allocates nothing.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"stdchk/internal/core"
	"stdchk/internal/device"
)

// Store is the benefactor-side chunk repository.
type Store interface {
	// Put stores a chunk under its content-based name, verifying
	// integrity. Storing an already-present chunk is a no-op. The store
	// never retains data: the caller may reuse or recycle it as soon as
	// Put returns. The bool result is always false — it once reported a
	// retained buffer, and stays only because the separately compiled
	// bench/ module discards two results.
	Put(id core.ChunkID, data []byte) (bool, error)
	// Get returns a copy of the chunk bytes. core.ErrNotFound if absent.
	Get(id core.ChunkID) ([]byte, error)
	// GetInto returns the chunk bytes, served into dst when cap(dst) is
	// large enough (the result then aliases dst); otherwise a fresh
	// buffer is allocated. core.ErrNotFound if absent.
	GetInto(id core.ChunkID, dst []byte) ([]byte, error)
	// Has reports presence without transferring data.
	Has(id core.ChunkID) bool
	// Size returns the stored size of a chunk without transferring data,
	// so callers can size read buffers exactly. ok is false if absent.
	Size(id core.ChunkID) (size int64, ok bool)
	// Delete removes a chunk. Deleting an absent chunk is a no-op.
	Delete(id core.ChunkID) error
	// Inventory lists all stored chunk IDs (sorted, for determinism).
	Inventory() []core.ChunkID
	// Used returns the stored byte total.
	Used() int64
	// Capacity returns the configured byte capacity (0 = unlimited).
	Capacity() int64
	// Len returns the number of stored chunks.
	Len() int
	// Close releases resources.
	Close() error
}

// Memory is an in-memory Store paced by an optional disk model, so a
// simulated benefactor exhibits the paper's disk bandwidth without
// physical I/O.
type Memory struct {
	disk     *device.Disk
	capacity int64

	mu     sync.RWMutex
	chunks map[core.ChunkID][]byte
	used   int64
	closed bool
}

var _ Store = (*Memory)(nil)

// NewMemory returns an in-memory store with the given capacity in bytes
// (0 = unlimited), paced by disk (nil = unpaced).
func NewMemory(capacity int64, disk *device.Disk) *Memory {
	return &Memory{
		disk:     disk,
		capacity: capacity,
		chunks:   make(map[core.ChunkID][]byte),
	}
}

// Put implements Store. The chunk is copied into a slice of exactly its
// size: keeping the caller's slice instead would pin that buffer's whole
// capacity (a 64 KB pooled wire buffer under an 8 KB chunk) for the
// chunk's lifetime and cost the pool a fresh buffer per put.
func (m *Memory) Put(id core.ChunkID, data []byte) (bool, error) {
	if core.HashChunk(data) != id {
		return false, fmt.Errorf("put %s: %w", id.Short(), core.ErrIntegrity)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false, core.ErrClosed
	}
	if _, ok := m.chunks[id]; ok {
		m.mu.Unlock()
		return false, nil
	}
	if m.capacity > 0 && m.used+int64(len(data)) > m.capacity {
		m.mu.Unlock()
		return false, fmt.Errorf("put %s (%d bytes): %w", id.Short(), len(data), core.ErrNoSpace)
	}
	m.chunks[id] = append([]byte(nil), data...) // not zero-filled first
	m.used += int64(len(data))
	m.mu.Unlock()

	m.disk.Write(len(data)) // pace outside the lock: the spindle queue serializes
	return false, nil
}

// Get implements Store.
func (m *Memory) Get(id core.ChunkID) ([]byte, error) {
	return m.GetInto(id, nil)
}

// GetInto implements Store: the chunk is copied into dst when it fits
// (stored bytes are never aliased out, so callers can mutate the result).
func (m *Memory) GetInto(id core.ChunkID, dst []byte) ([]byte, error) {
	m.mu.RLock()
	data, ok := m.chunks[id]
	closed := m.closed
	m.mu.RUnlock()
	if closed {
		return nil, core.ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("get %s: %w", id.Short(), core.ErrNotFound)
	}
	m.disk.Read(len(data))
	if cap(dst) >= len(data) {
		dst = dst[:len(data)]
		copy(dst, data)
		return dst, nil
	}
	return append([]byte(nil), data...), nil
}

// Has implements Store.
func (m *Memory) Has(id core.ChunkID) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.chunks[id]
	return ok
}

// Size implements Store.
func (m *Memory) Size(id core.ChunkID) (int64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.chunks[id]
	return int64(len(data)), ok
}

// Delete implements Store.
func (m *Memory) Delete(id core.ChunkID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return core.ErrClosed
	}
	if data, ok := m.chunks[id]; ok {
		m.used -= int64(len(data))
		delete(m.chunks, id)
	}
	return nil
}

// Inventory implements Store.
func (m *Memory) Inventory() []core.ChunkID {
	m.mu.RLock()
	ids := make([]core.ChunkID, 0, len(m.chunks))
	for id := range m.chunks {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	sortIDs(ids)
	return ids
}

// Used implements Store.
func (m *Memory) Used() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.used
}

// Capacity implements Store.
func (m *Memory) Capacity() int64 { return m.capacity }

// Len implements Store.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.chunks)
}

// Close implements Store.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.chunks = nil
	m.used = 0
	return nil
}

// Disk is a file-backed Store: each chunk is a file named by its hex hash
// under a two-level fan-out directory, the layout used by content-addressed
// stores to keep directories small.
type Disk struct {
	dir      string
	capacity int64
	model    *device.Disk

	mu     sync.Mutex
	index  map[core.ChunkID]int64 // id -> size
	used   int64
	closed bool
}

var _ Store = (*Disk)(nil)

// OpenDisk opens (creating if necessary) a disk store rooted at dir and
// rebuilds its index from the existing files, so a restarted benefactor
// re-offers its chunks (the GC protocol reconciles them with the manager).
func OpenDisk(dir string, capacity int64, model *device.Disk) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("open disk store: %w", err)
	}
	d := &Disk{
		dir:      dir,
		capacity: capacity,
		model:    model,
		index:    make(map[core.ChunkID]int64),
	}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		id, perr := core.ParseChunkID(info.Name())
		if perr != nil {
			return nil // foreign file; ignore
		}
		d.index[id] = info.Size()
		d.used += info.Size()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("index disk store: %w", err)
	}
	return d, nil
}

func (d *Disk) path(id core.ChunkID) string {
	name := id.String()
	return filepath.Join(d.dir, name[:2], name)
}

// Put implements Store.
func (d *Disk) Put(id core.ChunkID, data []byte) (bool, error) {
	if core.HashChunk(data) != id {
		return false, fmt.Errorf("put %s: %w", id.Short(), core.ErrIntegrity)
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return false, core.ErrClosed
	}
	if _, ok := d.index[id]; ok {
		d.mu.Unlock()
		return false, nil
	}
	if d.capacity > 0 && d.used+int64(len(data)) > d.capacity {
		d.mu.Unlock()
		return false, fmt.Errorf("put %s (%d bytes): %w", id.Short(), len(data), core.ErrNoSpace)
	}
	// Reserve the space under the lock; write the file outside it.
	d.index[id] = int64(len(data))
	d.used += int64(len(data))
	d.mu.Unlock()

	path := d.path(id)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		d.unindex(id, int64(len(data)))
		return false, fmt.Errorf("put %s: %w", id.Short(), err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		d.unindex(id, int64(len(data)))
		return false, fmt.Errorf("put %s: %w", id.Short(), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		d.unindex(id, int64(len(data)))
		return false, fmt.Errorf("put %s: %w", id.Short(), err)
	}
	d.model.Write(len(data))
	return false, nil
}

func (d *Disk) unindex(id core.ChunkID, size int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.index[id]; ok {
		delete(d.index, id)
		d.used -= size
	}
}

// Get implements Store.
func (d *Disk) Get(id core.ChunkID) ([]byte, error) {
	return d.GetInto(id, nil)
}

// GetInto implements Store: the chunk file is read directly into dst when
// it fits, so pooled read buffers make the serve path allocation-free.
func (d *Disk) GetInto(id core.ChunkID, dst []byte) ([]byte, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, core.ErrClosed
	}
	size, ok := d.index[id]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("get %s: %w", id.Short(), core.ErrNotFound)
	}
	f, err := os.Open(d.path(id))
	if err != nil {
		return nil, fmt.Errorf("get %s: %w", id.Short(), err)
	}
	defer f.Close()
	if int64(cap(dst)) >= size {
		dst = dst[:size]
	} else {
		dst = make([]byte, size)
	}
	if _, err := io.ReadFull(f, dst); err != nil {
		return nil, fmt.Errorf("get %s: %w", id.Short(), err)
	}
	if core.HashChunk(dst) != id {
		return nil, fmt.Errorf("get %s: %w", id.Short(), core.ErrIntegrity)
	}
	d.model.Read(len(dst))
	return dst, nil
}

// Has implements Store.
func (d *Disk) Has(id core.ChunkID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.index[id]
	return ok
}

// Size implements Store.
func (d *Disk) Size(id core.ChunkID) (int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	size, ok := d.index[id]
	return size, ok
}

// Delete implements Store.
func (d *Disk) Delete(id core.ChunkID) error {
	d.mu.Lock()
	size, ok := d.index[id]
	if ok {
		delete(d.index, id)
		d.used -= size
	}
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return core.ErrClosed
	}
	if !ok {
		return nil
	}
	if err := os.Remove(d.path(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("delete %s: %w", id.Short(), err)
	}
	return nil
}

// Inventory implements Store.
func (d *Disk) Inventory() []core.ChunkID {
	d.mu.Lock()
	ids := make([]core.ChunkID, 0, len(d.index))
	for id := range d.index {
		ids = append(ids, id)
	}
	d.mu.Unlock()
	sortIDs(ids)
	return ids
}

// Used implements Store.
func (d *Disk) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Capacity implements Store.
func (d *Disk) Capacity() int64 { return d.capacity }

// Len implements Store.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

// Close implements Store.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

func sortIDs(ids []core.ChunkID) {
	sort.Slice(ids, func(i, j int) bool {
		for k := range ids[i] {
			if ids[i][k] != ids[j][k] {
				return ids[i][k] < ids[j][k]
			}
		}
		return false
	})
}
