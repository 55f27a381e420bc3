package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"stdchk/internal/core"
)

// stores returns one of each implementation, fresh, for table-driven tests.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := OpenDisk(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"memory": NewMemory(0, nil),
		"disk":   disk,
	}
}

func chunk(seed int64, n int) (core.ChunkID, []byte) {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return core.HashChunk(b), b
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			id, data := chunk(1, 4096)
			if _, err := s.Put(id, data); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("payload mismatch")
			}
			if !s.Has(id) {
				t.Fatal("Has() false after Put")
			}
			if s.Used() != 4096 || s.Len() != 1 {
				t.Fatalf("Used=%d Len=%d", s.Used(), s.Len())
			}
		})
	}
}

func TestPutRejectsCorruptChunk(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			_, data := chunk(2, 128)
			var bogus core.ChunkID
			bogus[0] = 0xde
			if _, err := s.Put(bogus, data); !errors.Is(err, core.ErrIntegrity) {
				t.Fatalf("want ErrIntegrity, got %v", err)
			}
			if s.Len() != 0 {
				t.Fatal("corrupt chunk was stored")
			}
		})
	}
}

func TestPutIdempotent(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			id, data := chunk(3, 1024)
			for i := 0; i < 3; i++ {
				if _, err := s.Put(id, data); err != nil {
					t.Fatal(err)
				}
			}
			if s.Used() != 1024 || s.Len() != 1 {
				t.Fatalf("duplicate Put changed accounting: Used=%d Len=%d", s.Used(), s.Len())
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			id, _ := chunk(4, 10)
			if _, err := s.Get(id); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("want ErrNotFound, got %v", err)
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			id, data := chunk(5, 512)
			if _, err := s.Put(id, data); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			if s.Has(id) || s.Used() != 0 || s.Len() != 0 {
				t.Fatal("chunk survives Delete")
			}
			// Deleting again is a no-op.
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCapacityEnforced(t *testing.T) {
	mem := NewMemory(1000, nil)
	defer mem.Close()
	disk, err := OpenDisk(t.TempDir(), 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for name, s := range map[string]Store{"memory": mem, "disk": disk} {
		t.Run(name, func(t *testing.T) {
			id1, d1 := chunk(6, 600)
			if _, err := s.Put(id1, d1); err != nil {
				t.Fatal(err)
			}
			id2, d2 := chunk(7, 600)
			if _, err := s.Put(id2, d2); !errors.Is(err, core.ErrNoSpace) {
				t.Fatalf("want ErrNoSpace, got %v", err)
			}
			if s.Capacity() != 1000 {
				t.Fatalf("Capacity() = %d", s.Capacity())
			}
			// Freeing space allows the put to succeed.
			if err := s.Delete(id1); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Put(id2, d2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInventorySorted(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			want := 20
			for i := 0; i < want; i++ {
				id, data := chunk(int64(100+i), 64)
				if _, err := s.Put(id, data); err != nil {
					t.Fatal(err)
				}
			}
			inv := s.Inventory()
			if len(inv) != want {
				t.Fatalf("inventory has %d ids, want %d", len(inv), want)
			}
			for i := 1; i < len(inv); i++ {
				if bytes.Compare(inv[i-1][:], inv[i][:]) >= 0 {
					t.Fatal("inventory not sorted")
				}
			}
		})
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id, data := chunk(8, 64)
			if _, err := s.Put(id, data); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if _, err := s.Put(id, data); !errors.Is(err, core.ErrClosed) {
				t.Fatalf("Put after close: %v", err)
			}
			if _, err := s.Get(id); !errors.Is(err, core.ErrClosed) {
				t.Fatalf("Get after close: %v", err)
			}
			if err := s.Delete(id); !errors.Is(err, core.ErrClosed) {
				t.Fatalf("Delete after close: %v", err)
			}
		})
	}
}

func TestDiskStoreReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDisk(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ids []core.ChunkID
	var payloads [][]byte
	for i := 0; i < 5; i++ {
		id, data := chunk(int64(200+i), 256)
		if _, err := d1.Put(id, data); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		payloads = append(payloads, data)
	}
	d1.Close()

	d2, err := OpenDisk(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 5 || d2.Used() != 5*256 {
		t.Fatalf("reopened store: Len=%d Used=%d", d2.Len(), d2.Used())
	}
	for i, id := range ids {
		got, err := d2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatal("payload corrupted across reopen")
		}
	}
}

// TestMemoryOwnershipAndReadIsolation: no store keeps the caller's slice
// (Put's bool says so for both implementations, new chunk or duplicate),
// and reads never alias the stored bytes.
func TestMemoryOwnershipAndReadIsolation(t *testing.T) {
	for name, s := range stores(t) {
		id, data := chunk(9, 64)
		for _, put := range []string{"new", "duplicate"} {
			if retained, err := s.Put(id, data); err != nil || retained {
				t.Fatalf("%s: Put of a %s chunk: retained %v, err %v", name, put, retained, err)
			}
		}
		got, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		got[1] ^= 0xff // mutating the result must not reach the store
		again, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if core.HashChunk(again) != id {
			t.Fatalf("%s: store returned its internal buffer", name)
		}
		s.Close()
	}
}

// TestMemoryPutDoesNotAliasOrOverhang stores the first 8 KB of a 64 KB
// buffer — the shape of a small chunk arriving in a pooled wire buffer —
// and then scribbles over the buffer, as the pool's next user would. The
// stored chunk must be untouched, and must hold 8 KB, not pin 64.
func TestMemoryPutDoesNotAliasOrOverhang(t *testing.T) {
	s := NewMemory(0, nil)
	defer s.Close()
	buf := make([]byte, 64<<10)
	rand.New(rand.NewSource(3)).Read(buf)
	data := buf[:8<<10]
	id := core.HashChunk(data)
	want := append([]byte(nil), data...)
	if _, err := s.Put(id, data); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xee
	}
	got, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stored chunk changed when the caller reused its buffer")
	}
	s.mu.RLock()
	stored := s.chunks[id]
	s.mu.RUnlock()
	if len(stored) != len(want) || cap(stored) != len(stored) {
		t.Fatalf("stored slice has len %d cap %d, want both %d", len(stored), cap(stored), len(want))
	}
}

func TestGetIntoServesCallerBuffer(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			id, data := chunk(11, 4096)
			if _, err := s.Put(id, append([]byte(nil), data...)); err != nil {
				t.Fatal(err)
			}
			// Large enough: the result must alias dst (no allocation).
			dst := make([]byte, 0, 8192)
			got, err := s.GetInto(id, dst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("payload mismatch")
			}
			if &got[0] != &dst[:1][0] {
				t.Fatal("GetInto did not serve into the caller's buffer")
			}
			// Too small: the store allocates a fresh buffer.
			small := make([]byte, 0, 16)
			got, err = s.GetInto(id, small)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("payload mismatch after grow")
			}
		})
	}
}

func TestStorePropertyRandomOps(t *testing.T) {
	f := func(seeds []int64) bool {
		if len(seeds) > 24 {
			seeds = seeds[:24]
		}
		s := NewMemory(0, nil)
		defer s.Close()
		live := make(map[core.ChunkID][]byte)
		for _, seed := range seeds {
			size := int(uint64(seed) % 977)
			id, data := chunk(seed, size+1)
			switch uint64(seed) % 3 {
			case 0, 1:
				if _, err := s.Put(id, data); err != nil {
					return false
				}
				live[id] = data
			case 2:
				if err := s.Delete(id); err != nil {
					return false
				}
				delete(live, id)
			}
		}
		if s.Len() != len(live) {
			return false
		}
		var want int64
		for id, data := range live {
			want += int64(len(data))
			got, err := s.Get(id)
			if err != nil || !bytes.Equal(got, data) {
				return false
			}
		}
		return s.Used() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := NewMemory(0, nil)
	defer s.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				id, data := chunk(int64(i*1000+j), 512)
				if _, err := s.Put(id, data); err != nil {
					errs <- err
					return
				}
				got, err := s.Get(id)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("mismatch on %s", id.Short())
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
