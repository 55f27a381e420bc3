package store

import (
	"testing"

	"stdchk/internal/core"
)

// BenchmarkStorePutGet measures the steady-state store hot path: store one
// 1 MB chunk, read it back, delete it.
func BenchmarkStorePutGet(b *testing.B) {
	s := NewMemory(0, nil)
	defer s.Close()
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	id := core.HashChunk(data)
	dst := make([]byte, 0, len(data))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put(id, data); err != nil {
			b.Fatal(err)
		}
		got, err := s.GetInto(id, dst)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(data) {
			b.Fatal("short read")
		}
		if err := s.Delete(id); err != nil {
			b.Fatal(err)
		}
	}
}
