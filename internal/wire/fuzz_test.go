package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadInto feeds the frame decoder arbitrary bytes. It must not panic;
// what it accepts stays within the frame limits; and an accepted frame
// re-encodes to a frame that decodes to the same Msg. Byte identity is not
// the property: an overlong varint is legal input that Write never emits.
func FuzzReadInto(f *testing.F) {
	frame := func(m Msg) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, &m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	put := frame(Msg{Op: "b.put", Session: 3, Meta: bytes.Repeat([]byte{0xa9}, 20), Body: []byte("chunk bytes")})
	f.Add(put)
	f.Add(put[:len(put)-3])                         // body cut short
	f.Add(put[:14])                                 // header cut short
	f.Add(append(append([]byte(nil), put...), 'x')) // trailing garbage
	f.Add(frame(Msg{Op: "m.commit", Err: "boom: \x00\xff", Session: 1 << 40}))
	f.Add(frame(Msg{}))
	f.Add(jsonEraFrame(`{"op":"ping","sid":1}`))
	// Overlong sid (0x80 0x00 = 0), the error flag with an empty string, op "x".
	f.Add(append([]byte{0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0}, frameVersion, flagErr, 0x80, 0x00, 1, 'x', 0))
	f.Add(append([]byte{0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0}, frameVersion, 0xfe, 0, 0))       // unknown flags
	f.Add(append([]byte{0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0}, frameVersion, 0, 0, 0xff, 0xff)) // op longer than the header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})                             // header over the limit
	f.Add([]byte{0, 0, 0, 4, 0xff, 0, 0, 0, 0, 0, 0, 0, frameVersion, 0, 0, 0})               // body over the limit
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})                                         // empty header
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 12 {
			// A claimed body the input cannot hold only ends in a short
			// read; skip the large ones rather than allocate up to
			// MaxBodyLen per execution to get there.
			if blen := binary.BigEndian.Uint64(data[4:12]); blen > uint64(len(data)) && blen > MaxPooledBuf {
				t.Skip()
			}
		}
		var m Msg
		r := bytes.NewReader(data)
		if err := ReadInto(r, &m); err != nil {
			return
		}
		if 2+len(m.Op)+len(m.Err)+len(m.Meta) > MaxHeaderLen || len(m.Body) > MaxBodyLen {
			t.Fatalf("accepted a frame over the limits: op %d err %d meta %d body %d", len(m.Op), len(m.Err), len(m.Meta), len(m.Body))
		}
		var buf bytes.Buffer
		if err := Write(&buf, &m); err != nil {
			t.Fatalf("re-encode of an accepted frame: %v", err)
		}
		var again Msg
		if err := ReadInto(&buf, &again); err != nil {
			t.Fatalf("decode of the re-encoded frame: %v", err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%d bytes left after the re-encoded frame", buf.Len())
		}
		if again.Op != m.Op || again.Err != m.Err || again.Session != m.Session ||
			!bytes.Equal(again.Meta, m.Meta) || !bytes.Equal(again.Body, m.Body) {
			t.Fatalf("re-encoded frame decoded to %+v, want %+v", again, m)
		}
	})
}
