package wire

import (
	"encoding/json"
	"fmt"
)

// metaAppender and metaParser are the method pair by which a message type
// selects the binary meta encoding (package proto implements them for
// every message that carries chunk IDs, and for the per-checkpoint session
// messages). A type with neither is JSON.
type (
	metaAppender interface {
		AppendMeta(dst []byte) []byte
	}
	metaParser interface {
		ParseMeta(b []byte) error
	}
)

// MarshalMeta encodes v as a message's Meta field: v's own binary layout
// when it has one (an AppendMeta method), JSON otherwise.
func MarshalMeta(v interface{}) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	if a, ok := v.(metaAppender); ok {
		return a.AppendMeta(nil), nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal meta: %w", err)
	}
	return b, nil
}

// UnmarshalMeta decodes a message's Meta field into v, by v's ParseMeta
// method when it has one and as JSON otherwise. An empty Meta leaves v
// untouched.
func UnmarshalMeta(raw []byte, v interface{}) error {
	if len(raw) == 0 {
		return nil
	}
	var err error
	if p, ok := v.(metaParser); ok {
		err = p.ParseMeta(raw)
	} else {
		err = json.Unmarshal(raw, v)
	}
	if err != nil {
		return fmt.Errorf("wire: decode meta: %w", err)
	}
	return nil
}
