package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/wire"
)

// metaCodec is what every binary message is, through its pointer.
type metaCodec interface {
	AppendMeta(dst []byte) []byte
	ParseMeta(b []byte) error
}

// gen builds message values out of fuzz input, zeros once it runs dry.
// It only makes what encoding/json — the reference — round-trips exactly:
// valid UTF-8 strings, nil rather than empty lists, years JSON can print.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *gen) n(max int) int { return int(g.byte()) % (max + 1) }
func (g *gen) bool() bool    { return g.byte()&1 == 1 }

func (g *gen) i64() int64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(g.byte())
	}
	switch g.n(3) { // mostly small magnitudes, some full-width, some negative
	case 0:
		return int64(v)
	case 1:
		return -int64(v >> 40)
	default:
		return int64(v >> 40)
	}
}

func (g *gen) str() string {
	b := make([]byte, g.n(20))
	for i := range b {
		b[i] = ' ' + g.byte()%95
	}
	return string(b)
}

func (g *gen) id() (id core.ChunkID) {
	for i := range id {
		id[i] = g.byte()
	}
	return id
}

func (g *gen) ids() []core.ChunkID {
	var ids []core.ChunkID
	for n := g.n(5); n > 0; n-- {
		ids = append(ids, g.id())
	}
	return ids
}

func (g *gen) nodes() []core.NodeID {
	var nodes []core.NodeID
	for n := g.n(3); n > 0; n-- {
		nodes = append(nodes, core.NodeID(g.str()))
	}
	return nodes
}

func (g *gen) time() time.Time {
	switch g.n(2) {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(int64(uint32(g.i64())), int64(g.n(255))*3_921_568).UTC()
	default: // a zone JSON keeps and the binary form drops: Equal, not ==
		return time.Unix(int64(uint32(g.i64())), 0).In(time.FixedZone("", 3600*(g.n(24)-12)))
	}
}

func (g *gen) chunkMap() *core.ChunkMap {
	if g.n(4) == 0 {
		return nil
	}
	m := &core.ChunkMap{
		Dataset: core.DatasetID(g.i64()), Version: core.VersionID(g.i64()),
		FileSize: g.i64(), ChunkSize: g.i64(), Variable: g.bool(), CreatedAt: g.time(),
	}
	for n := g.n(4); n > 0; n-- {
		m.Chunks = append(m.Chunks, core.ChunkRef{Index: int(g.i64()), ID: g.id(), Size: g.i64()})
	}
	for n := g.n(4); n > 0; n-- {
		m.Locations = append(m.Locations, g.nodes())
	}
	return m
}

func (g *gen) namedMaps() []NamedMap {
	var maps []NamedMap
	for n := g.n(3); n > 0; n-- {
		maps = append(maps, NamedMap{Name: g.str(), Map: g.chunkMap()})
	}
	return maps
}

// binaryMetas lists every message with the binary form, each with a
// builder over gen. TestBinaryIffCarriesChunkIDs holds the list complete.
var binaryMetas = []struct {
	name string
	gen  func(g *gen) metaCodec
}{
	{"PutReq", func(g *gen) metaCodec { return &PutReq{ID: g.id()} }},
	{"GetReq", func(g *gen) metaCodec { return &GetReq{ID: g.id()} }},
	{"BatchGetReq", func(g *gen) metaCodec { return &BatchGetReq{IDs: g.ids()} }},
	{"BatchGetResp", func(g *gen) metaCodec {
		r := &BatchGetResp{}
		for n := g.n(5); n > 0; n-- {
			r.Sizes = append(r.Sizes, g.i64())
		}
		return r
	}},
	{"HasReq", func(g *gen) metaCodec { return &HasReq{IDs: g.ids()} }},
	{"HasResp", func(g *gen) metaCodec {
		r := &HasResp{}
		for n := g.n(9); n > 0; n-- {
			r.Present = append(r.Present, g.bool())
		}
		return r
	}},
	{"DelReq", func(g *gen) metaCodec { return &DelReq{IDs: g.ids()} }},
	{"ReplicateReq", func(g *gen) metaCodec { return &ReplicateReq{ID: g.id(), Target: g.str()} }},
	{"MapPutReq", func(g *gen) metaCodec { return &MapPutReq{Name: g.str(), Map: g.chunkMap()} }},
	{"MapListResp", func(g *gen) metaCodec { return &MapListResp{Maps: g.namedMaps()} }},
	{"RegisterReq", func(g *gen) metaCodec {
		return &RegisterReq{ID: core.NodeID(g.str()), Addr: g.str(), Capacity: g.i64(), Free: g.i64(), Chunks: g.ids()}
	}},
	{"RegisterResp", func(g *gen) metaCodec {
		return &RegisterResp{HeartbeatInterval: time.Duration(g.i64()), Recovering: g.bool(), Reconciled: int(g.i64()), Garbage: g.ids()}
	}},
	{"HeartbeatReq", func(g *gen) metaCodec {
		return &HeartbeatReq{ID: core.NodeID(g.str()), Free: g.i64(), Used: g.i64(), Chunks: int(g.i64()), Corrupt: g.ids()}
	}},
	{"CommitReq", func(g *gen) metaCodec {
		r := &CommitReq{WriteID: uint64(g.i64()), FileSize: g.i64()}
		for n := g.n(5); n > 0; n-- {
			r.Chunks = append(r.Chunks, CommitChunk{ID: g.id(), Size: g.i64(), Locations: g.nodes()})
		}
		return r
	}},
	{"GetMapResp", func(g *gen) metaCodec {
		return &GetMapResp{Name: g.str(), Map: g.chunkMap()}
	}},
	{"GetMapsResp", func(g *gen) metaCodec { return &GetMapsResp{Maps: g.namedMaps()} }},
	{"GCReportReq", func(g *gen) metaCodec { return &GCReportReq{ID: core.NodeID(g.str()), IDs: g.ids()} }},
	{"GCReportResp", func(g *gen) metaCodec { return &GCReportResp{Deletable: g.ids()} }},
}

// fresh returns a zero value of v's message type.
func fresh(v metaCodec) metaCodec {
	return reflect.New(reflect.TypeOf(v).Elem()).Interface().(metaCodec)
}

// chunkMaps returns the chunk maps inside a message, in order.
func chunkMaps(v metaCodec) []*core.ChunkMap {
	var named []NamedMap
	switch r := v.(type) {
	case *MapPutReq:
		return []*core.ChunkMap{r.Map}
	case *GetMapResp:
		return []*core.ChunkMap{r.Map}
	case *MapListResp:
		named = r.Maps
	case *GetMapsResp:
		named = r.Maps
	}
	var maps []*core.ChunkMap
	for _, nm := range named {
		maps = append(maps, nm.Map)
	}
	return maps
}

// sameMessage is reflect.DeepEqual with times compared by Equal: a time's
// zone is presentation, which JSON carries and the binary form does not.
func sameMessage(a, b metaCodec) bool {
	am, bm := chunkMaps(a), chunkMaps(b)
	if len(am) != len(bm) {
		return false
	}
	for i := range am {
		if am[i] == nil || bm[i] == nil {
			continue // DeepEqual settles nil against non-nil
		}
		if !am[i].CreatedAt.Equal(bm[i].CreatedAt) {
			return false
		}
		bm[i].CreatedAt = am[i].CreatedAt
	}
	return reflect.DeepEqual(a, b)
}

// FuzzMetaCodec holds the binary codecs to two properties. Arbitrary bytes
// parse or are refused, never panic, and whatever parses re-encodes to
// bytes that parse to the same value. And a value built from the input
// comes back from the binary round trip exactly as it comes back from the
// encoding/json round trip — JSON, which these messages used to travel as,
// is the reference.
func FuzzMetaCodec(f *testing.F) {
	for i, m := range binaryMetas {
		seed := bytes.Repeat([]byte{byte(37*i + 11), byte(i), 0xc5, 3}, 40)
		f.Add(seed)
		f.Add(m.gen(&gen{b: seed}).AppendMeta(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // a count of 2^63
	f.Add(binary.AppendUvarint(nil, 1<<40))                                   // a count no input could back
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range binaryMetas {
			parsed := m.gen(&gen{})
			if err := parsed.ParseMeta(data); err == nil {
				again := fresh(parsed)
				if err := again.ParseMeta(parsed.AppendMeta(nil)); err != nil {
					t.Fatalf("%s: re-encoding of accepted input refused: %v", m.name, err)
				}
				if !reflect.DeepEqual(parsed, again) {
					t.Fatalf("%s: accepted input re-encodes to a different value:\n%+v\n%+v", m.name, parsed, again)
				}
			}

			v := m.gen(&gen{b: data})
			viaBinary, viaJSON := fresh(v), fresh(v)
			if err := viaBinary.ParseMeta(v.AppendMeta(nil)); err != nil {
				t.Fatalf("%s: own encoding refused: %v\n%+v", m.name, err, v)
			}
			js, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if err := json.Unmarshal(js, viaJSON); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if !sameMessage(viaJSON, viaBinary) {
				t.Fatalf("%s: binary and JSON round trips differ:\nvalue  %+v\nbinary %+v\njson   %s", m.name, v, viaBinary, js)
			}
		}
	})
}

// TestMetaCodecRefusesDamage cuts a valid encoding of every binary message
// at every length and appends a byte to it: each must be refused. Counts
// no remaining input could back must be refused before they size anything.
func TestMetaCodecRefusesDamage(t *testing.T) {
	seed := bytes.Repeat([]byte{0x5b, 0xe2, 0x07, 0x91, 0x3c}, 60)
	for _, m := range binaryMetas {
		v := m.gen(&gen{b: seed})
		enc := v.AppendMeta(nil)
		if err := fresh(v).ParseMeta(enc); err != nil {
			t.Fatalf("%s: own encoding refused: %v", m.name, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if err := fresh(v).ParseMeta(enc[:cut]); err == nil {
				t.Errorf("%s: accepted its encoding cut to %d of %d bytes", m.name, cut, len(enc))
			}
		}
		if err := fresh(v).ParseMeta(append(enc[:len(enc):len(enc)], 0)); err == nil {
			t.Errorf("%s: accepted a trailing byte", m.name)
		}
	}
	huge := binary.AppendUvarint(nil, 1<<50)
	for _, v := range []metaCodec{&HasReq{}, &HasResp{}, &BatchGetResp{}, &CommitReq{}, &GetMapsResp{}} {
		in := huge
		if _, ok := v.(*CommitReq); ok {
			in = append([]byte{1, 2}, huge...) // write ID and file size first
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := v.ParseMeta(in); err == nil {
				t.Errorf("%T accepted a count of 2^50", v)
			}
		})
		if allocs > 0 {
			t.Errorf("%T allocated %v times refusing a forged count", v, allocs)
		}
	}
}

// perIDAnswers are the two responses that carry no chunk ID themselves but
// one entry per ID of the request they answer, so they grow with it.
var perIDAnswers = map[string]bool{"HasResp": true, "BatchGetResp": true}

// TestBinaryIffCarriesChunkIDs reads the package source and holds it to
// the rule in the package comment: a message — a struct that is not a
// field of another — has the AppendMeta/ParseMeta pair exactly when chunk
// IDs are reachable from its fields (or it is one of the perIDAnswers),
// and binaryMetas lists each of them.
func TestBinaryIffCarriesChunkIDs(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := goparser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	structs := map[string]*ast.StructType{}
	methods := map[string]map[string]bool{}
	for _, file := range pkgs["proto"].Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if st, ok := ts.Type.(*ast.StructType); ok {
							structs[ts.Name.Name] = st
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv == nil {
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name := recv.(*ast.Ident).Name
				if methods[name] == nil {
					methods[name] = map[string]bool{}
				}
				methods[name][d.Name.Name] = true
			}
		}
	}
	// mentions walks a field's type expression for the named types in it.
	mentions := func(st *ast.StructType, visit func(name string)) {
		for _, field := range st.Fields.List {
			ast.Inspect(field.Type, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					visit(x.X.(*ast.Ident).Name + "." + x.Sel.Name)
					return false
				case *ast.Ident:
					visit(x.Name)
				}
				return true
			})
		}
	}
	nested := map[string]bool{}
	var carries func(name string) bool
	carries = func(name string) bool {
		found := false
		mentions(structs[name], func(ref string) {
			if ref == "core.ChunkID" || ref == "core.ChunkMap" || (structs[ref] != nil && carries(ref)) {
				found = true
			}
		})
		return found
	}
	for _, st := range structs {
		mentions(st, func(ref string) {
			if structs[ref] != nil {
				nested[ref] = true
			}
		})
	}
	listed := map[string]bool{}
	for _, m := range binaryMetas {
		listed[m.name] = true
	}
	for name := range structs {
		binaryForm := methods[name]["AppendMeta"] || methods[name]["ParseMeta"]
		if binaryForm && !(methods[name]["AppendMeta"] && methods[name]["ParseMeta"]) {
			t.Errorf("%s has half of the AppendMeta/ParseMeta pair", name)
		}
		switch want := (carries(name) || perIDAnswers[name]) && !nested[name]; {
		case want && !binaryForm:
			t.Errorf("%s carries chunk IDs but would travel as JSON: give it the binary pair in codec.go", name)
		case !want && binaryForm:
			t.Errorf("%s has the binary pair but carries no chunk IDs (or is only ever a field): it should be JSON", name)
		case binaryForm && !listed[name]:
			t.Errorf("%s is binary but missing from binaryMetas, so nothing fuzzes it", name)
		}
	}
	if len(listed) != len(binaryMetas) {
		t.Error("binaryMetas names a message twice")
	}
}

// TestIDListFitsOneFrame: a registration and a GC report carrying
// MaxRegisterChunks IDs, with far longer names than any node has, fit the
// frame header — the bound is derived from a mirror of wire.MaxHeaderLen,
// and this is the proof that the mirror is true and the bound holds.
func TestIDListFitsOneFrame(t *testing.T) {
	ids := make([]core.ChunkID, MaxRegisterChunks)
	for i := range ids {
		binary.BigEndian.PutUint64(ids[i][:], uint64(i))
	}
	long := strings.Repeat("n", 1000)
	for _, meta := range []interface{}{
		RegisterReq{ID: core.NodeID(long), Addr: long, Capacity: 1 << 62, Free: 1 << 62, Chunks: ids},
		RegisterResp{HeartbeatInterval: time.Hour, Reconciled: 1 << 30, Garbage: ids},
		GCReportReq{ID: core.NodeID(long), IDs: ids},
		GCReportResp{Deletable: ids},
	} {
		raw, err := wire.MarshalMeta(meta)
		if err != nil {
			t.Fatal(err)
		}
		var frame bytes.Buffer
		if err := wire.Write(&frame, &wire.Msg{Op: MRegister, Session: 1 << 62, Err: long, Meta: raw}); err != nil {
			t.Errorf("%T with %d IDs: %v", meta, len(ids), err)
		}
	}
	if maxHeaderLen != wire.MaxHeaderLen {
		t.Errorf("maxHeaderLen is %d, wire.MaxHeaderLen %d", maxHeaderLen, wire.MaxHeaderLen)
	}
}

// BenchmarkMetaCodec measures one encode plus one decode of the metas on
// the checkpoint path, at the sizes the benchmark workloads send: a put, a
// 128-ID dedup probe, the commit of an 8-chunk and of a 542-chunk version,
// and the map of the latter.
func BenchmarkMetaCodec(b *testing.B) {
	ids := make([]core.ChunkID, 542)
	for i := range ids {
		ids[i] = core.HashChunk([]byte{byte(i), byte(i >> 8)})
	}
	commit := func(n int) *CommitReq {
		r := &CommitReq{WriteID: 77, FileSize: int64(n) * 8 << 10}
		for i := 0; i < n; i++ {
			r.Chunks = append(r.Chunks, CommitChunk{ID: ids[i], Size: 8 << 10,
				Locations: []core.NodeID{core.NodeID(fmt.Sprintf("127.0.0.1:%d", 40000+i%4))}})
		}
		return r
	}
	cm := &core.ChunkMap{Dataset: 3, Version: 9, FileSize: 542 * 8 << 10, ChunkSize: 8 << 10, CreatedAt: time.Unix(1_700_000_000, 5)}
	for i, c := range commit(542).Chunks {
		cm.Chunks = append(cm.Chunks, core.ChunkRef{Index: i, ID: c.ID, Size: c.Size})
		cm.Locations = append(cm.Locations, c.Locations)
	}
	for _, bc := range []struct {
		name string
		v    metaCodec
	}{
		{"PutReq", &PutReq{ID: ids[0]}},
		{"HasReq128", &HasReq{IDs: ids[:128]}},
		{"CommitReq8", commit(8)},
		{"CommitReq542", commit(542)},
		{"GetMapResp542", &GetMapResp{Name: "app.n1.t9", Map: cm}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			raw, _ := wire.MarshalMeta(bc.v)
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				raw, err := wire.MarshalMeta(bc.v)
				if err != nil {
					b.Fatal(err)
				}
				// A fresh value each time, as a handler decodes into.
				if err := wire.UnmarshalMeta(raw, fresh(bc.v)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
