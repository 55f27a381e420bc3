package proto

import (
	"encoding/binary"
	"errors"
	"slices"
	"time"

	"stdchk/internal/core"
)

// The binary meta layout. A message that carries chunk IDs — one, a list,
// or a chunk map — or answers an ID list entry for entry, and the four
// session messages of every checkpoint (AllocReq, AllocResp, CommitResp,
// GetMapReq), is encoded by the AppendMeta/ParseMeta pair below and by
// nothing else; package wire selects the pair by type, and every other
// message stays JSON. The layout has no field tags and no optional
// fields: a message is its fields in declaration order, each written as
//
//	unsigned integer, count, length   uvarint
//	signed integer, duration          zigzag varint
//	bool                              one byte, 0 or 1
//	string                            length + bytes
//	chunk ID                          20 raw bytes
//	list                              count + elements
//	time                              Unix seconds (varint) + nanoseconds (uvarint)
//	pointer                           presence bool + value
//	embedded Epoch                    PartitionEpoch, a uvarint
//
// Encoders append to a caller-supplied slice. Decoders run a parser over
// the meta bytes: every count and length is checked against the bytes that
// remain before anything is allocated, the first fault sticks, and bytes
// left over after the last field are a fault too — so truncated, oversized
// and trailing-garbage input comes back as errMalformed, never a panic.

var errMalformed = errors.New("proto: malformed binary meta")

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendIDs(dst []byte, ids []core.ChunkID) []byte {
	dst = slices.Grow(dst, binary.MaxVarintLen64+len(ids)*core.HashSize)
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for i := range ids {
		dst = append(dst, ids[i][:]...)
	}
	return dst
}

func appendSizes(dst []byte, sizes []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(sizes)))
	for _, s := range sizes {
		dst = binary.AppendVarint(dst, s)
	}
	return dst
}

func appendNodes(dst []byte, nodes []core.NodeID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(nodes)))
	for _, n := range nodes {
		dst = appendString(dst, string(n))
	}
	return dst
}

func appendTime(dst []byte, t time.Time) []byte {
	dst = binary.AppendVarint(dst, t.Unix())
	return binary.AppendUvarint(dst, uint64(t.Nanosecond()))
}

// appendMap writes a chunk map behind its presence byte. Chunks and
// Locations are written as the two lists they are, so a map whose lists
// disagree in length (ChunkMap.Validate's business) survives the trip.
func appendMap(dst []byte, m *core.ChunkMap) []byte {
	dst = appendBool(dst, m != nil)
	if m == nil {
		return dst
	}
	size := 8*binary.MaxVarintLen64 + len(m.Chunks)*(minChunkRef+4) + len(m.Locations)
	for _, locs := range m.Locations {
		for _, n := range locs {
			size += 1 + len(n)
		}
	}
	dst = slices.Grow(dst, size)
	dst = binary.AppendUvarint(dst, uint64(m.Dataset))
	dst = binary.AppendUvarint(dst, uint64(m.Version))
	dst = binary.AppendVarint(dst, m.FileSize)
	dst = binary.AppendVarint(dst, m.ChunkSize)
	dst = appendBool(dst, m.Variable)
	dst = appendTime(dst, m.CreatedAt)
	dst = binary.AppendUvarint(dst, uint64(len(m.Chunks)))
	for i := range m.Chunks {
		c := &m.Chunks[i]
		dst = binary.AppendVarint(dst, int64(c.Index))
		dst = append(dst, c.ID[:]...)
		dst = binary.AppendVarint(dst, c.Size)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Locations)))
	for _, locs := range m.Locations {
		dst = appendNodes(dst, locs)
	}
	return dst
}

func appendNamedMaps(dst []byte, maps []NamedMap) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(maps)))
	for _, nm := range maps {
		dst = appendString(dst, nm.Name)
		dst = appendMap(dst, nm.Map)
	}
	return dst
}

// parser consumes binary meta from the front of b. Its methods return
// zero values once err is set, so a decoder reads all its fields and asks
// end for the verdict.
type parser struct {
	b   []byte
	err error
}

func (p *parser) fail() {
	p.err = errMalformed
	p.b = nil
}

// end reports the first fault, counting unread bytes as one.
func (p *parser) end() error {
	if p.err == nil && len(p.b) > 0 {
		p.fail()
	}
	return p.err
}

func (p *parser) uvarint() uint64 {
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.fail()
		return 0
	}
	p.b = p.b[n:]
	return v
}

func (p *parser) varint() int64 {
	v, n := binary.Varint(p.b)
	if n <= 0 {
		p.fail()
		return 0
	}
	p.b = p.b[n:]
	return v
}

func (p *parser) int() int {
	v := p.varint()
	if int64(int(v)) != v {
		p.fail()
		return 0
	}
	return int(v)
}

func (p *parser) bool() bool {
	if len(p.b) == 0 || p.b[0] > 1 {
		p.fail()
		return false
	}
	v := p.b[0] == 1
	p.b = p.b[1:]
	return v
}

// count reads a list's element count and refuses one that the remaining
// bytes cannot hold at min bytes per element, so the caller may allocate
// count elements.
func (p *parser) count(min int) int {
	n := p.uvarint()
	if n > uint64(len(p.b)/min) {
		p.fail()
		return 0
	}
	return int(n)
}

func (p *parser) string() string {
	n := p.count(1)
	s := string(p.b[:n])
	p.b = p.b[n:]
	return s
}

func (p *parser) id() (id core.ChunkID) {
	if len(p.b) < core.HashSize {
		p.fail()
		return id
	}
	copy(id[:], p.b)
	p.b = p.b[core.HashSize:]
	return id
}

// Lists decode to nil when empty, like an absent JSON field.

func (p *parser) ids() []core.ChunkID {
	n := p.count(core.HashSize)
	if n == 0 {
		return nil
	}
	ids := make([]core.ChunkID, n)
	for i := range ids {
		copy(ids[i][:], p.b[i*core.HashSize:])
	}
	p.b = p.b[n*core.HashSize:]
	return ids
}

func (p *parser) sizes() []int64 {
	n := p.count(1)
	if n == 0 {
		return nil
	}
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = p.varint()
	}
	return sizes
}

func (p *parser) nodes() []core.NodeID {
	n := p.count(1)
	if n == 0 {
		return nil
	}
	nodes := make([]core.NodeID, n)
	for i := range nodes {
		nodes[i] = core.NodeID(p.string())
	}
	return nodes
}

func (p *parser) time() time.Time {
	sec, nsec := p.varint(), p.uvarint()
	if nsec >= uint64(time.Second) {
		p.fail()
	}
	if p.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// minChunkRef is the shortest encoding of a core.ChunkRef.
const minChunkRef = 1 + core.HashSize + 1

func (p *parser) chunkMap() *core.ChunkMap {
	if !p.bool() {
		return nil
	}
	m := &core.ChunkMap{
		Dataset:   core.DatasetID(p.uvarint()),
		Version:   core.VersionID(p.uvarint()),
		FileSize:  p.varint(),
		ChunkSize: p.varint(),
		Variable:  p.bool(),
		CreatedAt: p.time(),
	}
	if n := p.count(minChunkRef); n > 0 {
		m.Chunks = make([]core.ChunkRef, n)
		for i := range m.Chunks {
			m.Chunks[i] = core.ChunkRef{Index: p.int(), ID: p.id(), Size: p.varint()}
		}
	}
	if n := p.count(1); n > 0 {
		m.Locations = make([][]core.NodeID, n)
		for i := range m.Locations {
			m.Locations[i] = p.nodes()
		}
	}
	return m
}

func (p *parser) namedMaps() []NamedMap {
	n := p.count(2)
	if n == 0 {
		return nil
	}
	maps := make([]NamedMap, n)
	for i := range maps {
		maps[i] = NamedMap{Name: p.string(), Map: p.chunkMap()}
	}
	return maps
}

// AppendMeta appends the request's binary meta: the chunk ID.
func (r PutReq) AppendMeta(dst []byte) []byte { return append(dst, r.ID[:]...) }

// ParseMeta decodes AppendMeta's layout.
func (r *PutReq) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = PutReq{ID: p.id()}
	return p.end()
}

// AppendMeta appends the request's binary meta: the chunk ID.
func (r GetReq) AppendMeta(dst []byte) []byte { return append(dst, r.ID[:]...) }

// ParseMeta decodes AppendMeta's layout.
func (r *GetReq) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = GetReq{ID: p.id()}
	return p.end()
}

// AppendMeta appends the request's binary meta: the ID list.
func (r BatchGetReq) AppendMeta(dst []byte) []byte { return appendIDs(dst, r.IDs) }

// ParseMeta decodes AppendMeta's layout.
func (r *BatchGetReq) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = BatchGetReq{IDs: p.ids()}
	return p.end()
}

// AppendMeta appends the response's binary meta: the size list.
func (r BatchGetResp) AppendMeta(dst []byte) []byte { return appendSizes(dst, r.Sizes) }

// ParseMeta decodes AppendMeta's layout.
func (r *BatchGetResp) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = BatchGetResp{Sizes: p.sizes()}
	return p.end()
}

// AppendMeta appends the request's binary meta: the ID list, then the size
// list. The two are written as the lists they are, so a request whose
// lists disagree in length reaches the donor, which refuses it.
func (r BatchPutReq) AppendMeta(dst []byte) []byte {
	return appendSizes(appendIDs(dst, r.IDs), r.Sizes)
}

// ParseMeta decodes AppendMeta's layout.
func (r *BatchPutReq) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = BatchPutReq{IDs: p.ids(), Sizes: p.sizes()}
	return p.end()
}

// AppendMeta appends the request's binary meta: the ID list.
func (r HasReq) AppendMeta(dst []byte) []byte { return appendIDs(dst, r.IDs) }

// ParseMeta decodes AppendMeta's layout.
func (r *HasReq) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = HasReq{IDs: p.ids()}
	return p.end()
}

// AppendMeta appends the response's binary meta: one bool per queried ID.
func (r HasResp) AppendMeta(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.Present)))
	for _, present := range r.Present {
		dst = appendBool(dst, present)
	}
	return dst
}

// ParseMeta decodes AppendMeta's layout.
func (r *HasResp) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = HasResp{}
	if n := p.count(1); n > 0 {
		r.Present = make([]bool, n)
		for i := range r.Present {
			r.Present[i] = p.bool()
		}
	}
	return p.end()
}

// AppendMeta appends the request's binary meta: chunk ID, then target.
func (r ReplicateReq) AppendMeta(dst []byte) []byte {
	dst = append(dst, r.ID[:]...)
	return appendString(dst, r.Target)
}

// ParseMeta decodes AppendMeta's layout.
func (r *ReplicateReq) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = ReplicateReq{ID: p.id(), Target: p.string()}
	return p.end()
}

// AppendMeta appends the request's binary meta: name, then the map.
func (r MapPutReq) AppendMeta(dst []byte) []byte {
	dst = appendString(dst, r.Name)
	return appendMap(dst, r.Map)
}

// ParseMeta decodes AppendMeta's layout.
func (r *MapPutReq) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = MapPutReq{Name: p.string(), Map: p.chunkMap()}
	return p.end()
}

// AppendMeta appends the response's binary meta: the named-map list.
func (r MapListResp) AppendMeta(dst []byte) []byte { return appendNamedMaps(dst, r.Maps) }

// ParseMeta decodes AppendMeta's layout.
func (r *MapListResp) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = MapListResp{Maps: p.namedMaps()}
	return p.end()
}

// AppendMeta appends the request's binary meta: identity, space, inventory.
func (r RegisterReq) AppendMeta(dst []byte) []byte {
	dst = appendString(dst, string(r.ID))
	dst = appendString(dst, r.Addr)
	dst = binary.AppendVarint(dst, r.Capacity)
	dst = binary.AppendVarint(dst, r.Free)
	return appendIDs(dst, r.Chunks)
}

// ParseMeta decodes AppendMeta's layout.
func (r *RegisterReq) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = RegisterReq{
		ID:       core.NodeID(p.string()),
		Addr:     p.string(),
		Capacity: p.varint(),
		Free:     p.varint(),
		Chunks:   p.ids(),
	}
	return p.end()
}

// AppendMeta appends the response's binary meta, fields in declaration
// order.
func (r RegisterResp) AppendMeta(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(r.HeartbeatInterval))
	dst = appendBool(dst, r.Recovering)
	dst = binary.AppendVarint(dst, int64(r.Reconciled))
	return appendIDs(dst, r.Garbage)
}

// ParseMeta decodes AppendMeta's layout.
func (r *RegisterResp) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = RegisterResp{
		HeartbeatInterval: time.Duration(p.varint()),
		Recovering:        p.bool(),
		Reconciled:        p.int(),
		Garbage:           p.ids(),
	}
	return p.end()
}

// AppendMeta appends the request's binary meta, fields in declaration
// order.
func (r HeartbeatReq) AppendMeta(dst []byte) []byte {
	dst = appendString(dst, string(r.ID))
	dst = binary.AppendVarint(dst, r.Free)
	dst = binary.AppendVarint(dst, r.Used)
	dst = binary.AppendVarint(dst, int64(r.Chunks))
	return appendIDs(dst, r.Corrupt)
}

// ParseMeta decodes AppendMeta's layout.
func (r *HeartbeatReq) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = HeartbeatReq{
		ID:      core.NodeID(p.string()),
		Free:    p.varint(),
		Used:    p.varint(),
		Chunks:  p.int(),
		Corrupt: p.ids(),
	}
	return p.end()
}

// minCommitChunk is the shortest encoding of a CommitChunk.
const minCommitChunk = core.HashSize + 1 + 1

// AppendMeta appends the request's binary meta: session, file size, then
// each chunk as ID, size and location list.
func (r CommitReq) AppendMeta(dst []byte) []byte {
	dst = slices.Grow(dst, 3*binary.MaxVarintLen64+len(r.Chunks)*(minCommitChunk+24))
	dst = binary.AppendUvarint(dst, r.WriteID)
	dst = binary.AppendVarint(dst, r.FileSize)
	dst = binary.AppendUvarint(dst, uint64(len(r.Chunks)))
	for i := range r.Chunks {
		c := &r.Chunks[i]
		dst = append(dst, c.ID[:]...)
		dst = binary.AppendVarint(dst, c.Size)
		dst = appendNodes(dst, c.Locations)
	}
	return dst
}

// ParseMeta decodes AppendMeta's layout.
func (r *CommitReq) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = CommitReq{WriteID: p.uvarint(), FileSize: p.varint()}
	if n := p.count(minCommitChunk); n > 0 {
		r.Chunks = make([]CommitChunk, n)
		for i := range r.Chunks {
			r.Chunks[i] = CommitChunk{ID: p.id(), Size: p.varint(), Locations: p.nodes()}
		}
	}
	return p.end()
}

// AppendMeta appends the response's binary meta: name, version, map.
func (r GetMapResp) AppendMeta(dst []byte) []byte {
	dst = binary.AppendUvarint(appendString(dst, r.Name), uint64(r.Version))
	return appendMap(dst, r.Map)
}

// ParseMeta decodes AppendMeta's layout.
func (r *GetMapResp) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = GetMapResp{Name: p.string(), Version: core.VersionID(p.uvarint()), Map: p.chunkMap()}
	return p.end()
}

// AppendMeta appends the response's binary meta: the named-map list.
func (r GetMapsResp) AppendMeta(dst []byte) []byte { return appendNamedMaps(dst, r.Maps) }

// ParseMeta decodes AppendMeta's layout.
func (r *GetMapsResp) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = GetMapsResp{Maps: p.namedMaps()}
	return p.end()
}

// AppendMeta appends the request's binary meta: node ID, then the ID list.
func (r GCReportReq) AppendMeta(dst []byte) []byte {
	dst = appendString(dst, string(r.ID))
	return appendIDs(dst, r.IDs)
}

// ParseMeta decodes AppendMeta's layout.
func (r *GCReportReq) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = GCReportReq{ID: core.NodeID(p.string()), IDs: p.ids()}
	return p.end()
}

// AppendMeta appends the response's binary meta: the ID list.
func (r GCReportResp) AppendMeta(dst []byte) []byte { return appendIDs(dst, r.Deletable) }

// ParseMeta decodes AppendMeta's layout.
func (r *GCReportResp) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = GCReportResp{Deletable: p.ids()}
	return p.end()
}

// AppendMeta appends the request's binary meta, fields in declaration
// order.
func (r AllocReq) AppendMeta(dst []byte) []byte {
	dst = appendString(dst, r.Name)
	dst = binary.AppendUvarint(dst, r.PartitionEpoch)
	dst = binary.AppendVarint(dst, int64(r.StripeWidth))
	dst = binary.AppendVarint(dst, r.ChunkSize)
	dst = appendBool(dst, r.Variable)
	dst = binary.AppendVarint(dst, r.ReserveBytes)
	dst = binary.AppendVarint(dst, int64(r.Replication))
	return appendString(dst, r.Writer)
}

// ParseMeta decodes AppendMeta's layout.
func (r *AllocReq) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = AllocReq{
		Name:         p.string(),
		Epoch:        Epoch{PartitionEpoch: p.uvarint()},
		StripeWidth:  p.int(),
		ChunkSize:    p.varint(),
		Variable:     p.bool(),
		ReserveBytes: p.varint(),
		Replication:  p.int(),
		Writer:       p.string(),
	}
	return p.end()
}

// AppendMeta appends the response's binary meta: the session, then each
// stripe node as ID and address.
func (r AllocResp) AppendMeta(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, r.WriteID)
	dst = binary.AppendUvarint(dst, uint64(len(r.Stripe)))
	for _, st := range r.Stripe {
		dst = appendString(dst, string(st.ID))
		dst = appendString(dst, st.Addr)
	}
	return dst
}

// ParseMeta decodes AppendMeta's layout.
func (r *AllocResp) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = AllocResp{WriteID: p.uvarint()}
	if n := p.count(2); n > 0 {
		r.Stripe = make([]Stripe, n)
		for i := range r.Stripe {
			r.Stripe[i] = Stripe{ID: core.NodeID(p.string()), Addr: p.string()}
		}
	}
	return p.end()
}

// AppendMeta appends the response's binary meta, fields in declaration
// order.
func (r CommitResp) AppendMeta(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Dataset))
	dst = binary.AppendUvarint(dst, uint64(r.Version))
	return binary.AppendVarint(dst, r.NewBytes)
}

// ParseMeta decodes AppendMeta's layout.
func (r *CommitResp) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = CommitResp{
		Dataset:  core.DatasetID(p.uvarint()),
		Version:  core.VersionID(p.uvarint()),
		NewBytes: p.varint(),
	}
	return p.end()
}

// AppendMeta appends the request's binary meta, fields in declaration
// order.
func (r GetMapReq) AppendMeta(dst []byte) []byte {
	dst = appendString(dst, r.Name)
	dst = binary.AppendUvarint(dst, uint64(r.Version))
	dst = binary.AppendUvarint(dst, uint64(r.Have))
	return binary.AppendUvarint(dst, r.PartitionEpoch)
}

// ParseMeta decodes AppendMeta's layout.
func (r *GetMapReq) ParseMeta(b []byte) error {
	p := parser{b: b}
	*r = GetMapReq{
		Name:    p.string(),
		Version: core.VersionID(p.uvarint()),
		Have:    core.VersionID(p.uvarint()),
		Epoch:   Epoch{PartitionEpoch: p.uvarint()},
	}
	return p.end()
}
