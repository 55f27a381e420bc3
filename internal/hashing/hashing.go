// Package hashing provides the hash primitives used by stdchk's similarity
// detection heuristics (paper §IV.C): a cheap window hash for the offline
// content-defined chunkers the paper measures, and a Rabin-style rolling
// hash — the O(1)-per-byte fix for the paper's "overlap" configuration —
// whose bulk form, Rolling.Scan, is the one boundary finder under both the
// live write path (chunker.Stream) and the offline rolling ablation.
//
// It also holds SHA1, the function under core.HashChunk that names every
// chunk. SHA1 is crypto/sha1.Sum, except on amd64 CPUs with the SHA
// extensions (sha_ni in /proc/cpuinfo), where a Go-assembly block function
// (sha1block_amd64.s) computes the same digest at about twice the speed:
// go1.24's crypto/sha1 has no SHA-NI path. The CPU alone decides; the
// standard purego build tag compiles the assembly out, and SHA1Impl says
// which one runs. The kernel is a bounded fork of one stdlib function and
// is to be deleted — its file header has the condition — once the pinned
// toolchain's crypto/sha1 matches it (BenchmarkSHA1 kernel ≈ stdlib).
package hashing

// WindowHash computes an FNV-1a style 64-bit hash of the window. CbCH calls
// it once per window position; its cost is O(len(window)), which is what
// makes the paper's overlap configuration (advance by one byte) two orders
// of magnitude slower than the no-overlap configuration (advance by the
// window size).
func WindowHash(window []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range window {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// FNV1aString computes the 64-bit FNV-1a hash of a string. The manager's
// catalog stripes datasets with it and the federation layer partitions
// the namespace with it — one implementation, so the stripe hash and the
// partition function provably stay the same function.
func FNV1aString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Boundary reports whether a window hash marks a content-defined chunk
// boundary: the lowest k bits of the hash are all zero (paper §IV.C).
// Statistically this yields one boundary every 2^k window positions.
func Boundary(h uint64, k uint) bool {
	mask := (uint64(1) << k) - 1
	return h&mask == 0
}

// Rolling is a polynomial rolling hash over a fixed-size window
// (Rabin-Karp form: h = sum b[i] * P^(w-1-i) mod 2^64). Unlike WindowHash it
// supports O(1) updates when the window slides by one byte, which is the
// standard fix (used by LBFS) for the overlap-CbCH throughput collapse the
// paper measures.
//
// Roll is the byte-at-a-time reference form. Scan and Slide consume whole
// slices and leave the instance exactly as the same bytes through Roll
// would, so the three may be mixed freely. A fresh or Reset instance holds
// a window of zero bytes.
type Rolling struct {
	window int
	pow    uint64 // P^(window-1)
	powW   uint64 // P^window
	hash   uint64
	buf    []byte // the window, as a ring: oldest byte at head
	head   int
}

// rollingPrime is the polynomial base. Any odd multiplier works for a
// 2^64 modulus; this is the FNV prime for familiarity.
const rollingPrime = 1099511628211

// NewRolling returns a rolling hash over windows of the given size.
func NewRolling(window int) *Rolling {
	if window <= 0 {
		window = 1
	}
	pow := powMod64(rollingPrime, uint64(window-1))
	return &Rolling{
		window: window,
		pow:    pow,
		powW:   pow * rollingPrime,
		buf:    make([]byte, window),
	}
}

// powMod64 computes base^exp mod 2^64 by binary exponentiation, so
// constructing a Rolling costs O(log window) multiplies instead of
// O(window).
func powMod64(base, exp uint64) uint64 {
	result := uint64(1)
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}

// Window returns the configured window size.
func (r *Rolling) Window() int { return r.window }

// Reset clears the hash state so the instance can be reused on a new input.
func (r *Rolling) Reset() {
	r.hash = 0
	r.head = 0
	clear(r.buf)
}

// Prime initializes the window with the first r.window bytes of data and
// returns the hash of that window. len(data) must be at least the window
// size; extra bytes are ignored.
func (r *Rolling) Prime(data []byte) uint64 {
	r.Reset()
	n := r.window
	if len(data) < n {
		n = len(data)
	}
	for i := 0; i < n; i++ {
		r.hash = r.hash*rollingPrime + uint64(data[i])
		r.buf[i] = data[i]
	}
	r.head = 0
	return r.hash
}

// Roll slides the window forward by one byte and returns the new hash.
// Prime must have been called first.
func (r *Rolling) Roll(in byte) uint64 {
	out := r.buf[r.head]
	r.hash = (r.hash-uint64(out)*r.pow)*rollingPrime + uint64(in)
	r.buf[r.head] = in
	r.head++
	if r.head == r.window {
		r.head = 0
	}
	return r.hash
}

// cuts reports whether a rolling hash ends a chunk under mask = 2^k - 1:
// low k bits all zero and the hash itself non-zero. An all-zero window
// hashes to exactly 0 under every k; were that a boundary, a run of zero
// pages would be cut at every byte. No other window is affected beyond a
// 2^-64 chance.
func cuts(h, mask uint64) bool { return h&mask == 0 && h != 0 }

// Scan slides the window over p as len(p) Roll calls would, stopping at
// the first position whose window hash is a chunk boundary at k bits (low
// k bits zero, hash non-zero: see cuts). It returns how many bytes of p it
// consumed up to and including that position, or 0 when no position in p
// is a boundary — all of p is then consumed.
func (r *Rolling) Scan(p []byte, k uint) int {
	w := r.window
	mask := uint64(1)<<k - 1

	// The first w bytes push out bytes that arrived before this call.
	lead := min(w, len(p))
	for i, in := range p[:lead] {
		if cuts(r.Roll(in), mask) {
			return i + 1
		}
	}
	if len(p) == lead {
		return 0
	}

	// From here the outgoing byte is p[i-w]. With d = in - out*P^w the step
	// is h*P + d, and two steps from one h are h*P^2 + (d1*P + d2): one
	// multiply and one add on the loop-carried chain per two bytes. Wider
	// unrolling measured slower (the multiplier is the bound).
	const p2 = rollingPrime * rollingPrime & (1<<64 - 1)
	h, powW := r.hash, r.powW
	in, out := p[w:], p[:len(p)-w]
	out = out[:len(in)]
	n, i := 0, 0
	for ; i < len(in)-1; i += 2 {
		d1 := uint64(in[i]) - uint64(out[i])*powW
		d2 := uint64(in[i+1]) - uint64(out[i+1])*powW
		h1 := h*rollingPrime + d1
		h = h*p2 + (d1*rollingPrime + d2)
		if cuts(h1, mask) {
			h, n = h1, w+i+1
			break
		}
		if cuts(h, mask) {
			n = w + i + 2
			break
		}
	}
	if n == 0 && i < len(in) {
		h = h*rollingPrime + uint64(in[i]) - uint64(out[i])*powW
		if cuts(h, mask) {
			n = len(p)
		}
	}
	end := n
	if end == 0 {
		end = len(p)
	}
	r.hash = h
	copy(r.buf, p[end-w:end])
	r.head = 0
	return n
}

// Slide moves the window over all of p without looking for boundaries.
func (r *Rolling) Slide(p []byte) {
	if len(p) < r.window {
		for _, in := range p {
			r.Roll(in)
		}
		return
	}
	r.Prime(p[len(p)-r.window:])
}

// Sum returns the current window hash.
func (r *Rolling) Sum() uint64 { return r.hash }

// HashFull computes the same polynomial hash over exactly one window
// directly; used to cross-check Roll in tests.
func HashFull(window []byte) uint64 {
	var h uint64
	for _, b := range window {
		h = h*rollingPrime + uint64(b)
	}
	return h
}
