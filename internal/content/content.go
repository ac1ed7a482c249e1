// Package content provides deterministic synthetic file content for
// experiments: incompressible random data ("highly compressed files" in
// the paper's terms), English-like text ("filled with random English
// words"), runs of zeros, and literal byte blobs.
//
// A Blob is an immutable content descriptor. Descriptor blobs (random,
// text, zeros) generate their bytes lazily from a seed, so experiments
// can create multi-gigabyte files without allocating them; two blobs
// with the same kind, seed, and size have byte-identical content, and a
// longer blob's content is a strict extension of a shorter one with the
// same seed — which is what makes append workloads cheap to model.
package content

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"cloudsync/internal/chunker"
)

// MaterializeLimit is the largest blob Bytes will materialize. It keeps
// accidental gigabyte allocations out of tests and benchmarks; the
// experiment harness only materializes content when an algorithm (delta
// sync, real compression, block hashing) genuinely needs the bytes.
const MaterializeLimit = 64 << 20

// Kind classifies blob content.
type Kind uint8

const (
	// KindRandom is incompressible pseudo-random data.
	KindRandom Kind = iota
	// KindText is English-like text built from a fixed vocabulary.
	KindText
	// KindZeros is all zero bytes (maximally compressible).
	KindZeros
	// KindBytes is literal caller-supplied data.
	KindBytes
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRandom:
		return "random"
	case KindText:
		return "text"
	case KindZeros:
		return "zeros"
	case KindBytes:
		return "bytes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Blob is an immutable content descriptor. Its lazy caches (the
// materialized bytes and the fingerprints of fingerprint.go) are
// guarded by mu, so a blob shared across concurrent experiment cells
// is safe to read from every goroutine.
type Blob struct {
	kind Kind
	size int64
	seed int64

	mu        sync.Mutex
	data      []byte // literal data for KindBytes; cache for others
	sum       [md5.Size]byte
	sumOK     bool
	blockSums map[int][][md5.Size]byte
	cdcBlocks map[cdcKey][]chunker.Block
}

// Random returns an incompressible blob of the given size. Blobs with
// equal seeds share a common prefix.
//
// Seeds index windows of one global splitmix stream: a blob with seed
// s+Δ carries the same bytes as seed s shifted by 8·Δ. Blobs whose
// seeds differ by less than size/8 therefore overlap, and a
// rolling-hash delta sync will find that overlap. Callers that need
// genuinely independent contents (e.g. to assert a traffic lower
// bound) must space seeds by more than size/8.
func Random(size, seed int64) *Blob {
	checkSize(size)
	return &Blob{kind: KindRandom, size: size, seed: seed}
}

// Text returns an English-like text blob of the given size. Blobs with
// equal seeds share a common prefix.
func Text(size, seed int64) *Blob {
	checkSize(size)
	return &Blob{kind: KindText, size: size, seed: seed}
}

// Zeros returns an all-zero blob.
func Zeros(size int64) *Blob {
	checkSize(size)
	return &Blob{kind: KindZeros, size: size}
}

// FromBytes wraps literal data. The blob takes ownership of the slice;
// the caller must not mutate it afterwards.
func FromBytes(data []byte) *Blob {
	return &Blob{kind: KindBytes, size: int64(len(data)), data: data}
}

func checkSize(size int64) {
	if size < 0 {
		panic(fmt.Sprintf("content: negative blob size %d", size))
	}
}

// Size reports the blob length in bytes.
func (b *Blob) Size() int64 { return b.size }

// Kind reports the content kind.
func (b *Blob) Kind() Kind { return b.kind }

// Seed reports the generator seed (zero for KindBytes and KindZeros).
func (b *Blob) Seed() int64 { return b.seed }

// Resize returns a blob of the same kind and seed with a new size. For
// descriptor kinds the shorter blob's content is a prefix of the
// longer's, so growing a file by appending is Resize to a larger size.
// For KindBytes only shrinking is possible; growing panics.
func (b *Blob) Resize(size int64) *Blob {
	checkSize(size)
	if b.kind == KindBytes {
		if size > b.size {
			panic("content: cannot grow a literal blob; use Concat")
		}
		return FromBytes(b.data[:size])
	}
	return &Blob{kind: b.kind, size: size, seed: b.seed}
}

// Mutate returns the blob as it would look after flipping the byte at
// off: same size, different content. Literal blobs flip the actual
// byte; descriptor blobs derive a new generator seed from the old seed
// and the offset, which changes the content identity (and therefore
// every fingerprint) exactly as a real edit would, without
// materializing anything.
func (b *Blob) Mutate(off int64) *Blob {
	if off < 0 || off >= b.size {
		panic(fmt.Sprintf("content: Mutate offset %d outside %d-byte blob", off, b.size))
	}
	if b.kind == KindBytes {
		data := append([]byte(nil), b.data...)
		data[off] ^= 0xFF
		return FromBytes(data)
	}
	newSeed := b.seed*1_000_003 + off + 1
	kind := b.kind
	if kind == KindZeros {
		// A flipped byte makes the content non-zero; random is the
		// closest descriptor representation.
		kind = KindRandom
	}
	return &Blob{kind: kind, size: b.size, seed: newSeed}
}

// Concat returns a blob whose content is b followed by other. The
// result is materialized, so the combined size must not exceed
// MaterializeLimit.
func (b *Blob) Concat(other *Blob) *Blob {
	total := b.size + other.size
	if total > MaterializeLimit {
		panic(fmt.Sprintf("content: Concat of %d bytes exceeds MaterializeLimit", total))
	}
	out := make([]byte, 0, total)
	out = append(out, b.Bytes()...)
	out = append(out, other.Bytes()...)
	return FromBytes(out)
}

// Bytes materializes the blob's content. The result is cached; callers
// must not mutate it. Bytes panics if the blob exceeds MaterializeLimit
// — experiments at that scale must work from the descriptor.
func (b *Blob) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytesLocked()
}

func (b *Blob) bytesLocked() []byte {
	if b.data != nil || b.size == 0 {
		if b.data == nil {
			b.data = []byte{}
		}
		return b.data
	}
	if b.size > MaterializeLimit {
		panic(fmt.Sprintf("content: Bytes on %d-byte blob exceeds MaterializeLimit", b.size))
	}
	data := make([]byte, b.size)
	n, err := io.ReadFull(b.Reader(), data)
	if err != nil || int64(n) != b.size {
		panic(fmt.Sprintf("content: generator produced %d/%d bytes: %v", n, b.size, err))
	}
	b.data = data
	return data
}

// Reader returns a new reader streaming the blob's content from the
// start. Readers are independent; each call restarts the stream.
func (b *Blob) Reader() io.Reader {
	switch b.kind {
	case KindBytes:
		return &sliceReader{data: b.data}
	case KindZeros:
		return &zeroReader{remaining: b.size}
	case KindRandom:
		return &randomReader{remaining: b.size, state: splitmixInit(b.seed)}
	case KindText:
		return newTextReader(b.size, b.seed)
	default:
		panic(fmt.Sprintf("content: unknown kind %d", b.kind))
	}
}

// Identity returns a stable key that is equal exactly when two blobs
// have identical content, within a representation: descriptor blobs
// compare by (kind, seed, size); literal blobs compare by MD5 of their
// bytes. A descriptor blob and a literal blob with the same content
// intentionally do not share an identity — the simulation always keeps
// one representation per logical file, and this keeps identity O(1) for
// arbitrarily large descriptor blobs.
func (b *Blob) Identity() string {
	if b.kind == KindBytes {
		return fmt.Sprintf("md5:%x", b.MD5())
	}
	return fmt.Sprintf("gen:%d:%d:%d", b.kind, b.seed, b.size)
}

// Equal reports whether two blobs have the same identity.
func (b *Blob) Equal(other *Blob) bool {
	return b.Identity() == other.Identity()
}

// String describes the blob.
func (b *Blob) String() string {
	return fmt.Sprintf("blob(%s, %d bytes, seed=%d)", b.kind, b.size, b.seed)
}

// splitmix64 is a tiny, fast, well-distributed PRNG used for content
// generation. It is deliberately independent of math/rand so that blob
// content never changes across Go releases.
func splitmixInit(seed int64) uint64 {
	return uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
}

func splitmixNext(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

type sliceReader struct {
	data []byte
	off  int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

type zeroReader struct {
	remaining int64
}

func (r *zeroReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > r.remaining {
		n = int(r.remaining)
	}
	for i := 0; i < n; i++ {
		p[i] = 0
	}
	r.remaining -= int64(n)
	return n, nil
}

type randomReader struct {
	remaining int64
	state     uint64
	buf       [8]byte
	bufLen    int
}

func (r *randomReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > r.remaining {
		n = int(r.remaining)
	}
	for i := 0; i < n; i++ {
		if r.bufLen == 0 {
			binary.LittleEndian.PutUint64(r.buf[:], splitmixNext(&r.state))
			r.bufLen = 8
		}
		p[i] = r.buf[8-r.bufLen]
		r.bufLen--
	}
	r.remaining -= int64(n)
	return n, nil
}

// vocabulary is the shared word list for text blobs, built
// deterministically at init from a fixed seed. Its size and word-length
// distribution are tuned so that flate on generated text achieves a
// compression ratio comparable to the paper's measurements of real
// documents (best-effort compression to roughly 45 % of original size).
var vocabulary = buildVocabulary()

func buildVocabulary() []string {
	const words = 8192
	state := splitmixInit(0x7E57C0DE)
	out := make([]string, words)
	for i := range out {
		n := 2 + int(splitmixNext(&state)%10)
		w := make([]byte, n)
		for j := range w {
			w[j] = byte('a' + splitmixNext(&state)%26)
		}
		out[i] = string(w)
	}
	return out
}

type textReader struct {
	remaining int64
	state     uint64
	pending   []byte
}

func newTextReader(size, seed int64) *textReader {
	return &textReader{remaining: size, state: splitmixInit(seed ^ 0x7E57)}
}

func (r *textReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		return 0, io.EOF
	}
	total := 0
	for total < len(p) && r.remaining > 0 {
		if len(r.pending) == 0 {
			r.pending = r.nextToken()
		}
		n := copy(p[total:], r.pending)
		if int64(n) > r.remaining {
			n = int(r.remaining)
		}
		r.pending = r.pending[n:]
		total += n
		r.remaining -= int64(n)
	}
	return total, nil
}

func (r *textReader) nextToken() []byte {
	v := splitmixNext(&r.state)
	word := vocabulary[v%uint64(len(vocabulary))]
	switch (v >> 32) % 20 {
	case 0:
		return []byte(word + ".\n")
	case 1:
		return []byte(word + ", ")
	case 2:
		// Occasional numeric token keeps the entropy realistic.
		return []byte(fmt.Sprintf("%d ", v%100000))
	default:
		return []byte(word + " ")
	}
}
