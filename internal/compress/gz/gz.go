// Package gz implements a Gzip-class codec from scratch: greedy-lazy LZ77
// with hash-chain matching followed by canonical Huffman entropy coding
// over deflate-style literal/length and distance alphabets. It occupies
// the paper's middle ground — a noticeably better ratio than LZF/LZ4 at a
// noticeably lower speed (Fig. 2), and is the codec EDC selects during
// moderate-intensity periods.
//
// The container is one format byte then a single Huffman block:
//
//	0x00 [lit/len code lengths][dist code lengths][symbol stream ... EOB]
//	0x01 [raw bytes]   (stored: the Huffman form would have expanded)
//
// Code lengths are serialized with huffman.WriteLengths. The symbol
// stream uses the deflate alphabets: literals 0–255, end-of-block 256,
// length codes 257–284 (base+extra bits, match lengths 3–258) and 30
// distance codes (distances 1–32768).
//
// The encoder keeps its hash head across calls in pooled scratch: head
// entries carry a running position count, so entries from earlier
// inputs are recognised as stale instead of being cleared each call.
// Length and distance codes come from index tables built at init; the
// exact size of the Huffman form is computed from the code lengths
// before anything is written, so an input that would expand goes
// straight to the stored form.
package gz

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"

	"edc/internal/bitio"
	"edc/internal/compress"
	"edc/internal/huffman"
)

const (
	numLitLen  = 285 // 0..284
	numDist    = 30
	minMatch   = 3
	maxMatch   = 258
	maxDist    = 32768
	hashBits   = 15
	hashSize   = 1 << hashBits
	maxChain   = 48 // hash-chain search depth: ratio/speed knob
	niceLength = 96 // stop searching when a match this long is found
	eob        = 256
)

// lengthCodes[i] describes length code 257+i.
var lengthCodes = [28]struct {
	base  int
	extra uint
}{
	{3, 0}, {4, 0}, {5, 0}, {6, 0}, {7, 0}, {8, 0}, {9, 0}, {10, 0},
	{11, 1}, {13, 1}, {15, 1}, {17, 1},
	{19, 2}, {23, 2}, {27, 2}, {31, 2},
	{35, 3}, {43, 3}, {51, 3}, {59, 3},
	{67, 4}, {83, 4}, {99, 4}, {115, 4},
	{131, 5}, {163, 5}, {195, 5}, {227, 5},
}

// distCodes[i] describes distance code i.
var distCodes = [numDist]struct {
	base  int
	extra uint
}{
	{1, 0}, {2, 0}, {3, 0}, {4, 0},
	{5, 1}, {7, 1},
	{9, 2}, {13, 2},
	{17, 3}, {25, 3},
	{33, 4}, {49, 4},
	{65, 5}, {97, 5},
	{129, 6}, {193, 6},
	{257, 7}, {385, 7},
	{513, 8}, {769, 8},
	{1025, 9}, {1537, 9},
	{2049, 10}, {3073, 10},
	{4097, 11}, {6145, 11},
	{8193, 12}, {12289, 12},
	{16385, 13}, {24577, 13},
}

// lengthIndex[l] is the lengthCodes index of match length l: the
// highest base <= l, so 258 is 227 plus 31 in five extra bits.
var lengthIndex [maxMatch + 1]uint8

// distIndex holds the distCodes index of distance d at distSlot(d).
var distIndex [512]uint8

// distSlot maps a distance (1..maxDist) into distIndex, deflate-style:
// distances up to 256 index directly; beyond, every code spans whole
// multiples of 128 of d-1, so (d-1)>>7 picks the code.
func distSlot(d int) int {
	if d <= 256 {
		return d - 1
	}
	return 256 + (d-1)>>7
}

// token is one LZ77 output item: a literal byte val when dist is 0,
// otherwise a match of length val at distance dist.
type token struct {
	dist uint16
	val  uint16
}

// Codec is the gz codec. The zero value is ready to use.
type Codec struct{}

// New returns the gz codec.
func New() *Codec { return &Codec{} }

// Name implements compress.Codec.
func (*Codec) Name() string { return "gz" }

// Tag implements compress.Codec.
func (*Codec) Tag() compress.Tag { return compress.TagGZ }

func hash4(v uint32) uint32 { return (v * 2654435761) >> (32 - hashBits) }

// parseState is the per-compression scratch: the hash-chain arrays, the
// token buffer, and the Huffman frequency tables. Pooling it removes the
// dominant allocations from the Compress hot path (the event-loop replay
// compresses thousands of runs per trace); a sync.Pool keeps the codec
// safe for concurrent use by parallel replay workers.
type parseState struct {
	// head and prev hold chained positions as base+pos, where base is
	// the call's start in a running count that advances by len(src)
	// each call; entries below base are stale and end a chain. head is
	// cleared only when the count would wrap, not on every call.
	head     [hashSize]int32
	base     int32
	prev     []int32
	tokens   []token
	litFreq  [numLitLen]int64
	distFreq [numDist]int64

	// Entropy-coding scratch: the code-length builder, the length
	// vectors, and the canonical encoders are all reused across
	// compressions, so the entropy stage allocates nothing in steady
	// state.
	builder  huffman.Builder
	litLens  []uint8
	distLens []uint8
	litEnc   huffman.Encoder
	distEnc  huffman.Encoder
}

var statePool = sync.Pool{New: func() interface{} { return new(parseState) }}

// decState is the per-decompression scratch: the bit reader, the parsed
// code-length vectors, and the two canonical decoders (each owning its
// lookup table). Pooling it strips every per-call allocation from
// Decompress except the output itself; a sync.Pool keeps the codec safe
// for concurrent use by parallel replay workers.
type decState struct {
	r        bitio.Reader
	litLens  []uint8
	distLens []uint8
	litDec   huffman.Decoder
	distDec  huffman.Decoder
}

var decPool = sync.Pool{New: func() interface{} { return new(decState) }}

// parse runs hash-chain LZ77 with one-token lazy evaluation, reusing the
// state's scratch buffers and counting symbol frequencies as it goes.
// The returned token slice aliases st.tokens.
func (st *parseState) parse(src []byte) []token {
	clear(st.litFreq[:])
	clear(st.distFreq[:])
	st.litFreq[eob] = 1
	n := len(src)
	base := st.base
	if base == 0 || int64(base)+int64(n) > math.MaxInt32 { // fresh state, or the count would wrap
		clear(st.head[:])
		base = 1
	}
	st.base = base + int32(n)
	if cap(st.prev) < n {
		st.prev = make([]int32, n)
	}
	// Stale prev entries are unreachable: a position is only chained
	// from head after it overwrites its own prev slot.
	prev := st.prev[:n]
	head := &st.head
	tokens := st.tokens[:0]
	literal := func(b byte) {
		tokens = append(tokens, token{val: uint16(b)})
		st.litFreq[b]++
	}
	i := 0
	for i+4 <= n {
		h := hash4(binary.LittleEndian.Uint32(src[i:]))
		cand := head[h]
		prev[i], head[h] = cand, base+int32(i)
		dist, length := st.longest(src, i, cand, base)
		if length == 0 {
			literal(src[i])
			i++
			continue
		}
		// Lazy: if the next position has a strictly better match, emit
		// a literal instead and take the longer match from there. That
		// position is not chained; chaining it would change the frames.
		if length < niceLength && i+5 <= n {
			h := hash4(binary.LittleEndian.Uint32(src[i+1:]))
			if d2, l2 := st.longest(src, i+1, head[h], base); l2 > length+1 {
				literal(src[i])
				i++
				dist, length = d2, l2
			}
		}
		tokens = append(tokens, token{dist: uint16(dist), val: uint16(length)})
		st.litFreq[257+int(lengthIndex[length])]++
		st.distFreq[distIndex[distSlot(dist)]]++
		for j := i + 1; j < min(i+length, n-3); j++ {
			h := hash4(binary.LittleEndian.Uint32(src[j:]))
			prev[j], head[h] = head[h], base+int32(j)
		}
		i += length
	}
	for ; i < n; i++ { // too close to the end to hash
		literal(src[i])
	}
	st.tokens = tokens
	return tokens
}

// longest walks the hash chain from cand for the longest match at i
// (i+4 <= len(src)) and returns it, or (0, 0) below minMatch. Every
// chain entry visited counts against maxChain, hash collisions
// included; among equally long matches the nearest wins.
func (st *parseState) longest(src []byte, i int, cand, base int32) (dist, length int) {
	prev := st.prev
	limit := min(len(src)-i, maxMatch)
	for chain := maxChain; cand >= base && chain > 0; chain-- {
		c := int(cand - base)
		if i-c > maxDist {
			break
		}
		if src[c+length] == src[i+length] { // quick reject on current best
			if l := matchLen(src[c:c+limit], src[i:i+limit]); l > length {
				length, dist = l, i-c
				if l >= niceLength || l >= limit {
					break
				}
			}
		}
		cand = prev[c]
	}
	if length < minMatch {
		return 0, 0
	}
	return dist, length
}

// matchLen returns the length of the common prefix of a and b, which
// have equal lengths, comparing eight bytes at a time.
func matchLen(a, b []byte) int {
	l := 0
	for ; l+8 <= len(a); l += 8 {
		if x := binary.LittleEndian.Uint64(a[l:]) ^ binary.LittleEndian.Uint64(b[l:]); x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
	}
	for l < len(a) && a[l] == b[l] {
		l++
	}
	return l
}

// storedMagic marks a stored (uncompressed) container: emitted when the
// Huffman block would expand the input, bounding worst-case growth to
// one byte.
const storedMagic = 0x01

// compressedMagic marks a normal Huffman container.
const compressedMagic = 0x00

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) []byte {
	return c.AppendCompress(make([]byte, 0, len(src)/2+64), src)
}

// AppendCompress implements compress.Appender: it appends the
// compressed form of src to dst (growing it as needed) and returns the
// extended slice. Combined with the pooled parse scratch this makes the
// replay hot path allocation-free in steady state.
func (*Codec) AppendCompress(dst, src []byte) []byte {
	st := statePool.Get().(*parseState)
	defer statePool.Put(st)
	tokens := st.parse(src)
	size := st.buildCodes()
	if size >= len(src)+1 {
		// The Huffman form would expand the input: store it instead,
		// without writing the Huffman form first.
		return append(append(dst, storedMagic), src...)
	}
	return st.emit(slices.Grow(dst, size), tokens)
}

// buildCodes builds both canonical codes from the parse's frequencies
// and returns the exact byte length of the Huffman container.
func (st *parseState) buildCodes() int {
	litLens, err := st.builder.Build(st.litLens, st.litFreq[:], huffman.MaxBits)
	if err != nil {
		panic("gz: " + err.Error()) // unreachable: valid freqs by construction
	}
	st.litLens = litLens
	distLens, err := st.builder.Build(st.distLens, st.distFreq[:], huffman.MaxBits)
	if err != nil {
		panic("gz: " + err.Error())
	}
	st.distLens = distLens
	if err := st.litEnc.Reset(litLens); err != nil {
		panic("gz: " + err.Error())
	}
	if err := st.distEnc.Reset(distLens); err != nil {
		panic("gz: " + err.Error())
	}
	nBits := int64(8 + huffman.LengthsBits(litLens) + huffman.LengthsBits(distLens))
	for s, f := range st.litFreq {
		nBits += f * int64(litLens[s])
	}
	for i, c := range lengthCodes {
		nBits += st.litFreq[257+i] * int64(c.extra)
	}
	for i, f := range st.distFreq {
		nBits += f * int64(uint(distLens[i])+distCodes[i].extra)
	}
	return int((nBits + 7) / 8)
}

// emit appends the Huffman container for tokens, with the codes
// buildCodes made, to dst. Codes and extra bits gather in a local
// accumulator that goes to the writer whenever the next field would
// take it past 57 bits; a match's length code, length extra bits,
// distance code and distance extra bits (at most 15+5+15+13 bits) form
// one field. LSB-first packing makes this the same stream as one write
// per code.
func (st *parseState) emit(dst []byte, tokens []token) []byte {
	var w bitio.Writer
	w.ResetBuf(dst)
	w.WriteBits(compressedMagic, 8)
	huffman.WriteLengths(&w, st.litLens)
	huffman.WriteLengths(&w, st.distLens)
	lit, dist := st.litEnc.Codes(), st.distEnc.Codes()
	var acc uint64
	var nAcc uint
	for _, t := range tokens {
		var v uint64
		var n uint
		if t.dist == 0 {
			c := lit[t.val]
			v, n = uint64(c.Bits), uint(c.Len)
		} else {
			li := lengthIndex[t.val]
			lc, lx := lit[257+int(li)], lengthCodes[li]
			di := distIndex[distSlot(int(t.dist))]
			dc, dx := dist[di], distCodes[di]
			v, n = uint64(lc.Bits), uint(lc.Len)
			v |= uint64(int(t.val)-lx.base) << n
			n += lx.extra
			v |= uint64(dc.Bits) << n
			n += uint(dc.Len)
			v |= uint64(int(t.dist)-dx.base) << n
			n += dx.extra
		}
		if nAcc+n > 57 {
			w.WriteBits(acc, nAcc)
			acc, nAcc = 0, 0
		}
		acc |= v << nAcc
		nAcc += n
	}
	c := lit[eob]
	w.WriteBits(acc, nAcc)
	w.WriteBits(uint64(c.Bits), uint(c.Len))
	return w.Bytes()
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(src []byte, origLen int) ([]byte, error) {
	out, err := c.DecompressAppend(make([]byte, 0, origLen), src, origLen)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressAppend implements compress.DecompressAppender: it appends
// the decompressed form of src to dst (growing it as needed) and returns
// the extended slice. Combined with the pooled decode scratch this makes
// the read hot path allocation-free in steady state.
func (*Codec) DecompressAppend(dst, src []byte, origLen int) ([]byte, error) {
	if len(src) == 0 {
		return dst, compress.ErrCorrupt
	}
	if src[0] == storedMagic {
		if len(src)-1 != origLen {
			return dst, compress.ErrSizeMismatch
		}
		return append(dst, src[1:]...), nil
	}
	if src[0] != compressedMagic {
		return dst, compress.ErrCorrupt
	}
	st := decPool.Get().(*decState)
	defer decPool.Put(st)
	r := &st.r
	r.Reset(src)
	if _, err := r.ReadBits(8); err != nil {
		return dst, compress.ErrCorrupt
	}
	litLens, err := huffman.ReadLengthsInto(r, st.litLens, numLitLen)
	if err != nil {
		return dst, compress.ErrCorrupt
	}
	st.litLens = litLens
	distLens, err := huffman.ReadLengthsInto(r, st.distLens, numDist)
	if err != nil {
		return dst, compress.ErrCorrupt
	}
	st.distLens = distLens
	if err := st.litDec.Reset(litLens); err != nil {
		return dst, compress.ErrCorrupt
	}
	litDec := &st.litDec
	var distDec *huffman.Decoder
	hasDist := false
	for _, l := range distLens {
		if l > 0 {
			hasDist = true
			break
		}
	}
	if hasDist {
		if err := st.distDec.Reset(distLens); err != nil {
			return dst, compress.ErrCorrupt
		}
		distDec = &st.distDec
	}
	base := len(dst)
	out := dst
	for {
		sym, err := litDec.Decode(r)
		if err != nil {
			return dst, compress.ErrCorrupt
		}
		switch {
		case sym < 256:
			if len(out)-base+1 > origLen {
				return dst, compress.ErrCorrupt
			}
			out = append(out, byte(sym))
		case sym == eob:
			if len(out)-base != origLen {
				return dst, compress.ErrSizeMismatch
			}
			return out, nil
		default:
			li := sym - 257
			if li >= len(lengthCodes) {
				return dst, compress.ErrCorrupt
			}
			length := lengthCodes[li].base
			if eb := lengthCodes[li].extra; eb > 0 {
				v, err := r.ReadBits(eb)
				if err != nil {
					return dst, compress.ErrCorrupt
				}
				length += int(v)
			}
			if distDec == nil {
				return dst, compress.ErrCorrupt
			}
			ds, err := distDec.Decode(r)
			if err != nil || ds >= numDist {
				return dst, compress.ErrCorrupt
			}
			dist := distCodes[ds].base
			if eb := distCodes[ds].extra; eb > 0 {
				v, err := r.ReadBits(eb)
				if err != nil {
					return dst, compress.ErrCorrupt
				}
				dist += int(v)
			}
			ref := len(out) - dist
			if ref < base || len(out)-base+length > origLen {
				return dst, compress.ErrCorrupt
			}
			// One copy when the match does not overlap its output;
			// otherwise each copy doubles the repeated span.
			end := len(out) + length
			out = slices.Grow(out, length)[:end]
			for pos := end - length; pos < end; {
				pos += copy(out[pos:end], out[ref:pos])
			}
		}
	}
}

func init() {
	for i, c := range lengthCodes {
		for l := c.base; l <= maxMatch; l++ {
			lengthIndex[l] = uint8(i)
		}
	}
	for i, c := range distCodes {
		for d := c.base; d < c.base+1<<c.extra; d++ {
			distIndex[distSlot(d)] = uint8(i)
		}
	}
	compress.MustRegister(New())
}
