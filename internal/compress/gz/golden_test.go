package gz

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"edc/internal/compress/codectest"
	"edc/internal/datagen"
)

// goldenSHA256 pins the encoder's exact output over goldenCorpus. Any
// change to the bytes gz writes (match choice, code lengths, bit
// packing, the stored fallback) changes it; decoders of stored frames
// depend on those bytes staying put.
const goldenSHA256 = "e3603f22966b6408e1d16337d29bed1b56f2bb9b0460a1ab31058ea1198d592e"

// noise returns n bytes from a fixed LCG: no 3-byte repeats to speak of,
// so it separates the two copies of a pattern without matching them.
func noise(n int, seed uint32) []byte {
	out := make([]byte, n)
	for i := range out {
		seed = seed*1664525 + 1013904223
		out[i] = byte(seed >> 24)
	}
	return out
}

// atMaxDist returns pat, filler, pat with the second copy exactly
// maxDist bytes after the first: the farthest match the format allows.
func atMaxDist(pat []byte) []byte {
	src := append([]byte(nil), pat...)
	src = append(src, noise(maxDist-len(pat), 99)...)
	return append(src, pat...)
}

// goldenCorpus is a fixed input set: every content class at 4 KiB and
// 64 KiB, a 1 MiB enterprise block, inputs too short to hash, runs longer
// than maxMatch and a match at exactly maxDist.
func goldenCorpus(tb testing.TB) [][]byte {
	var in [][]byte
	for _, cls := range codectest.Classes {
		in = append(in, codectest.ClassBlock(tb, cls, 4<<10), codectest.ClassBlock(tb, cls, 64<<10))
	}
	gen := datagen.New(datagen.Enterprise(), 11)
	in = append(in,
		gen.Block(0, 1<<20, 0),
		nil,
		[]byte("a"),
		[]byte("abc"),
		[]byte("abcd"),
		bytes.Repeat([]byte{'z'}, 3*maxMatch+17),
		bytes.Repeat([]byte("ab"), 4000),
		atMaxDist([]byte("unique-pattern-here!")),
	)
	return in
}

func TestGoldenOutput(t *testing.T) {
	h := sha256.New()
	c := New()
	for _, src := range goldenCorpus(t) {
		comp := c.AppendCompress(nil, src)
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(comp)))
		h.Write(n[:])
		h.Write(comp)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSHA256 {
		t.Fatalf("gz output changed: sha256 %s, want %s", got, goldenSHA256)
	}
}
