package bwz

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
// change to the bytes bwz writes (suffix order, MTF, RLE, Huffman
// tables, block framing) changes it; decoders of stored frames depend
// on those bytes staying put.
const goldenSHA256 = "5b47b3b45e2cc6c59d04cdb7ae2cc35d7353c76b31b8c96277c2d4849f0ad305"

// goldenCorpus is a fixed multi-class input set: every content class at
// 4 KiB and 64 KiB, a mixed enterprise stream longer than MaxBlock (two
// blocks), and a few degenerate inputs.
func goldenCorpus(tb testing.TB) [][]byte {
	var in [][]byte
	for _, cls := range codectest.Classes {
		in = append(in, codectest.ClassBlock(tb, cls, 4<<10), codectest.ClassBlock(tb, cls, 64<<10))
	}
	gen := datagen.New(datagen.Enterprise(), 11)
	in = append(in,
		gen.Block(0, MaxBlock+(64<<10)+123, 0),
		nil,
		[]byte("a"),
		[]byte("banana"),
		bytes.Repeat([]byte{0xff}, 5000),
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
		t.Fatalf("bwz output changed: sha256 %s, want %s", got, goldenSHA256)
	}
}
