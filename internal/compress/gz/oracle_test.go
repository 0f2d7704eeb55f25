package gz

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"edc/internal/compress/codectest"
)

// oracleInputs returns every content class at 4, 16, 64 and 1024 KiB
// plus the golden corpus's edge cases.
func oracleInputs(tb testing.TB) [][]byte {
	var in [][]byte
	for _, cls := range codectest.Classes {
		for _, n := range []int{4 << 10, 16 << 10, 64 << 10, 1 << 20} {
			in = append(in, codectest.ClassBlock(tb, cls, n))
		}
	}
	return append(in, goldenCorpus(tb)...)
}

// TestEncodeMatchesOracle compresses each input through the pooled
// encoder, one call after another so the scratch (and its hash head) is
// reused across inputs of different sizes, and requires the former
// encoder's bytes.
func TestEncodeMatchesOracle(t *testing.T) {
	c := New()
	var buf []byte
	for k, src := range oracleInputs(t) {
		buf = c.AppendCompress(buf[:0], src)
		if want := referenceCompress(src); !bytes.Equal(buf, want) {
			t.Fatalf("input %d (%d bytes): %d-byte frame differs from the oracle's %d bytes", k, len(src), len(buf), len(want))
		}
	}
}

// TestParseMatchesOracle runs one parse state over every input, twice:
// from a fresh state and from one whose position count is about to
// wrap, so both stale-entry filtering and the wrap reset are exercised.
func TestParseMatchesOracle(t *testing.T) {
	inputs := oracleInputs(t)
	for _, start := range []int32{0, math.MaxInt32 - 3<<20} {
		t.Run(fmt.Sprint(start), func(t *testing.T) {
			st := new(parseState)
			st.base = start
			for k, src := range inputs {
				got := st.parse(src)
				if want := referenceParse(src); !slices.Equal(got, want) {
					t.Fatalf("input %d (%d bytes): %d tokens, oracle %d", k, len(src), len(got), len(want))
				}
			}
		})
	}
}

// TestGoldenCorpusReachesMaxDist checks the corpus holds a match at
// exactly maxDist, the edge the golden hash is meant to pin.
func TestGoldenCorpusReachesMaxDist(t *testing.T) {
	for _, tok := range referenceParse(atMaxDist([]byte("unique-pattern-here!"))) {
		if int(tok.dist) == maxDist {
			return
		}
	}
	t.Fatal("no match at maxDist")
}
