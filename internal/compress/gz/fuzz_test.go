package gz

import (
	"bytes"
	"slices"
	"testing"

	"edc/internal/compress/codectest"
)

func FuzzDecompress(f *testing.F) { codectest.FuzzDecompress(f, New()) }
func FuzzRoundTrip(f *testing.F)  { codectest.FuzzRoundTrip(f, New()) }

// encodeOracleState is shared by every FuzzEncodeMatchesOracle input, so
// entries left in its hash head by earlier inputs must never match.
var encodeOracleState = new(parseState)

// FuzzEncodeMatchesOracle requires the encoder's tokens and frame to
// equal the former encoder's on arbitrary input.
func FuzzEncodeMatchesOracle(f *testing.F) {
	for _, src := range codectest.Corpus() {
		f.Add(src)
	}
	f.Add(bytes.Repeat([]byte("abc"), 200))
	f.Fuzz(func(t *testing.T, src []byte) {
		if got, want := encodeOracleState.parse(src), referenceParse(src); !slices.Equal(got, want) {
			t.Fatalf("tokens differ from the oracle's (%d vs %d)", len(got), len(want))
		}
		if got, want := New().Compress(src), referenceCompress(src); !bytes.Equal(got, want) {
			t.Fatalf("frame differs from the oracle's (%d vs %d bytes)", len(got), len(want))
		}
	})
}
