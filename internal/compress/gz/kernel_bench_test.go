package gz

import (
	"fmt"
	"testing"

	"edc/internal/compress/codectest"
)

// kernelSizes spans one 4 KiB block, the 16 KiB SD merge run and the
// 64 KiB merge cap.
var kernelSizes = []int{4 << 10, 16 << 10, 64 << 10}

// BenchmarkParse times the LZ77 parse per content class and size. Each
// input is a single class, so the text and code rows are match-heavy
// where a mixed enterprise block at offset 0 would be all literals.
func BenchmarkParse(b *testing.B) {
	for _, cls := range codectest.Classes {
		for _, n := range kernelSizes {
			src := codectest.ClassBlock(b, cls, n)
			b.Run(fmt.Sprintf("%v/%dKiB", cls, n>>10), func(b *testing.B) {
				st := new(parseState)
				st.parse(src) // size the scratch
				b.ReportAllocs()
				b.SetBytes(int64(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.parse(src)
				}
			})
		}
	}
}

// BenchmarkEmit times writing the Huffman container from a finished
// parse and built codes, per content class and size (media included,
// though the encoder stores it instead).
func BenchmarkEmit(b *testing.B) {
	for _, cls := range codectest.Classes {
		for _, n := range kernelSizes {
			src := codectest.ClassBlock(b, cls, n)
			b.Run(fmt.Sprintf("%v/%dKiB", cls, n>>10), func(b *testing.B) {
				st := new(parseState)
				tokens := st.parse(src)
				st.buildCodes()
				buf := st.emit(nil, tokens)
				b.ReportAllocs()
				b.SetBytes(int64(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = st.emit(buf[:0], tokens)
				}
			})
		}
	}
}
