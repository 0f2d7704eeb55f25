package bwz

import (
	"fmt"
	"testing"

	"edc/internal/compress/codectest"
)

// kernelSizes spans one 4 KiB block, the 16 KiB SD merge run, the class
// region and the largest BWT block.
var kernelSizes = []int{4 << 10, 16 << 10, 64 << 10, 1 << 20}

// BenchmarkSuffixArray times the suffix sort per content class and size.
func BenchmarkSuffixArray(b *testing.B) {
	for _, cls := range codectest.Classes {
		for _, n := range kernelSizes {
			src := codectest.ClassBlock(b, cls, n)
			b.Run(fmt.Sprintf("%v/%dKiB", cls, n>>10), func(b *testing.B) {
				st := new(scratch)
				suffixArray(src, st) // size the scratch
				b.ReportAllocs()
				b.SetBytes(int64(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					suffixArray(src, st)
				}
			})
		}
	}
}

// BenchmarkMTF times move-to-front over the BWT of each content class
// and size, the input it sees inside the codec.
func BenchmarkMTF(b *testing.B) {
	for _, cls := range codectest.Classes {
		for _, n := range kernelSizes {
			l, _ := bwt(codectest.ClassBlock(b, cls, n), new(scratch))
			l = append([]byte(nil), l...)
			b.Run(fmt.Sprintf("%v/%dKiB", cls, n>>10), func(b *testing.B) {
				st := new(scratch)
				mtf(l, st) // size the scratch
				b.ReportAllocs()
				b.SetBytes(int64(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mtf(l, st)
				}
			})
		}
	}
}
