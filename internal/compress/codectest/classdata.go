package codectest

import (
	"testing"

	"edc/internal/datagen"
)

// classGrain is datagen's class region size: one content class per
// aligned 64 KiB region.
const classGrain = 64 << 10

// Classes lists every datagen content class.
var Classes = []datagen.Class{
	datagen.ClassZero, datagen.ClassText, datagen.ClassCode,
	datagen.ClassBinary, datagen.ClassMedia,
}

// ClassBlock returns n bytes of a single content class: the enterprise
// mix's regions of class cls (found with ClassAt), concatenated in
// volume order, so any size reads one class only.
func ClassBlock(tb testing.TB, cls datagen.Class, n int) []byte {
	tb.Helper()
	gen := datagen.New(datagen.Enterprise(), 7)
	out := make([]byte, 0, n)
	for off := int64(0); len(out) < n; off += classGrain {
		if off > 1<<34 {
			tb.Fatalf("no %v regions found", cls)
		}
		if gen.ClassAt(off) != cls {
			continue
		}
		k := n - len(out)
		if k > classGrain {
			k = classGrain
		}
		out = gen.AppendBlock(out, off, k, 0)
	}
	return out
}
