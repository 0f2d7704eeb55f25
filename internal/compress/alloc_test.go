package compress_test

import (
	"testing"

	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/race"
)

// TestCompressAllocs pins the steady-state allocation count of the two
// recycled-buffer hot paths for every codec at 4 KiB, 64 KiB and 1 MiB:
// AppendCompress must not allocate at all once its scratch pools are
// warm, and DecompressAppend must not allocate when the destination is
// pre-sized. A regression here
// re-introduces per-request garbage into the replay pipeline, which is
// exactly what the pooled-scratch design exists to prevent.
func TestCompressAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs allocation counts (sync.Pool puts are dropped at random)")
	}
	gen := datagen.New(datagen.Enterprise(), 7)
	var srcs [][]byte
	for _, n := range []int{4 << 10, 64 << 10, 1 << 20} {
		srcs = append(srcs, gen.Block(0, n, 0))
	}
	reg := compress.Default()
	for _, name := range []string{"lzf", "lz4", "gz", "bwz"} {
		c, err := reg.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := c.(compress.Appender)
		da := c.(compress.DecompressAppender)

		t.Run(name+"/AppendCompress", func(t *testing.T) {
			for _, src := range srcs {
				buf := a.AppendCompress(nil, src) // warm pools and size the buffer
				allocs := testing.AllocsPerRun(10, func() {
					buf = a.AppendCompress(buf[:0], src)
				})
				if allocs > 0 {
					t.Errorf("AppendCompress(%d bytes): %v allocs/op, want 0", len(src), allocs)
				}
			}
		})
		t.Run(name+"/DecompressAppend", func(t *testing.T) {
			for _, src := range srcs {
				comp := c.Compress(src)
				buf, err := da.DecompressAppend(nil, comp, len(src))
				if err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(10, func() {
					buf, err = da.DecompressAppend(buf[:0], comp, len(src))
					if err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 0 {
					t.Errorf("DecompressAppend(%d bytes): %v allocs/op, want 0", len(src), allocs)
				}
			}
		})
	}
}
