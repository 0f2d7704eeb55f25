package bwz

import (
	"fmt"
	"testing"

	"edc/internal/datagen"
	"edc/internal/race"
)

// TestAppendCompressAllocs pins steady-state AppendCompress at zero
// allocations from one 4 KiB block up to a full MaxBlock: every suffix
// sort, MTF and entropy-coding buffer comes from the pooled scratch.
func TestAppendCompressAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs allocation counts (sync.Pool puts are dropped at random)")
	}
	gen := datagen.New(datagen.Enterprise(), 7)
	c := New()
	for _, n := range []int{4 << 10, 64 << 10, 1 << 20} {
		src := gen.Block(0, n, 0)
		t.Run(fmt.Sprintf("%dKiB", n>>10), func(t *testing.T) {
			buf := c.AppendCompress(nil, src) // warm the pool, size the buffer
			allocs := testing.AllocsPerRun(5, func() {
				buf = c.AppendCompress(buf[:0], src)
			})
			if allocs > 0 {
				t.Errorf("AppendCompress(%d bytes): %v allocs/op, want 0", n, allocs)
			}
		})
	}
}
