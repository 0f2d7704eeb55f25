package huffman

import (
	"math/rand"
	"slices"
	"testing"

	"edc/internal/bitio"
	"edc/internal/race"
)

// referenceBuild is the builder's former construction, kept as the
// differential oracle: a binary min-heap over (freq, seq), a recursive
// depth walk, and limitLengths' repair with an insertion-sorted order.
func referenceBuild(freqs []int64, maxBits int) []uint8 {
	type refNode struct {
		freq        int64
		symbol      int
		left, right int
		seq         int
	}
	lengths := make([]uint8, len(freqs))
	var nodes []refNode
	var hp []int
	for sym, f := range freqs {
		if f > 0 {
			hp = append(hp, len(nodes))
			nodes = append(nodes, refNode{freq: f, symbol: sym, left: -1, right: -1, seq: len(nodes)})
		}
	}
	switch len(nodes) {
	case 0:
		return lengths
	case 1:
		lengths[nodes[0].symbol] = 1
		return lengths
	}
	less := func(a, b int) bool {
		if nodes[a].freq != nodes[b].freq {
			return nodes[a].freq < nodes[b].freq
		}
		return nodes[a].seq < nodes[b].seq
	}
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(hp) {
				return
			}
			j := l
			if r := l + 1; r < len(hp) && less(hp[r], hp[l]) {
				j = r
			}
			if !less(hp[j], hp[i]) {
				return
			}
			hp[i], hp[j] = hp[j], hp[i]
			i = j
		}
	}
	for i := len(hp)/2 - 1; i >= 0; i-- {
		down(i)
	}
	pop := func() int {
		min := hp[0]
		hp[0] = hp[len(hp)-1]
		hp = hp[:len(hp)-1]
		down(0)
		return min
	}
	for len(hp) > 1 {
		x, y := pop(), pop()
		nodes = append(nodes, refNode{freq: nodes[x].freq + nodes[y].freq, symbol: -1, left: x, right: y, seq: len(nodes)})
		hp = append(hp, len(nodes)-1)
		for i := len(hp) - 1; i > 0 && less(hp[i], hp[(i-1)/2]); i = (i - 1) / 2 {
			hp[i], hp[(i-1)/2] = hp[(i-1)/2], hp[i]
		}
	}
	var walk func(i int, depth uint8)
	walk = func(i int, depth uint8) {
		if nd := nodes[i]; nd.symbol >= 0 {
			lengths[nd.symbol] = depth
		} else {
			walk(nd.left, depth+1)
			walk(nd.right, depth+1)
		}
	}
	walk(hp[0], 0)
	referenceLimitLengths(lengths, maxBits)
	return lengths
}

// referenceLimitLengths is the former limitLengths: clamp, zlib-style
// pair rebalancing, exact Kraft fix-up, then re-assignment in
// insertion-sorted (clamped length, symbol) order.
func referenceLimitLengths(lengths []uint8, maxBits int) {
	if slices.Max(lengths) <= uint8(maxBits) {
		return
	}
	var counts [MaxBits + 2]int
	over := 0
	for i, l := range lengths {
		if l == 0 {
			continue
		}
		if int(l) > maxBits {
			over++
			lengths[i] = uint8(maxBits)
		}
		counts[lengths[i]]++
	}
	for over > 0 {
		bits := maxBits - 1
		for counts[bits] == 0 {
			bits--
		}
		counts[bits]--
		counts[bits+1] += 2
		counts[maxBits]--
		over -= 2
	}
	kraft := func() int {
		k := 0
		for l := 1; l <= maxBits; l++ {
			k += counts[l] << uint(maxBits-l)
		}
		return k
	}
	full := 1 << uint(maxBits)
	for k := kraft(); k != full; k = kraft() {
		if k < full && counts[maxBits] > 0 {
			counts[maxBits]--
			counts[maxBits-1]++
		} else if k > full && counts[maxBits-1] > 0 {
			counts[maxBits-1]--
			counts[maxBits]++
		} else if k > full {
			bits := maxBits - 2
			for bits > 0 && counts[bits] == 0 {
				bits--
			}
			counts[bits]--
			counts[bits+1]++
		} else {
			bits := maxBits - 1
			for bits > 1 && counts[bits] == 0 {
				bits--
			}
			counts[bits]--
			counts[bits-1]++
		}
	}
	type symLen struct {
		sym int
		len uint8
	}
	var order []symLen
	for s, l := range lengths {
		if l > 0 {
			order = append(order, symLen{s, l})
		}
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if a.len > b.len || (a.len == b.len && a.sym > b.sym) {
				order[j-1], order[j] = b, a
			} else {
				break
			}
		}
	}
	idx := 0
	for l := 1; l <= maxBits; l++ {
		for c := 0; c < counts[l]; c++ {
			lengths[order[idx].sym] = uint8(l)
			idx++
		}
	}
}

// fibFreqs returns n frequencies whose first symbols follow the
// Fibonacci sequence: the most skewed tree, deep enough to need
// length limiting at every maxBits.
func fibFreqs(n int) []int64 {
	freqs := make([]int64, n)
	a, b := int64(1), int64(1)
	for i := range freqs {
		freqs[i] = a
		if i < 60 {
			a, b = b, a+b
		}
	}
	return freqs
}

// buildCases returns frequency vectors that stress tie-breaking,
// skew and length limiting, over alphabets up to gz's 285 symbols.
func buildCases() [][]int64 {
	rng := rand.New(rand.NewSource(5))
	cases := [][]int64{
		{}, {0, 0}, {7}, {0, 3, 0}, {1, 1}, {5, 0, 5, 0, 5},
		fibFreqs(30), fibFreqs(285), fibFreqs(2),
	}
	for _, n := range []int{2, 3, 17, 30, 256, 258, 285} {
		for k := 0; k < 40; k++ {
			f := make([]int64, n)
			for i := range f {
				switch k % 4 {
				case 0: // uniform, many zeros
					if rng.Intn(3) > 0 {
						f[i] = int64(rng.Intn(1000))
					}
				case 1: // geometric skew
					f[i] = int64(1) << uint(rng.Intn(40))
				case 2: // heavy ties
					f[i] = int64(rng.Intn(3))
				default: // one dominant symbol over a long tail
					f[i] = int64(rng.Intn(4))
					if i == k%n {
						f[i] = 1 << 40
					}
				}
			}
			cases = append(cases, f)
		}
	}
	return cases
}

func TestBuildMatchesReference(t *testing.T) {
	var b Builder
	var dst []uint8
	for ci, freqs := range buildCases() {
		for _, maxBits := range []int{9, 12, MaxBits} {
			want := referenceBuild(freqs, maxBits)
			got, err := b.Build(dst, freqs, maxBits)
			if err != nil {
				t.Fatalf("case %d maxBits %d: %v", ci, maxBits, err)
			}
			dst = got
			if !slices.Equal(got, want) {
				t.Fatalf("case %d maxBits %d (%d symbols): lengths\n%v\nwant\n%v", ci, maxBits, len(freqs), got, want)
			}
		}
	}
}

func TestBuildOverflowAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs allocation counts")
	}
	freqs := fibFreqs(285)
	var b Builder
	dst, err := b.Build(nil, freqs, MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Max(referenceBuild(freqs, 255)) <= MaxBits { // 255: no limiting
		t.Fatal("test input does not exercise length limiting")
	}
	allocs := testing.AllocsPerRun(10, func() {
		dst, _ = b.Build(dst, freqs, MaxBits)
	})
	if allocs > 0 {
		t.Errorf("Build with length limiting: %v allocs/op, want 0", allocs)
	}
}

func TestLengthsBits(t *testing.T) {
	for ci, freqs := range buildCases() {
		lengths := referenceBuild(freqs, MaxBits)
		var w bitio.Writer
		WriteLengths(&w, lengths)
		if got, want := LengthsBits(lengths), w.BitLen(); got != want {
			t.Fatalf("case %d: LengthsBits %d, WriteLengths wrote %d bits", ci, got, want)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	text := make([]int64, 285)
	for i := range text {
		text[i] = int64(rng.Intn(1 << uint(rng.Intn(12))))
	}
	for _, c := range []struct {
		name  string
		freqs []int64
	}{{"text285", text}, {"fib285", fibFreqs(285)}} {
		b.Run(c.name, func(b *testing.B) {
			var bl Builder
			dst, _ := bl.Build(nil, c.freqs, MaxBits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = bl.Build(dst, c.freqs, MaxBits)
			}
		})
	}
}
