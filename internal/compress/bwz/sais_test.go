package bwz

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"edc/internal/compress/codectest"
)

// doublingSuffixArray is the codec's former suffix sort, kept as the
// differential oracle for SA-IS: prefix doubling with counting-sort
// passes, O(n log n), sentinel (index len(s)) first.
func doublingSuffixArray(s []byte) []int32 {
	n := len(s) + 1
	sa, rank, tmp := make([]int32, n), make([]int32, n), make([]int32, n)
	cnt := make([]int32, max(n+1, 257))
	key0 := func(i int) int32 {
		if i == n-1 {
			return 0
		}
		return int32(s[i]) + 1
	}
	for i := 0; i < n; i++ {
		cnt[key0(i)]++
	}
	for v := 1; v <= 256; v++ {
		cnt[v] += cnt[v-1]
	}
	for i := n - 1; i >= 0; i-- {
		k := key0(i)
		cnt[k]--
		sa[cnt[k]] = int32(i)
	}
	rank[sa[0]] = 0
	for i := 1; i < n; i++ {
		rank[sa[i]] = rank[sa[i-1]]
		if key0(int(sa[i])) != key0(int(sa[i-1])) {
			rank[sa[i]]++
		}
	}
	for k := 1; int(rank[sa[n-1]]) != n-1; k <<= 1 {
		// Radix sort by (rank[i], rank[i+k]): second key first, where
		// suffixes i >= n-k have the empty (smallest) second key.
		idx := 0
		for i := n - k; i < n; i++ {
			tmp[idx] = int32(i)
			idx++
		}
		for i := 0; i < n; i++ {
			if int(sa[i]) >= k {
				tmp[idx] = sa[i] - int32(k)
				idx++
			}
		}
		clear(cnt[:n])
		for i := 0; i < n; i++ {
			cnt[rank[i]]++
		}
		for v := 1; v < n; v++ {
			cnt[v] += cnt[v-1]
		}
		for i := n - 1; i >= 0; i-- {
			r := rank[tmp[i]]
			cnt[r]--
			sa[cnt[r]] = tmp[i]
		}
		second := func(i int32) int32 {
			if int(i)+k < n {
				return rank[int(i)+k] + 1
			}
			return 0
		}
		tmp[sa[0]] = 0
		for i := 1; i < n; i++ {
			tmp[sa[i]] = tmp[sa[i-1]]
			if rank[sa[i]] != rank[sa[i-1]] || second(sa[i]) != second(sa[i-1]) {
				tmp[sa[i]]++
			}
		}
		copy(rank, tmp)
	}
	return sa
}

// naiveSuffixArray sorts the suffixes by direct comparison; the
// sentinel (empty suffix) sorts first.
func naiveSuffixArray(s []byte) []int32 {
	sa := make([]int32, len(s)+1)
	for i := range sa {
		sa[i] = int32(i)
	}
	slices.SortFunc(sa, func(a, b int32) int { return bytes.Compare(s[a:], s[b:]) })
	return sa
}

// checkSuffixArray fails t unless suffixArray(s) equals want.
func checkSuffixArray(t *testing.T, name string, s []byte, want []int32, st *scratch) {
	t.Helper()
	got := suffixArray(s, st)
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s (n=%d): sa[%d] = %d, want %d", name, len(s), i, got[i], want[i])
		}
	}
}

// fibonacci returns the length-n prefix of the Fibonacci word over
// {a, b}, which maximises SA-IS recursion depth for its length.
func fibonacci(n int) []byte {
	a, b := []byte("a"), []byte("ab")
	for len(b) < n {
		a, b = b, append(append([]byte(nil), b...), a...)
	}
	return b[:n]
}

// adversarialInputs are the shapes that stress induced sorting: no or
// one symbol, long runs, short periods (deep recursion with few
// names), every byte value, and runs of the extreme bytes around LMS
// boundaries.
func adversarialInputs() map[string][]byte {
	in := map[string][]byte{
		"empty":       {},
		"one":         {'x'},
		"two-equal":   {7, 7},
		"two-up":      {1, 2},
		"two-down":    {2, 1},
		"banana":      []byte("banana"),
		"mississippi": []byte("mississippi"),
		"zeros":       make([]byte, 5000),
		"ones":        bytes.Repeat([]byte{0xff}, 5000),
		"period2":     bytes.Repeat([]byte("ab"), 2500),
		"period3":     bytes.Repeat([]byte("abc"), 1700),
		"period3eq":   bytes.Repeat([]byte("aab"), 1700),
		"fib":         fibonacci(6000),
		"fib-small":   fibonacci(233),
	}
	all := make([]byte, 0, 512)
	for i := 0; i < 256; i++ {
		all = append(all, byte(i))
	}
	for i := 255; i >= 0; i-- {
		all = append(all, byte(i))
	}
	in["all-bytes"] = all
	// Runs of 0x00 and 0xff meeting single bytes put LMS positions right
	// after every run.
	var runs []byte
	rng := rand.New(rand.NewSource(1))
	for len(runs) < 6000 {
		v := byte(0)
		if rng.Intn(2) == 1 {
			v = 0xff
		}
		runs = append(runs, bytes.Repeat([]byte{v}, 1+rng.Intn(40))...)
		runs = append(runs, byte(rng.Intn(256)))
	}
	in["runs-00-ff"] = runs
	in["zero-ff-alt"] = bytes.Repeat([]byte{0, 0xff}, 3000)
	in["ff-then-zero"] = append(bytes.Repeat([]byte{0xff}, 3000), make([]byte, 3000)...)
	in["zero-then-ff"] = append(make([]byte, 3000), bytes.Repeat([]byte{0xff}, 3000)...)
	return in
}

func TestSuffixArraySorted(t *testing.T) {
	st := new(scratch)
	for name, s := range adversarialInputs() {
		sa := suffixArray(s, st)
		if len(sa) != len(s)+1 {
			t.Fatalf("%s: sa length %d; want %d", name, len(sa), len(s)+1)
		}
		if sa[0] != int32(len(s)) {
			t.Fatalf("%s: sentinel suffix not first: sa[0]=%d", name, sa[0])
		}
		seen := make([]bool, len(s)+1)
		for j, i := range sa {
			if seen[i] {
				t.Fatalf("%s: suffix %d listed twice", name, i)
			}
			seen[i] = true
			if j > 1 && bytes.Compare(s[sa[j-1]:], s[i:]) >= 0 {
				t.Fatalf("%s: suffixes out of order at %d", name, j)
			}
		}
	}
}

// TestSuffixArrayMatchesOracle checks SA-IS against the doubling sort on
// every content class at three sizes and on the adversarial shapes,
// reusing one scratch throughout as the codec's pool does.
func TestSuffixArrayMatchesOracle(t *testing.T) {
	st := new(scratch)
	for _, cls := range codectest.Classes {
		for _, n := range []int{4 << 10, 64 << 10, 1 << 20} {
			s := codectest.ClassBlock(t, cls, n)
			checkSuffixArray(t, fmt.Sprintf("%v/%d", cls, n), s, doublingSuffixArray(s), st)
		}
	}
	for name, s := range adversarialInputs() {
		checkSuffixArray(t, name, s, doublingSuffixArray(s), st)
		checkSuffixArray(t, name+"/naive", s, naiveSuffixArray(s), st)
	}
}

func FuzzSuffixArray(f *testing.F) {
	for _, s := range adversarialInputs() {
		f.Add(s[:min(len(s), 4096)])
	}
	st := new(scratch)
	f.Fuzz(func(t *testing.T, s []byte) {
		if len(s) > 4096 {
			s = s[:4096]
		}
		checkSuffixArray(t, "fuzz", s, naiveSuffixArray(s), st)
	})
}
