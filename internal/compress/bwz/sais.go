package bwz

import "slices"

// Suffix sorting by induced sorting (SA-IS): Nong, Zhang and Chan, "Two
// Efficient Algorithms for Linear Time Suffix Array Construction", IEEE
// Trans. Computers 60(10), 2011, in the in-place form of Go's
// index/suffixarray (after Yuta Mori's sais-lite).
//
// Every text ends in a virtual sentinel smaller than any symbol, so a
// suffix that is a prefix of another sorts first. Suffix i is S-type if
// text[i:] < text[i+1:] and L-type otherwise; i is an LMS position if it
// is S-type and i-1 is L-type. One level sorts the LMS substrings by
// induction, names them, sorts the reduced string of names (at most
// half as long) recursively when names repeat, and induces the full
// order from the sorted LMS suffixes. The top level sorts bytes; deeper
// levels sort int32 names held in the upper half of sa.
//
// Types are never stored: each induction step learns the type of the
// suffix it places from the symbol before it and keeps it in the sign
// of the sa entry, which doubles as the work queue. 0 is an empty slot
// (suffix 0 has no predecessor to induce, so it needs no mark). Each
// level takes its symbol counts, bucket pointers and list of LMS
// positions from the front of bkt and hands the rest down, so a sort
// into pooled scratch allocates nothing.

// suffixArray returns the suffix array of s plus its sentinel: sa[0] =
// len(s) (the empty suffix), then the suffixes of s in order. The
// returned slice aliases st.sa.
func suffixArray(s []byte, st *scratch) []int32 {
	n := len(s)
	st.sa = grow32(st.sa, n+1)
	// Level d holds at most n/2^d symbols, at most half of them LMS
	// positions, and (for d > 0) as many distinct names: 3n entries plus
	// the byte alphabet's counters and one spare slot per level cover
	// every level.
	st.bkt = grow32(st.bkt, 2*256+3*n+64)
	st.sa[0] = int32(n)
	sais(s, 256, st.sa[1:], st.bkt)
	return st.sa
}

// sais writes into sa (len(text) entries) the suffix array of text,
// whose symbols lie in [0, k). It keeps 2k + (LMS count) entries of bkt,
// writes one more, and passes the rest to the recursion.
func sais[T byte | int32](text []T, k int, sa, bkt []int32) {
	n := len(text)
	if n < 2 {
		if n == 1 {
			sa[0] = 0
		}
		return
	}
	freq, b := bkt[:k], bkt[k:2*k]
	clear(freq)
	for _, c := range text {
		freq[c]++
	}
	lms := bkt[2*k : 2*k+n/2+1]
	numLMS := lmsPositions(text, lms)
	lms, bkt = lms[:numLMS], bkt[2*k+numLMS:]

	// Drop every LMS position into the end of its bucket. The leftmost
	// (last in lms) is left out: inducing from it would walk into the
	// S-type run that may open the text, which belongs to no LMS
	// substring. It is still found, from its right neighbour's substring.
	clear(sa)
	bucketEnds(freq, b)
	for _, p := range lms {
		c := text[p]
		b[c]--
		sa[b[c]] = p
	}
	if numLMS > 1 {
		sa[b[text[lms[numLMS-1]]]] = 0
		induceSubL(text, sa, freq, b)
		induceSubS(text, sa, freq, b)
		// sa[n-numLMS:] now holds the LMS positions ordered by LMS
		// substring, the rest of sa is zero.
		sorted := sa[n-numLMS:]
		names := nameLMS(text, sa, lms, sorted)
		if names < numLMS {
			// Pack the names into the reduced string at the top of sa,
			// in text order, and sort it into the bottom. Slot p/2 holds
			// the name of LMS position p (positions are at least two
			// apart, so slots are distinct and ordered by p).
			w := n
			for i := n / 2; i >= 0; i-- {
				if id := sa[i]; id > 0 {
					w--
					sa[w] = id - 1
				}
			}
			sorted = sa[:numLMS]
			sais(sa[n-numLMS:], names, sorted, bkt)
			// Map the reduced suffix order back to text positions.
			for i, r := range sorted {
				sorted[i] = lms[numLMS-1-int(r)]
			}
		} else {
			copy(sa, sorted)
		}
		placeSorted(text, sa, numLMS, freq, b)
	}
	induceL(text, sa, freq, b)
	induceS(text, sa, freq, b)
}

// lmsPositions writes the LMS positions of text into out, right to
// left, and returns how many there are; out needs one spare slot.
func lmsPositions[T byte | int32](text []T, out []int32) int {
	m := 0
	isS := 0 // the virtual sentinel makes the last suffix L-type
	c1 := text[len(text)-1]
	for i := len(text) - 2; i >= 0; i-- {
		c0 := text[i]
		s := b2i(c0 < c1) | b2i(c0 == c1)&isS
		out[m] = int32(i + 1)
		m += isS &^ s // i+1 is S-type, i is L-type
		isS, c1 = s, c0
	}
	return m
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// induceSubL scans sa left to right, placing each L-type suffix j-1
// after the sorted suffix j > 0 it precedes. A placed suffix whose own
// predecessor is S-type is queued negated and left, made positive, for
// induceSubS; every other worked entry is cleared.
func induceSubL[T byte | int32](text []T, sa, freq, b []int32) {
	bucketStarts(freq, b)
	n := len(text)
	// The sentinel, sorted first, induces suffix n-1.
	k := int32(n - 1)
	c0, c1 := text[k-1], text[k]
	if c0 < c1 {
		k = -k
	}
	cB := c1
	bb := b[cB]
	sa[bb] = k
	bb++
	for i := range sa {
		j := sa[i]
		if j == 0 {
			continue
		}
		if j < 0 {
			sa[i] = -j
			continue
		}
		sa[i] = 0
		k := j - 1
		c0, c1 := text[k-1], text[k]
		if c0 < c1 {
			k = -k
		}
		if cB != c1 {
			b[cB] = bb
			cB = c1
			bb = b[cB]
		}
		sa[bb] = k
		bb++
	}
}

// induceSubS scans sa right to left, placing each S-type suffix j-1
// before the suffix j > 0 it precedes. A placed suffix preceded by an
// L-type one is an LMS substring start: it is queued negated and, when
// reached, moved to the top of sa, which ends up holding every LMS
// position in LMS-substring order above zeros.
func induceSubS[T byte | int32](text []T, sa, freq, b []int32) {
	bucketEnds(freq, b)
	var cB T
	bb := b[cB]
	top := len(sa)
	for i := len(sa) - 1; i >= 0; i-- {
		j := sa[i]
		if j == 0 {
			continue
		}
		sa[i] = 0
		if j < 0 {
			top--
			sa[top] = -j
			continue
		}
		k := j - 1
		c0, c1 := text[k-1], text[k]
		if c0 > c1 {
			k = -k
		}
		if cB != c1 {
			b[cB] = bb
			cB = c1
			bb = b[cB]
		}
		bb--
		sa[bb] = k
	}
}

// nameLMS numbers the LMS substrings in sorted order from 1, equal
// substrings alike, writing the name of position p to sa[p/2]; it
// returns the number of distinct names. lms lists the LMS positions
// right to left. Each substring runs from its LMS position to the next
// one inclusive; two of equal length and symbols also agree in type.
// The last runs into the sentinel and is marked with length 0, unequal
// to every other.
func nameLMS[T byte | int32](text []T, sa, lms, sorted []int32) int {
	for j := 1; j < len(lms); j++ {
		p := lms[j]
		sa[p/2] = lms[j-1] + 1 - p
	}
	id := 0
	lastLen, lastPos := int32(-1), int32(0)
	for _, p := range sorted {
		ln := sa[p/2]
		if ln != lastLen || !slices.Equal(text[p:p+ln], text[lastPos:lastPos+ln]) {
			id++
			lastLen, lastPos = ln, p
		}
		sa[p/2] = int32(id)
	}
	return id
}

// placeSorted moves the numLMS sorted LMS positions in sa[:numLMS] to
// the ends of their buckets, in order, and zeroes every other slot.
func placeSorted[T byte | int32](text []T, sa []int32, numLMS int, freq, b []int32) {
	bucketEnds(freq, b)
	x := numLMS - 1
	p := sa[x]
	c := text[p]
	b[c]--
	next := b[c]
	for i := len(sa) - 1; i >= 0; i-- {
		if int32(i) != next {
			sa[i] = 0
			continue
		}
		sa[i] = p
		if x > 0 {
			x--
			p = sa[x]
			c = text[p]
			b[c]--
			next = b[c]
		}
	}
}

// induceL places every L-type suffix, scanning left to right from the
// sorted LMS suffixes. An entry j > 0 still has its L-type predecessor
// to place; a placed suffix whose predecessor is S-type is negated for
// induceS instead.
func induceL[T byte | int32](text []T, sa, freq, b []int32) {
	bucketStarts(freq, b)
	n := len(text)
	k := int32(n - 1)
	c0, c1 := text[k-1], text[k]
	if c0 < c1 {
		k = -k
	}
	cB := c1
	bb := b[cB]
	sa[bb] = k
	bb++
	for i := range sa {
		j := sa[i]
		if j <= 0 {
			continue
		}
		k := j - 1
		c1 := text[k]
		if k > 0 && text[k-1] < c1 {
			k = -k
		}
		if cB != c1 {
			b[cB] = bb
			cB = c1
			bb = b[cB]
		}
		sa[bb] = k
		bb++
	}
}

// induceS places every S-type suffix, scanning right to left: an entry
// j < 0 is made positive and its S-type predecessor placed, itself
// negated when its own predecessor is S-type too.
func induceS[T byte | int32](text []T, sa, freq, b []int32) {
	bucketEnds(freq, b)
	var cB T
	bb := b[cB]
	for i := len(sa) - 1; i >= 0; i-- {
		j := sa[i]
		if j >= 0 {
			continue
		}
		j = -j
		sa[i] = j
		k := j - 1
		c1 := text[k]
		if k > 0 && text[k-1] <= c1 {
			k = -k
		}
		if cB != c1 {
			b[cB] = bb
			cB = c1
			bb = b[cB]
		}
		bb--
		sa[bb] = k
	}
}

// bucketStarts sets b[c] to the first sa slot of symbol c's bucket.
func bucketStarts(freq, b []int32) {
	sum := int32(0)
	for c, f := range freq {
		b[c] = sum
		sum += f
	}
}

// bucketEnds sets b[c] to one past the last sa slot of c's bucket.
func bucketEnds(freq, b []int32) {
	sum := int32(0)
	for c, f := range freq {
		sum += f
		b[c] = sum
	}
}
