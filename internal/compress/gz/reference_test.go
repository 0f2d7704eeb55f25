package gz

import (
	"encoding/binary"

	"edc/internal/bitio"
	"edc/internal/huffman"
)

// This file keeps the encoder's former parse and emission as test
// oracles: the production encoder must produce the same tokens and the
// same bytes.

// lengthToCode maps a match length (3..258) to (symbol, extra value,
// bits) by a linear scan of lengthCodes.
func lengthToCode(l int) (sym, extraVal int, extraBits uint) {
	for i := len(lengthCodes) - 1; i >= 0; i-- {
		if l >= lengthCodes[i].base {
			return 257 + i, l - lengthCodes[i].base, lengthCodes[i].extra
		}
	}
	return 257, 0, 0
}

// distToCode maps a distance (1..32768) to (symbol, extra value, bits)
// by a linear scan of distCodes.
func distToCode(d int) (sym, extraVal int, extraBits uint) {
	for i := numDist - 1; i >= 0; i-- {
		if d >= distCodes[i].base {
			return i, d - distCodes[i].base, distCodes[i].extra
		}
	}
	return 0, 0, 0
}

// referenceParse is the former parser: hash-chain LZ77 with one-token
// lazy evaluation, a head table reset on every call and byte-wise
// match extension.
func referenceParse(src []byte) []token {
	var tokens []token
	if len(src) == 0 {
		return tokens
	}
	head := make([]int32, hashSize)
	prev := make([]int32, len(src))
	for i := range head {
		head[i] = -1
	}
	insert := func(i int) {
		if i+4 > len(src) {
			return
		}
		h := hash4(binary.LittleEndian.Uint32(src[i:]))
		prev[i] = head[h]
		head[h] = int32(i)
	}
	bestMatch := func(i int) (dist, length int) {
		if i+minMatch > len(src) || i+4 > len(src) {
			return 0, 0
		}
		h := hash4(binary.LittleEndian.Uint32(src[i:]))
		cand := head[h]
		limit := len(src) - i
		if limit > maxMatch {
			limit = maxMatch
		}
		chain := maxChain
		for cand >= 0 && chain > 0 {
			c := int(cand)
			if i-c > maxDist {
				break
			}
			if src[c+length] == src[i+length] {
				l := 0
				for l < limit && src[c+l] == src[i+l] {
					l++
				}
				if l > length {
					length = l
					dist = i - c
					if l >= niceLength || l >= limit {
						break
					}
				}
			}
			cand = prev[c]
			chain--
		}
		if length < minMatch {
			return 0, 0
		}
		return dist, length
	}
	i := 0
	for i < len(src) {
		dist, length := bestMatch(i)
		if length >= minMatch {
			if length < niceLength && i+1 < len(src) {
				insert(i)
				d2, l2 := bestMatch(i + 1)
				if l2 > length+1 {
					tokens = append(tokens, token{val: uint16(src[i])})
					i++
					dist, length = d2, l2
				}
			} else {
				insert(i)
			}
			tokens = append(tokens, token{dist: uint16(dist), val: uint16(length)})
			for j := i + 1; j < i+length; j++ {
				insert(j)
			}
			i += length
			continue
		}
		insert(i)
		tokens = append(tokens, token{val: uint16(src[i])})
		i++
	}
	return tokens
}

// referenceCompress is the former AppendCompress: referenceParse, code
// lengths from the token counts, one Encode or WriteBits per field, and
// the stored fallback chosen after writing the Huffman form.
func referenceCompress(src []byte) []byte {
	tokens := referenceParse(src)
	litFreq := make([]int64, numLitLen)
	distFreq := make([]int64, numDist)
	litFreq[eob] = 1
	for _, t := range tokens {
		if t.dist == 0 {
			litFreq[t.val]++
			continue
		}
		s, _, _ := lengthToCode(int(t.val))
		litFreq[s]++
		ds, _, _ := distToCode(int(t.dist))
		distFreq[ds]++
	}
	litLens, err := huffman.BuildLengths(litFreq, huffman.MaxBits)
	if err != nil {
		panic(err)
	}
	distLens, err := huffman.BuildLengths(distFreq, huffman.MaxBits)
	if err != nil {
		panic(err)
	}
	litEnc, err := huffman.NewEncoderFromLengths(litLens)
	if err != nil {
		panic(err)
	}
	distEnc, err := huffman.NewEncoderFromLengths(distLens)
	if err != nil {
		panic(err)
	}
	var w bitio.Writer
	w.WriteBits(compressedMagic, 8)
	huffman.WriteLengths(&w, litLens)
	huffman.WriteLengths(&w, distLens)
	for _, t := range tokens {
		if t.dist == 0 {
			_ = litEnc.Encode(&w, int(t.val))
			continue
		}
		s, ev, eb := lengthToCode(int(t.val))
		_ = litEnc.Encode(&w, s)
		if eb > 0 {
			w.WriteBits(uint64(ev), eb)
		}
		ds, dev, deb := distToCode(int(t.dist))
		_ = distEnc.Encode(&w, ds)
		if deb > 0 {
			w.WriteBits(uint64(dev), deb)
		}
	}
	_ = litEnc.Encode(&w, eob)
	out := w.Bytes()
	if len(out) >= len(src)+1 {
		return append([]byte{storedMagic}, src...)
	}
	return out
}
