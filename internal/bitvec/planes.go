package bitvec

import "math/bits"

// Bit-plane pack/unpack kernels.
//
// The transposed data layout of a compute SRAM array (§III: element bit i
// of lane l lives in row base+i, bit line l) means staging an element
// vector is a bit-matrix transpose: lanes-by-bits in operand memory,
// bits-by-lanes in the array. The kernels below perform that transpose
// 64 lanes at a time with the classic 8×8 bit-matrix transpose
// (delta-swap) instead of visiting each (lane, bit) cell individually,
// so writing an 8-bit element vector into an array costs a handful of
// word operations per plane rather than 256 SetBit calls.

// transpose8x8 transposes the 8×8 bit matrix packed into x, where byte r
// holds row r and bit c of that byte holds column c. The result has byte
// c holding the original column c. Three delta-swap rounds (Hacker's
// Delight §7-3).
func transpose8x8(x uint64) uint64 {
	t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
	x ^= t ^ (t << 7)
	t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
	x ^= t ^ (t << 14)
	t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
	x ^= t ^ (t << 28)
	return x
}

// Pack64 transposes up to 64 n-bit elements into n bit-plane words: after
// the call, bit l of planes[i] is bit i of vals[l]. Plane bits for lanes
// at or beyond len(vals) are zero. n must be in [1, 64], len(vals) at
// most 64, and len(planes) at least n.
func Pack64(vals []uint64, n int, planes []uint64) {
	for i := 0; i < n; i++ {
		planes[i] = 0
	}
	for b := 0; b*8 < n; b++ {
		lim := n - b*8
		if lim > 8 {
			lim = 8
		}
		for g := 0; g*8 < len(vals); g++ {
			rows := len(vals) - g*8
			if rows > 8 {
				rows = 8
			}
			var x uint64
			for r := 0; r < rows; r++ {
				x |= (vals[g*8+r] >> (8 * b) & 0xff) << (8 * r)
			}
			x = transpose8x8(x)
			for c := 0; c < lim; c++ {
				planes[b*8+c] |= (x >> (8 * c) & 0xff) << (8 * g)
			}
		}
	}
}

// Unpack64 is the inverse of Pack64: it gathers bit i of each lane from
// planes[i] and reassembles up to 64 n-bit elements. n must be in
// [1, 64], len(vals) at most 64, and len(planes) at least n.
func Unpack64(planes []uint64, n int, vals []uint64) {
	for l := range vals {
		vals[l] = 0
	}
	for b := 0; b*8 < n; b++ {
		lim := n - b*8
		if lim > 8 {
			lim = 8
		}
		for g := 0; g*8 < len(vals); g++ {
			var x uint64
			for c := 0; c < lim; c++ {
				x |= (planes[b*8+c] >> (8 * g) & 0xff) << (8 * c)
			}
			x = transpose8x8(x)
			rows := len(vals) - g*8
			if rows > 8 {
				rows = 8
			}
			for r := 0; r < rows; r++ {
				vals[g*8+r] |= (x >> (8 * r) & 0xff) << (8 * b)
			}
		}
	}
}

// PackPlanes transposes up to 256 n-bit elements into n Vec256 bit
// planes, one per element bit: bit line l of planes[i] is bit i of
// vals[l]. Lanes at or beyond len(vals) are zero in every plane. n must
// be in [1, 64], len(vals) at most Bits, and len(planes) at least n.
func PackPlanes(vals []uint64, n int, planes []Vec256) {
	for i := 0; i < n; i++ {
		planes[i] = Vec256{}
	}
	var pw [64]uint64
	for w := 0; w*64 < len(vals); w++ {
		lo := w * 64
		hi := lo + 64
		if hi > len(vals) {
			hi = len(vals)
		}
		Pack64(vals[lo:hi], n, pw[:n])
		for i := 0; i < n; i++ {
			planes[i][w] = pw[i]
		}
	}
}

// UnpackPlanes is the inverse of PackPlanes: it reassembles up to 256
// n-bit elements from n Vec256 bit planes. n must be in [1, 64],
// len(vals) at most Bits, and len(planes) at least n.
func UnpackPlanes(planes []Vec256, n int, vals []uint64) {
	var pw [64]uint64
	var lv [64]uint64
	for w := 0; w*64 < len(vals); w++ {
		lo := w * 64
		hi := lo + 64
		if hi > len(vals) {
			hi = len(vals)
		}
		for i := 0; i < n; i++ {
			pw[i] = planes[i][w]
		}
		Unpack64(pw[:n], n, lv[:hi-lo])
		copy(vals[lo:hi], lv[:hi-lo])
	}
}

// PackWords transposes len(vals) n-bit elements into n bit planes of
// words = ⌈len(vals)/64⌉ uint64 words each, plane i occupying
// planes[i·words, (i+1)·words): bit l of plane i is bit i of vals[l].
// It is PackPlanes for an element count that is not tied to one array's
// 256 bit lines — a pixel's channels, say — so the planes can later be
// placed at any lane offset with OrRepeat. n must be in [1, 64] and
// len(planes) at least n·words.
func PackWords(vals []uint64, n int, planes []uint64) {
	words := (len(vals) + 63) / 64
	var pw [64]uint64
	for w := 0; w < words; w++ {
		lo := w * 64
		Pack64(vals[lo:min(lo+64, len(vals))], n, pw[:n])
		for i := 0; i < n; i++ {
			planes[i*words+w] = pw[i]
		}
	}
}

// orBits ORs the bit string src (bit b of the string is bit b%64 of
// src[b/64]) into dst starting at bit offset off, shifting across word
// boundaries, so a field may straddle two words of dst. Every set bit of
// src must land inside dst.
func orBits(dst []uint64, off int, src []uint64) {
	w, sh := off>>6, uint(off&63)
	for k, v := range src {
		if v == 0 {
			continue
		}
		dst[w+k] |= v << sh
		if hi := v >> (64 - sh); hi != 0 {
			dst[w+k+1] |= hi
		}
	}
}

// OrRepeat ORs count copies of the bit string src into dst, copy k at bit
// offset off+k·stride, as count orBits calls would. Every set bit of src
// must lie below stride, so copies never overlap, and inside dst. A
// one-word src with a stride below 64 is replicated with one multiply per
// destination word: since the copies are disjoint, src·Σ2^(t·stride) is
// their OR.
func OrRepeat(dst []uint64, off, stride, count int, src []uint64) {
	if len(src) != 1 || stride >= 64 {
		for k := 0; k < count; k++ {
			orBits(dst, off+k*stride, src)
		}
		return
	}
	v := src[0]
	if v == 0 {
		return
	}
	for count > 0 {
		w, sh := off>>6, uint(off&63)
		n := min(count, (64-int(sh)+stride-1)/stride) // copies starting in word w
		rep := uint64(1)
		for c := 1; c < n; c *= 2 {
			rep |= rep << uint(c*stride)
		}
		rep &= 1<<uint((n-1)*stride+1) - 1
		hi, lo := bits.Mul64(v, rep)
		dst[w] |= lo << sh
		if spill := hi<<sh | lo>>(64-sh); spill != 0 {
			dst[w+1] |= spill
		}
		off += n * stride
		count -= n
	}
}

// PackPlanesRef is the bit-by-bit specification of PackPlanes, kept as
// the oracle for property tests.
func PackPlanesRef(vals []uint64, n int, planes []Vec256) {
	for i := 0; i < n; i++ {
		v := Zero()
		for l, val := range vals {
			v = v.SetBit(l, uint(val>>uint(i))&1)
		}
		planes[i] = v
	}
}

// UnpackPlanesRef is the bit-by-bit specification of UnpackPlanes.
func UnpackPlanesRef(planes []Vec256, n int, vals []uint64) {
	for l := range vals {
		var val uint64
		for i := 0; i < n; i++ {
			val |= uint64(planes[i].Bit(l)) << uint(i)
		}
		vals[l] = val
	}
}

// OnesCountRange returns the number of set bits at positions [lo, hi).
// Bounds are clamped to [0, Bits].
func (v Vec256) OnesCountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > Bits {
		hi = Bits
	}
	n := 0
	for w := 0; w < Words; w++ {
		wlo, whi := w*64, w*64+64
		if hi <= wlo || lo >= whi {
			continue
		}
		word := v[w]
		if lo > wlo {
			word &^= (1 << uint(lo-wlo)) - 1
		}
		if hi < whi {
			word &= (1 << uint(hi-wlo)) - 1
		}
		n += bits.OnesCount64(word)
	}
	return n
}
