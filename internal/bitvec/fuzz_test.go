package bitvec

import (
	"encoding/binary"
	"testing"
)

// fuzzVals derives count n-bit lane values from fuzz bytes: lane l reads
// the little-endian word at data[8l:], zero-padded when data runs out.
func fuzzVals(data []byte, count, n int) []uint64 {
	vals := make([]uint64, count)
	for l := range vals {
		var buf [8]byte
		if lo := 8 * l; lo < len(data) {
			copy(buf[:], data[lo:])
		}
		vals[l] = binary.LittleEndian.Uint64(buf[:])
		if n < 64 {
			vals[l] &= 1<<uint(n) - 1
		}
	}
	return vals
}

// FuzzPackPlanes checks the word-packed transpose kernels against their
// bit-by-bit oracles for any element width in [1, 64] and up to 256
// lanes: PackPlanes must equal PackPlanesRef, UnpackPlanes must invert it
// and equal UnpackPlanesRef, and Unpack of arbitrary planes must agree
// with the oracle too.
func FuzzPackPlanes(f *testing.F) {
	f.Add(uint8(7), uint16(256), []byte("\xff\x01\x80\x7f\x00\xaa\x55\x0f"))
	f.Add(uint8(63), uint16(65), []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, nb uint8, cb uint16, data []byte) {
		n := int(nb)%64 + 1
		count := int(cb) % (Bits + 1)
		vals := fuzzVals(data, count, n)
		got := make([]Vec256, n)
		want := make([]Vec256, n)
		PackPlanes(vals, n, got)
		PackPlanesRef(vals, n, want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d count=%d plane %d:\n got %v\nwant %v", n, count, i, got[i], want[i])
			}
		}
		back := make([]uint64, count)
		UnpackPlanes(got, n, back)
		for l := range vals {
			if back[l] != vals[l] {
				t.Fatalf("n=%d count=%d lane %d: round trip %#x, want %#x", n, count, l, back[l], vals[l])
			}
		}
		raw := make([]Vec256, n)
		for i := range raw {
			for w := range raw[i] {
				raw[i][w] = fuzzVals(data[min(len(data), 8*(i*Words+w)):], 1, 64)[0]
			}
		}
		gotV := make([]uint64, count)
		wantV := make([]uint64, count)
		UnpackPlanes(raw, n, gotV)
		UnpackPlanesRef(raw, n, wantV)
		for l := range wantV {
			if gotV[l] != wantV[l] {
				t.Fatalf("n=%d count=%d lane %d: unpack %#x, oracle %#x", n, count, l, gotV[l], wantV[l])
			}
		}
	})
}

// FuzzOrRepeat checks window assembly from pre-packed fields against a
// per-lane PackPlanes of the same lanes. Fields of width c sit every
// stride lanes from lane start, in runs of up to run fields that share
// one value (a conv window's output channels share its pixel). Each run's
// value is packed once with PackWords and its planes placed with
// OrRepeat, which falls back to orBits for fields wider than a word.
// Widths, strides and starts that are not multiples of 64 make fields
// straddle words.
func FuzzOrRepeat(f *testing.F) {
	f.Add(uint8(7), uint16(4), uint16(4), uint8(0), uint8(8), []byte("\x01\x02\x03\x04\x05\x06\x07\x08\xff"))
	f.Add(uint8(7), uint16(40), uint16(50), uint8(30), uint8(1), []byte("\xff\xff\xff\xff\xff\xff\xff\xff\x80"))
	f.Add(uint8(3), uint16(255), uint16(256), uint8(1), uint8(3), []byte{0x0f, 0xf0, 0x3c})
	f.Fuzz(func(t *testing.T, nb uint8, cb, sb uint16, start, rb uint8, data []byte) {
		n := int(nb)%64 + 1
		c := int(cb)%Bits + 1
		stride := c + int(sb)%(Bits-c+1)
		lo := int(start) % (Bits - c + 1)
		run := int(rb)%32 + 1
		fields := (Bits-c-lo)/stride + 1
		lanes := make([]uint64, Bits)
		words := make([]uint64, n*Words)
		fw := (c + 63) / 64
		packed := make([]uint64, n*fw)
		for first := 0; first < fields; first += run {
			count := min(run, fields-first)
			vals := fuzzVals(data[min(len(data), 8*first):], c, n)
			off := lo + first*stride
			for k := 0; k < count; k++ {
				copy(lanes[off+k*stride:], vals)
			}
			PackWords(vals, n, packed)
			for i := 0; i < n; i++ {
				OrRepeat(words[i*Words:(i+1)*Words], off, stride, count, packed[i*fw:(i+1)*fw])
			}
		}
		want := make([]Vec256, n)
		PackPlanes(lanes, n, want)
		for i := range want {
			if got := Vec256(words[i*Words : (i+1)*Words]); got != want[i] {
				t.Fatalf("n=%d c=%d stride=%d start=%d run=%d plane %d:\n got %v\nwant %v",
					n, c, stride, lo, run, i, got, want[i])
			}
		}
	})
}
