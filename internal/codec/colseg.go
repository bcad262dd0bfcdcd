package codec

// Column-segment array codecs. The tiered column store serializes sealed
// 1024-row segments into kv pages; these encoders produce losslessly
// round-tripping, self-describing blobs for each array shape a segment
// holds: int64 values, float64 values, uint32 dictionary codes, and the
// uint64 null-bitmap words. Integers and codes pick the smallest of a
// raw, run-length, or bit-packed layout — appended metadata
// is often constant or slowly varying per block, where RLE and narrow
// packing win 10-100x — while floats and bitmaps stay raw so every bit
// pattern (NaN payloads, -0.0) survives byte-exactly. Decode(Encode(x))
// is x for every input; nothing here is lossy.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Array layout tags (first byte of every encoded array).
const (
	segRaw    = 0x00 // fixed-width little-endian values
	segRLE    = 0x01 // (run length, value) pairs, varint-coded
	segPacked = 0x02 // ints: min value + fixed bit width deltas; codes: fixed bit width
)

// maxSegElems bounds decoded allocation: segments are 1024 rows, so any
// count beyond this is corruption, not data.
const maxSegElems = 1 << 20

func segHeader(tag byte, n int) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64)
	buf = append(buf, tag)
	return binary.AppendUvarint(buf, uint64(n))
}

func segCount(b []byte) (tag byte, n int, rest []byte, err error) {
	if len(b) < 2 {
		return 0, 0, nil, fmt.Errorf("%w: short segment array", ErrCorrupt)
	}
	tag = b[0]
	c, sz := binary.Uvarint(b[1:])
	if sz <= 0 || c > maxSegElems {
		return 0, 0, nil, fmt.Errorf("%w: bad segment count", ErrCorrupt)
	}
	return tag, int(c), b[1+sz:], nil
}

// EncodeInts encodes an int64 array, choosing the smallest of the raw,
// run-length and bit-packed layouts.
func EncodeInts(v []int64) []byte {
	raw := segHeader(segRaw, len(v))
	for _, x := range v {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(x))
	}
	best := raw
	if rle := encodeIntsRLE(v); len(rle) < len(best) {
		best = rle
	}
	if packed := encodeIntsPacked(v); packed != nil && len(packed) < len(best) {
		best = packed
	}
	return best
}

func encodeIntsRLE(v []int64) []byte {
	out := segHeader(segRLE, len(v))
	for i := 0; i < len(v); {
		j := i
		for j < len(v) && v[j] == v[i] {
			j++
		}
		out = binary.AppendUvarint(out, uint64(j-i))
		out = binary.AppendVarint(out, v[i])
		i = j
	}
	return out
}

// encodeIntsPacked stores min + fixed-width deltas (LSB-first bit
// packing). Returns nil when packing cannot beat raw (width 64 or empty).
func encodeIntsPacked(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	minV := v[0]
	for _, x := range v {
		if x < minV {
			minV = x
		}
	}
	var maxDelta uint64
	for _, x := range v {
		if d := uint64(x) - uint64(minV); d > maxDelta {
			maxDelta = d
		}
	}
	// Widths past 56 bits could overflow the 64-bit packing accumulator
	// (pending bits + width > 64) and save almost nothing over raw.
	width := bits.Len64(maxDelta)
	if width > 56 {
		return nil
	}
	out := segHeader(segPacked, len(v))
	out = binary.LittleEndian.AppendUint64(out, uint64(minV))
	out = append(out, byte(width))
	return appendPacked(out, v, minV, width)
}

// appendPacked packs each value's offset from base into width bits,
// LSB first. width <= 56 keeps the pending bits plus one value inside
// the 64-bit accumulator.
func appendPacked[T int64 | uint32](out []byte, v []T, base T, width int) []byte {
	var acc uint64
	nbits := 0
	for _, x := range v {
		acc |= (uint64(x) - uint64(base)) << nbits
		nbits += width
		for nbits >= 8 {
			out = append(out, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		out = append(out, byte(acc))
	}
	return out
}

// unpack reads len(out) width-bit offsets from p, LSB first, and adds
// base to each. A value spans at most width + 7 <= 63 bits from its
// first byte, so one unaligned 8-byte load extracts it; only the values
// starting in the last 8 bytes load through a zero-padded copy.
func unpack[T int64 | uint32](out []T, p []byte, width int, base T) {
	if width == 0 {
		for i := range out {
			out[i] = base
		}
		return
	}
	mask := uint64(1)<<width - 1
	for i, bit := 0, 0; i < len(out); i, bit = i+1, bit+width {
		at := bit >> 3
		var word uint64
		if at+8 <= len(p) {
			word = binary.LittleEndian.Uint64(p[at:])
		} else {
			var pad [8]byte
			copy(pad[:], p[at:])
			word = binary.LittleEndian.Uint64(pad[:])
		}
		out[i] = base + T(word>>(bit&7)&mask)
	}
}

// DecodeInts decodes an EncodeInts blob.
func DecodeInts(b []byte) ([]int64, error) {
	tag, n, rest, err := segCount(b)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	switch tag {
	case segRaw:
		if len(rest) != n*8 {
			return nil, fmt.Errorf("%w: raw int payload", ErrCorrupt)
		}
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(rest[i*8:]))
		}
	case segRLE:
		i := 0
		for i < n {
			run, sz := binary.Uvarint(rest)
			if sz <= 0 || run == 0 || run > uint64(n-i) {
				return nil, fmt.Errorf("%w: int run", ErrCorrupt)
			}
			rest = rest[sz:]
			val, sz := binary.Varint(rest)
			if sz <= 0 {
				return nil, fmt.Errorf("%w: int run value", ErrCorrupt)
			}
			rest = rest[sz:]
			for k := 0; k < int(run); k++ {
				out[i] = val
				i++
			}
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: trailing int runs", ErrCorrupt)
		}
	case segPacked:
		if len(rest) < 9 {
			return nil, fmt.Errorf("%w: packed int header", ErrCorrupt)
		}
		minV := int64(binary.LittleEndian.Uint64(rest))
		width := int(rest[8])
		rest = rest[9:]
		if width > 56 || len(rest) != (n*width+7)/8 {
			return nil, fmt.Errorf("%w: packed int payload", ErrCorrupt)
		}
		unpack(out, rest, width, minV)
	default:
		return nil, fmt.Errorf("%w: int layout tag %d", ErrCorrupt, tag)
	}
	return out, nil
}

// EncodeFloats encodes a float64 array as raw little-endian bit patterns
// — bit-exact for every value, including NaN payloads and signed zeros.
func EncodeFloats(v []float64) []byte {
	out := segHeader(segRaw, len(v))
	for _, x := range v {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// DecodeFloats decodes an EncodeFloats blob.
func DecodeFloats(b []byte) ([]float64, error) {
	tag, n, rest, err := segCount(b)
	if err != nil {
		return nil, err
	}
	if tag != segRaw || len(rest) != n*8 {
		return nil, fmt.Errorf("%w: float payload", ErrCorrupt)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	return out, nil
}

// EncodeCodes encodes a uint32 dictionary-code array in the smallest of
// the raw, run-length and bit-packed layouts. One pass measures all
// three (the largest code fixes the packed width, run boundaries fix
// the RLE size) and only the winner is written, so spilling a segment
// costs one encode whatever the data. Dictionaries are small in
// practice, so the packed layout usually wins: 16 labels pack into 4
// bits a row, 512 bytes per 1024-row segment against 4 KiB raw.
func EncodeCodes(v []uint32) []byte {
	var maxCode uint32
	rleSize := 0
	for i := 0; i < len(v); {
		j := i + 1
		for j < len(v) && v[j] == v[i] {
			j++
		}
		if v[i] > maxCode {
			maxCode = v[i]
		}
		rleSize += uvarintLen(uint64(j-i)) + uvarintLen(uint64(v[i]))
		i = j
	}
	width := bits.Len32(maxCode)
	rawSize, packedSize := 4*len(v), 1+(len(v)*width+7)/8
	switch {
	case packedSize <= rawSize && packedSize <= rleSize:
		out := segHeader(segPacked, len(v))
		out = append(out, byte(width))
		return appendPacked(out, v, 0, width)
	case rleSize < rawSize:
		out := segHeader(segRLE, len(v))
		for i := 0; i < len(v); {
			j := i + 1
			for j < len(v) && v[j] == v[i] {
				j++
			}
			out = binary.AppendUvarint(out, uint64(j-i))
			out = binary.AppendUvarint(out, uint64(v[i]))
			i = j
		}
		return out
	default:
		out := segHeader(segRaw, len(v))
		for _, x := range v {
			out = binary.LittleEndian.AppendUint32(out, x)
		}
		return out
	}
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// DecodeCodes decodes an EncodeCodes blob. The result is a fresh array
// that never aliases b, so callers may decode out of a reused buffer.
func DecodeCodes(b []byte) ([]uint32, error) {
	tag, n, rest, err := segCount(b)
	if err != nil {
		return nil, err
	}
	switch tag {
	case segRaw:
		if len(rest) != n*4 {
			return nil, fmt.Errorf("%w: raw code payload", ErrCorrupt)
		}
		out := make([]uint32, n)
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(rest[i*4:])
		}
		return out, nil
	case segRLE:
		out := make([]uint32, n)
		i := 0
		for i < n {
			run, sz := binary.Uvarint(rest)
			if sz <= 0 || run == 0 || run > uint64(n-i) {
				return nil, fmt.Errorf("%w: code run", ErrCorrupt)
			}
			rest = rest[sz:]
			val, sz := binary.Uvarint(rest)
			if sz <= 0 || val > math.MaxUint32 {
				return nil, fmt.Errorf("%w: code run value", ErrCorrupt)
			}
			rest = rest[sz:]
			for k := 0; k < int(run); k++ {
				out[i] = uint32(val)
				i++
			}
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: trailing code runs", ErrCorrupt)
		}
		return out, nil
	case segPacked:
		if len(rest) < 1 {
			return nil, fmt.Errorf("%w: packed code header", ErrCorrupt)
		}
		width := int(rest[0])
		rest = rest[1:]
		if width > 32 || len(rest) != (n*width+7)/8 {
			return nil, fmt.Errorf("%w: packed code payload", ErrCorrupt)
		}
		out := make([]uint32, n)
		unpack(out, rest, width, 0)
		return out, nil
	default:
		return nil, fmt.Errorf("%w: code layout tag %d", ErrCorrupt, tag)
	}
}

// EncodeBitmap encodes null-bitmap words raw (they are already dense).
func EncodeBitmap(v []uint64) []byte {
	out := segHeader(segRaw, len(v))
	for _, x := range v {
		out = binary.LittleEndian.AppendUint64(out, x)
	}
	return out
}

// DecodeBitmap decodes an EncodeBitmap blob.
func DecodeBitmap(b []byte) ([]uint64, error) {
	tag, n, rest, err := segCount(b)
	if err != nil {
		return nil, err
	}
	if tag != segRaw || len(rest) != n*8 {
		return nil, fmt.Errorf("%w: bitmap payload", ErrCorrupt)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(rest[i*8:])
	}
	return out, nil
}
