package codec

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestIntSegRoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{},
		{0},
		{42},
		{math.MinInt64, math.MaxInt64, 0, -1, 1},
		{7, 7, 7, 7, 7, 7, 7, 7},  // RLE-friendly
		{100, 101, 102, 103, 104}, // narrow packed
		{-5, -5, -5, 12, 12, 900000, -5},
	}
	long := make([]int64, 1024)
	for i := range long {
		long[i] = int64(i / 7) // slowly varying: packed or RLE wins
	}
	cases = append(cases, long)
	rnd := rand.New(rand.NewSource(1))
	wild := make([]int64, 1024)
	for i := range wild {
		wild[i] = int64(rnd.Uint64()) // full-width: raw layout
	}
	cases = append(cases, wild)
	for ci, in := range cases {
		got, err := DecodeInts(EncodeInts(in))
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if len(in) == 0 {
			if len(got) != 0 {
				t.Fatalf("case %d: want empty, got %v", ci, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("case %d: round trip mismatch:\n in=%v\nout=%v", ci, in, got)
		}
	}
}

func TestIntSegCompresses(t *testing.T) {
	v := make([]int64, 1024)
	for i := range v {
		v[i] = 3 // constant block: one RLE run
	}
	if n := len(EncodeInts(v)); n >= 1024 {
		t.Fatalf("constant int block encoded to %d bytes, want far under raw (8192)", n)
	}
	clustered := make([]int64, 1024)
	for i := range clustered {
		clustered[i] = int64(i % 16)
	}
	if n := len(EncodeInts(clustered)); n >= 1024*2 {
		t.Fatalf("narrow int block encoded to %d bytes, want bit-packed (~512)", n)
	}
}

func TestFloatSegRoundTripBitExact(t *testing.T) {
	in := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000123), math.SmallestNonzeroFloat64}
	got, err := DecodeFloats(EncodeFloats(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(in) {
		t.Fatalf("length %d != %d", len(got), len(in))
	}
	for i := range in {
		if math.Float64bits(got[i]) != math.Float64bits(in[i]) {
			t.Fatalf("row %d: bits %x != %x", i, math.Float64bits(got[i]), math.Float64bits(in[i]))
		}
	}
}

func TestCodeSegRoundTrip(t *testing.T) {
	cases := [][]uint32{
		{},
		{0, 0, 0, 1, 1, 2, math.MaxUint32},
		{5},
	}
	seq := make([]uint32, 1024)
	for i := range seq {
		seq[i] = uint32(i % 3)
	}
	cases = append(cases, seq)
	for ci, in := range cases {
		got, err := DecodeCodes(EncodeCodes(in))
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if len(in) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("case %d: round trip mismatch", ci)
		}
	}
}

func TestBitmapSegRoundTrip(t *testing.T) {
	in := []uint64{0, ^uint64(0), 0xDEADBEEF, 1 << 63}
	got, err := DecodeBitmap(EncodeBitmap(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip mismatch: %v != %v", got, in)
	}
}

func TestSegDecodeCorrupt(t *testing.T) {
	blob := EncodeInts([]int64{1, 2, 3, 4})
	if _, err := DecodeInts(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated int blob decoded without error")
	}
	if _, err := DecodeInts(nil); err == nil {
		t.Fatal("nil int blob decoded without error")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 0x7F // unknown layout tag
	if _, err := DecodeInts(bad); err == nil {
		t.Fatal("unknown tag decoded without error")
	}
	if _, err := DecodeFloats([]byte{segRLE, 1, 0}); err == nil {
		t.Fatal("non-raw float tag decoded without error")
	}
	if _, err := DecodeCodes([]byte{segRLE, 2, 1, 0}); err == nil {
		t.Fatal("short code runs decoded without error")
	}
}

// packedCodesBlob builds a bit-packed code blob of the given width
// directly, so widths the encoder never picks (32: raw is smaller) are
// still covered.
func packedCodesBlob(v []uint32, width int) []byte {
	out := append(segHeader(segPacked, len(v)), byte(width))
	return appendPacked(out, v, 0, width)
}

func TestCodeSegPackedWidths(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for width := 0; width <= 32; width++ {
		for _, n := range []int{1, 3, 7, 9, 13, 1021, 1024} {
			in := make([]uint32, n)
			limit := uint64(1) << width
			for i := range in {
				in[i] = uint32(rnd.Uint64() % limit)
			}
			in[rnd.Intn(n)] = uint32(limit - 1) // pin the width
			got, err := DecodeCodes(packedCodesBlob(in, width))
			if err != nil || !reflect.DeepEqual(got, in) {
				t.Fatalf("width %d, %d rows: packed round trip failed (err=%v)", width, n, err)
			}
			blob := EncodeCodes(in)
			if got, err := DecodeCodes(blob); err != nil || !reflect.DeepEqual(got, in) {
				t.Fatalf("width %d, %d rows: EncodeCodes round trip failed (err=%v)", width, n, err)
			}
			if width < 32 && blob[0] == segPacked && int(blob[len(segHeader(0, n))]) != width {
				t.Fatalf("width %d, %d rows: encoder chose width %d", width, n, blob[len(segHeader(0, n))])
			}
		}
	}
}

func TestCodeSegPicksPacked(t *testing.T) {
	v := make([]uint32, 1024)
	rnd := rand.New(rand.NewSource(3))
	for i := range v {
		v[i] = uint32(rnd.Intn(16)) // 16 labels: 4 bits a row
	}
	blob := EncodeCodes(v)
	if blob[0] != segPacked || len(blob) != 3+1+512 {
		t.Fatalf("16-label block: tag %d, %d bytes; want packed, 516 bytes", blob[0], len(blob))
	}
	for i := range v {
		v[i] = 9
	}
	if blob := EncodeCodes(v); blob[0] != segRLE || len(blob) > 8 {
		t.Fatalf("constant block: tag %d, %d bytes; want one RLE run", blob[0], len(blob))
	}
	for i := range v {
		v[i] = 0
	}
	if blob := EncodeCodes(v); blob[0] != segPacked || len(blob) != 4 {
		t.Fatalf("all-zero block: tag %d, %d bytes; want zero-width packed", blob[0], len(blob))
	}
}

func TestCodeSegCorruptPacked(t *testing.T) {
	in := make([]uint32, 13)
	for i := range in {
		in[i] = uint32(i * 37)
	}
	for width := 9; width <= 32; width += 23 {
		blob := packedCodesBlob(in, width)
		for cut := 0; cut < len(blob); cut++ {
			if _, err := DecodeCodes(blob[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("width %d cut at %d/%d: err = %v, want ErrCorrupt", width, cut, len(blob), err)
			}
		}
		long := append(append([]byte(nil), blob...), 0)
		if _, err := DecodeCodes(long); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("width %d with a trailing byte: err = %v, want ErrCorrupt", width, err)
		}
	}
	for _, width := range []byte{33, 64, 255} {
		blob := append(segHeader(segPacked, 2), width)
		blob = append(blob, make([]byte, (2*int(width)+7)/8)...)
		if _, err := DecodeCodes(blob); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("width %d: err = %v, want ErrCorrupt", width, err)
		}
	}
}

// TestCodeSegLegacyFixtures pins the raw and run-length layouts written
// before the packed layout existed: stores spilled then still reopen.
func TestCodeSegLegacyFixtures(t *testing.T) {
	cases := []struct {
		blob []byte
		want []uint32
	}{
		// raw: tag 0, count 3, three little-endian uint32s
		{[]byte{0x00, 0x03, 0x01, 0, 0, 0, 0x02, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, []uint32{1, 2, math.MaxUint32}},
		// RLE: tag 1, count 5, runs (3 x 7) and (2 x 128)
		{[]byte{0x01, 0x05, 0x03, 0x07, 0x02, 0x80, 0x01}, []uint32{7, 7, 7, 128, 128}},
		// RLE: one run of 1024 zeros
		{[]byte{0x01, 0x80, 0x08, 0x80, 0x08, 0x00}, make([]uint32, 1024)},
	}
	for i, c := range cases {
		got, err := DecodeCodes(c.blob)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Fatalf("fixture %d: got %v, %v", i, got, err)
		}
	}
}

// FuzzDecodeCodes feeds arbitrary bytes to DecodeCodes: it must never
// panic, every failure must be ErrCorrupt, and whatever decodes must
// survive an encode/decode round trip.
func FuzzDecodeCodes(f *testing.F) {
	f.Add([]byte{0x00, 0x03, 0x01, 0, 0, 0, 0x02, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x01, 0x05, 0x03, 0x07, 0x02, 0x80, 0x01})
	f.Add(packedCodesBlob([]uint32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 4))
	f.Add(packedCodesBlob([]uint32{0, math.MaxUint32, 77}, 32))
	f.Add([]byte{segPacked, 0x02, 33, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeCodes(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		again, err := DecodeCodes(EncodeCodes(got))
		if err != nil || len(again) != len(got) || (len(got) > 0 && !reflect.DeepEqual(again, got)) {
			t.Fatalf("re-encode round trip failed: %v", err)
		}
	})
}

func TestIntSegPackedWidths(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for width := 0; width <= 56; width++ {
		for _, n := range []int{1, 7, 1021} {
			base := int64(rnd.Uint64())
			in := make([]int64, n)
			for i := range in {
				in[i] = base + int64(rnd.Uint64()&(1<<width-1))
			}
			blob := binary.LittleEndian.AppendUint64(segHeader(segPacked, n), uint64(base))
			blob = appendPacked(append(blob, byte(width)), in, base, width)
			if got, err := DecodeInts(blob); err != nil || !reflect.DeepEqual(got, in) {
				t.Fatalf("width %d, %d rows: packed round trip failed (err=%v)", width, n, err)
			}
			if got, err := DecodeInts(EncodeInts(in)); err != nil || !reflect.DeepEqual(got, in) {
				t.Fatalf("width %d, %d rows: EncodeInts round trip failed (err=%v)", width, n, err)
			}
		}
	}
}
