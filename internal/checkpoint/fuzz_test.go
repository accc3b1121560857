package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// fuzzState is a section shaped like the simulator's: parallel primitive
// arrays (the tracker and cache encodings), a nested struct and a map.
type fuzzState struct {
	Keys  []uint64
	TIDs  []uint32
	Flags []uint8
	Name  string
	Inner struct {
		Cycle uint64
		Vals  []int64
	}
	Counts map[string]uint64
}

// fuzzImage encodes a small but real image: a library manifest and one
// state section.
func fuzzImage(tb testing.TB) []byte {
	img := NewImage()
	if err := PutManifest(img, libManifest()); err != nil {
		tb.Fatal(err)
	}
	st := fuzzState{
		Keys:   []uint64{64, 128, 1 << 40},
		TIDs:   []uint32{1, 2, 3},
		Flags:  []uint8{0, 1, 2},
		Name:   "l2",
		Counts: map[string]uint64{"hits": 7, "misses": 3},
	}
	st.Inner.Cycle = 123_456
	st.Inner.Vals = []int64{-1, 0, 1}
	if err := img.Put("state", st); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := img.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCheckpointDecode feeds corrupted images to Decode and Image.Get:
// every failure must be a *FormatError, never a panic. With fixCRC the
// fuzzer's bytes get a valid checksum, so the corruption reaches the
// section parser and gob instead of stopping at the CRC check.
func FuzzCheckpointDecode(f *testing.F) {
	good := fuzzImage(f)
	f.Add(good, false)
	f.Add(good, true)
	for _, n := range []int{0, 7, 12, 20, len(good) / 2, len(good) - 5, len(good) - 1} {
		f.Add(good[:n], false)
		f.Add(good[:n], true)
	}
	for _, bit := range []int{8 * 9, 8 * 13, 8 * 17, 8 * 30, 8 * (len(good) / 2), 8*len(good) - 1} {
		flipped := bytes.Clone(good)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped, false)
		f.Add(flipped, true)
	}
	f.Fuzz(func(t *testing.T, raw []byte, fixCRC bool) {
		if fixCRC && len(raw) >= 4 {
			raw = bytes.Clone(raw)
			body := raw[:len(raw)-4]
			binary.LittleEndian.PutUint32(raw[len(body):], crc32.ChecksumIEEE(body))
		}
		img, err := Decode(bytes.NewReader(raw))
		if err != nil {
			wantFormatError(t, "Decode", err)
			return
		}
		for _, name := range img.Names() {
			var st fuzzState
			if err := img.Get(name, &st); err != nil {
				wantFormatError(t, "Get "+name, err)
			}
			var m LibraryManifest
			if err := img.Get(name, &m); err != nil {
				wantFormatError(t, "Get "+name, err)
			}
		}
		if _, err := Manifest(img); err != nil {
			wantFormatError(t, "Manifest", err)
		}
	})
}

func wantFormatError(t *testing.T, what string, err error) {
	t.Helper()
	var ferr *FormatError
	if !errors.As(err, &ferr) {
		t.Fatalf("%s: error is %T (%v), want *FormatError", what, err, err)
	}
}

// TestDecodeSectionsAreCapped pins the copy-free decode's safety: sections
// alias the decoded buffer, so each must be capacity-capped at its own end
// and an append to one can never write into the next.
func TestDecodeSectionsAreCapped(t *testing.T) {
	img, err := Decode(bytes.NewReader(fuzzImage(t)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range img.Names() {
		if s := img.sections[name]; cap(s) != len(s) {
			t.Errorf("section %q: len %d, cap %d", name, len(s), cap(s))
		}
	}
	var st fuzzState
	if err := img.Get("state", &st); err != nil {
		t.Fatal(err)
	}
	if st.Name != "l2" || st.Inner.Cycle != 123_456 || st.Counts["misses"] != 3 {
		t.Fatalf("state section decoded as %+v", st)
	}
}
