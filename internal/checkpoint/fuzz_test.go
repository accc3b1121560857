package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzState is a section shaped like the simulator's: parallel primitive
// arrays (the tracker layout), a string, signed values, a sparse column
// and a float.
type fuzzState struct {
	Keys   []uint64
	TIDs   []uint32
	Flags  []uint8
	Name   string
	Cycle  uint64
	Vals   []int64
	Sparse [64]uint64
	Ratio  float64
}

func (s *fuzzState) Save(e *Enc) {
	PutUints(e, s.Keys)
	PutUints(e, s.TIDs)
	PutUints(e, s.Flags)
	e.String(s.Name)
	e.Uint(s.Cycle)
	PutInts(e, s.Vals)
	e.Column(len(s.Sparse), func(i int) uint64 { return s.Sparse[i] })
	e.Float(s.Ratio)
}

func (s *fuzzState) Load(d *Dec) {
	s.Keys = GetUints(d, s.Keys)
	s.TIDs = GetUints(d, s.TIDs)
	s.Flags = GetUints(d, s.Flags)
	s.Name = d.String()
	s.Cycle = d.Uint()
	s.Vals = GetInts(d, s.Vals)
	clear(s.Sparse[:])
	d.Column(len(s.Sparse), func(i int, v uint64) { s.Sparse[i] = v })
	s.Ratio = d.Float()
}

// fuzzImage encodes a small but real image: a library manifest and one
// state section.
func fuzzImage(tb testing.TB) []byte {
	img := NewImage()
	PutManifest(img, libManifest())
	st := fuzzState{
		Keys:  []uint64{64, 128, 1 << 40},
		TIDs:  []uint32{1, 2, 3},
		Flags: []uint8{0, 1, 2},
		Name:  "l2",
		Cycle: 123_456,
		Vals:  []int64{-1, 0, 1},
		Ratio: 0.25,
	}
	st.Sparse[3], st.Sparse[60] = 7, 1<<33
	img.Put("state", st.Save)
	var buf bytes.Buffer
	if err := img.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCheckpointDecode feeds corrupted images to Decode and Image.Get:
// every failure must be a *FormatError, never a panic. With fixCRC the
// fuzzer's bytes get a valid checksum, so the corruption reaches the
// container parser and the section decoder instead of stopping at the CRC
// check.
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
	// A state section whose first length prefix claims 2^40 elements.
	huge := NewImage()
	PutManifest(huge, libManifest())
	huge.Put("state", func(e *Enc) { e.Uint(1 << 40) })
	var buf bytes.Buffer
	if err := huge.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), false)
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
			if err := img.Get(name, st.Load); err != nil {
				wantFormatError(t, "Get "+name, err)
			}
			if n := len(st.Keys) + len(st.TIDs) + len(st.Flags) + len(st.Vals); n > img.SectionLen(name) {
				t.Fatalf("Get %s: decoded %d elements from a %d-byte section", name, n, img.SectionLen(name))
			}
			var m LibraryManifest
			if err := img.Get(name, m.Load); err != nil {
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
	if err := img.Get("state", st.Load); err != nil {
		t.Fatal(err)
	}
	if st.Name != "l2" || st.Cycle != 123_456 || st.Vals[0] != -1 || st.Sparse[60] != 1<<33 || st.Ratio != 0.25 {
		t.Fatalf("state section decoded as %+v", st)
	}
}

// TestReadFileRejectsVersion1 hands ReadFile a version-1 header (the gob
// format) behind a valid checksum: the one reader must refuse it with a
// *FormatError that names the version, never try to decode it.
func TestReadFileRejectsVersion1(t *testing.T) { rejectsVersion(t, 1) }

// TestReadFileRejectsVersion2 does the same for version 2, whose meta
// section carried two options that no longer exist.
func TestReadFileRejectsVersion2(t *testing.T) { rejectsVersion(t, 2) }

func rejectsVersion(t *testing.T, version uint32) {
	t.Helper()
	raw := []byte(Magic)
	raw = binary.LittleEndian.AppendUint32(raw, version) // format version
	raw = binary.LittleEndian.AppendUint32(raw, 0)       // section count
	raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw))
	path := filepath.Join(t.TempDir(), "old.ckpt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(path)
	var ferr *FormatError
	if !errors.As(err, &ferr) {
		t.Fatalf("ReadFile = %v, want a *FormatError", err)
	}
	if want := fmt.Sprintf("version %d", version); !strings.Contains(ferr.Reason, want) {
		t.Fatalf("error %q does not name %s", ferr.Reason, want)
	}
}
