package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzState is a section shaped like the simulator's: mostly-zero records
// (a cache's lines), parallel primitive arrays (the tracker layout), a
// string, signed values, a sparse column and a float.
type fuzzState struct {
	Recs   [16]fuzzRec
	Keys   []uint64
	TIDs   []uint32
	Flags  []uint8
	Name   string
	Cycle  uint64
	Vals   []int64
	Sparse [64]uint64
	Ratio  float64
}

func (s *fuzzState) Sync(c *Codec) {
	Sparse(c, s.Recs[:], "records")
	Slice(c, &s.Keys, -1, "keys")
	Slice(c, &s.TIDs, -1, "TIDs")
	Slice(c, &s.Flags, -1, "flags")
	c.String(&s.Name)
	c.Uint(&s.Cycle)
	Slice(c, &s.Vals, -1, "values")
	Zero(c, s.Sparse[:])
	Column(c, s.Sparse[:], func(v *uint64) *uint64 { return v })
	c.Float(&s.Ratio)
}

// fuzzRec is one record of a Sparse field.
type fuzzRec struct {
	Tag uint64
	Age int32
}

func (r *fuzzRec) Sync(c *Codec) {
	c.Uint(&r.Tag)
	I(c, &r.Age)
}

// sparseGapSection writes the start of a state section whose one sparse
// record lies gap records past the start: a gap of 2^63 or more does not
// fit an int.
func sparseGapSection(c *Codec, gap uint64) {
	n, k := uint64(len(fuzzState{}.Recs)), uint64(1)
	c.Uint(&n)
	c.Uint(&k)
	c.Uint(&gap)
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
	st.Recs[2], st.Recs[15] = fuzzRec{Tag: 9, Age: -3}, fuzzRec{Tag: 1 << 50}
	img.Put("state", st.Sync)
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
	huge.Put("state", func(c *Codec) { v := uint64(1 << 40); c.Uint(&v) })
	var buf bytes.Buffer
	if err := huge.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), false)
	// A state section whose sparse record index overflows an int.
	gap := NewImage()
	PutManifest(gap, libManifest())
	gap.Put("state", func(c *Codec) { sparseGapSection(c, math.MaxUint64) })
	buf.Reset()
	if err := gap.Encode(&buf); err != nil {
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
			if err := img.Get(name, st.Sync); err != nil {
				wantFormatError(t, "Get "+name, err)
			}
			if n := len(st.Keys) + len(st.TIDs) + len(st.Flags) + len(st.Vals); n > img.SectionLen(name) {
				t.Fatalf("Get %s: decoded %d elements from a %d-byte section", name, n, img.SectionLen(name))
			}
			var m LibraryManifest
			if err := img.Get(name, m.Sync); err != nil {
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
	if err := img.Get("state", st.Sync); err != nil {
		t.Fatal(err)
	}
	if st.Name != "l2" || st.Cycle != 123_456 || st.Vals[0] != -1 || st.Sparse[60] != 1<<33 || st.Ratio != 0.25 ||
		st.Recs[2].Age != -3 || st.Recs[15].Tag != 1<<50 {
		t.Fatalf("state section decoded as %+v", st)
	}
}

// TestSparseRejectsIndexPastEnd reads sparse record indexes at and past
// the end of the field, including gaps that overflow an int: each must
// fail the read with a *FormatError, not index out of range.
func TestSparseRejectsIndexPastEnd(t *testing.T) {
	for _, gap := range []uint64{16, 1 << 63, math.MaxUint64} {
		var w Codec
		sparseGapSection(&w, gap)
		r := NewReader("state", w.Bytes())
		var st fuzzState
		st.Sync(&r)
		wantFormatError(t, fmt.Sprintf("gap %d", gap), r.Finish())
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
