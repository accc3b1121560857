package checkpoint

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func libManifest() LibraryManifest {
	return LibraryManifest{
		Fingerprint: "abc123",
		CodeVersion: "test-1",
		Seed:        7,
		Window:      4,
		Cycle:       123_456,
		Retired:     654_321,
	}
}

func TestLibraryManifestRoundTrip(t *testing.T) {
	img := NewImage()
	PutManifest(img, libManifest())
	got, err := Manifest(img)
	if err != nil {
		t.Fatalf("Manifest: %v", err)
	}
	if got != libManifest() {
		t.Fatalf("manifest round trip: got %+v, want %+v", got, libManifest())
	}
}

func TestVerifyManifestMatches(t *testing.T) {
	img := NewImage()
	PutManifest(img, libManifest())
	m, err := VerifyManifest(img, "win-0004.ckpt", "abc123")
	if err != nil {
		t.Fatalf("VerifyManifest: %v", err)
	}
	if m.Window != 4 || m.Cycle != 123_456 {
		t.Fatalf("VerifyManifest returned %+v", m)
	}
}

func TestVerifyManifestRejectsStaleFingerprint(t *testing.T) {
	img := NewImage()
	PutManifest(img, libManifest())
	_, err := VerifyManifest(img, "win-0004.ckpt", "different")
	if err == nil {
		t.Fatal("VerifyManifest accepted a mismatched fingerprint")
	}
	var ferr *FormatError
	if !errors.As(err, &ferr) {
		t.Fatalf("error is %T (%v), want *FormatError", err, err)
	}
	if !strings.Contains(ferr.Reason, "stale library image") {
		t.Fatalf("error reason %q does not identify the image as stale", ferr.Reason)
	}
}

func TestVerifyManifestMissingSection(t *testing.T) {
	_, err := VerifyManifest(NewImage(), "x.ckpt", "abc")
	var ferr *FormatError
	if !errors.As(err, &ferr) {
		t.Fatalf("error is %T (%v), want *FormatError", err, err)
	}
}

func TestLibraryIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	idx := LibraryIndex{
		Fingerprint: "abc123",
		CodeVersion: "test-1",
		Workload:    "specint",
		Seed:        7,
		Span:        250_000,
		Windows: []LibraryWindow{
			{File: "win-0000.ckpt", Cycle: 0, Retired: 0},
			{File: "win-0001.ckpt", Cycle: 10_000, Retired: 55_000},
		},
	}
	if err := WriteLibraryIndex(dir, idx); err != nil {
		t.Fatalf("WriteLibraryIndex: %v", err)
	}
	got, err := ReadLibraryIndex(dir)
	if err != nil {
		t.Fatalf("ReadLibraryIndex: %v", err)
	}
	if got.Fingerprint != idx.Fingerprint || got.Span != idx.Span || len(got.Windows) != 2 {
		t.Fatalf("index round trip: got %+v", got)
	}
	if got.Windows[1] != idx.Windows[1] {
		t.Fatalf("window entry round trip: got %+v, want %+v", got.Windows[1], idx.Windows[1])
	}
}

func TestReadLibraryIndexMissing(t *testing.T) {
	_, err := ReadLibraryIndex(t.TempDir())
	var ferr *FormatError
	if !errors.As(err, &ferr) {
		t.Fatalf("error is %T (%v), want *FormatError", err, err)
	}
}

func TestLibraryWindowPath(t *testing.T) {
	got := LibraryWindowPath("lib", 7)
	want := filepath.Join("lib", "win-0007.ckpt")
	if got != want {
		t.Fatalf("LibraryWindowPath = %q, want %q", got, want)
	}
}

// TestReadFileIntoReusesBuffer reads a larger and then a smaller image
// through one buffer: the second read reuses the first's array and its
// image decodes as its own, and a failed read hands the buffer back.
func TestReadFileIntoReusesBuffer(t *testing.T) {
	dir := t.TempDir()
	big, small := libManifest(), libManifest()
	small.Window = 5
	bigImg := NewImage()
	PutManifest(bigImg, big)
	bigImg.Put("pad", func(c *Codec) { pad := strings.Repeat("x", 4096); c.String(&pad) })
	smallImg := NewImage()
	PutManifest(smallImg, small)
	for i, img := range []*Image{bigImg, smallImg} {
		if err := WriteFile(LibraryWindowPath(dir, i), img); err != nil {
			t.Fatal(err)
		}
	}
	img, buf, err := ReadFileInto(LibraryWindowPath(dir, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := Manifest(img); err != nil || m != big {
		t.Fatalf("first image: manifest %+v, %v", m, err)
	}
	first := &buf[0]
	img, buf, err = ReadFileInto(LibraryWindowPath(dir, 1), buf)
	if err != nil {
		t.Fatal(err)
	}
	if &buf[0] != first {
		t.Fatal("the smaller image was read into a new buffer")
	}
	if m, err := Manifest(img); err != nil || m != small {
		t.Fatalf("second image: manifest %+v, %v", m, err)
	}
	_, back, err := ReadFileInto(filepath.Join(dir, "missing.ckpt"), buf)
	var fe *FormatError
	if !errors.As(err, &fe) || &back[0] != first {
		t.Fatalf("missing file: error %v, buffer kept %v", err, &back[0] == first)
	}
}
