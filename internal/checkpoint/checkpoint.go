// Package checkpoint defines the on-disk container for simulator
// checkpoints — a versioned, CRC-protected set of named sections — and the
// section codec every layer syncs its state through (Codec; see codec.go).
// The package knows nothing about the simulator — core composes the
// sections — so it can be imported from every layer without cycles.
//
// Format (all integers little-endian):
//
//	8 bytes  magic "OSSMTCKP"
//	4 bytes  format version
//	4 bytes  section count
//	per section:
//	  4 bytes  name length, then the name (UTF-8)
//	  8 bytes  payload length, then the payload (Codec-encoded)
//	4 bytes  CRC-32 (IEEE) of everything above
//
// Sections are written sorted by name, so the same state always produces
// the same bytes. Decoding a corrupt or truncated file, or loading a
// damaged section, returns a *FormatError; it never panics.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Magic identifies a checkpoint file.
const Magic = "OSSMTCKP"

// Version is the current format version. Readers reject other versions:
// version 1 held gob-encoded sections, version 2 Codec-encoded ones whose meta
// section still carried the SeedPartitions and FetchContexts options, and
// version 3 holds Codec-encoded sections without them.
const Version = 3

// Sanity bounds on decoded lengths, so a corrupt header cannot drive a
// multi-gigabyte allocation before the CRC check is reached.
const (
	maxSections   = 1 << 12
	maxNameLen    = 1 << 10
	maxPayloadLen = 1 << 31
)

// FormatError describes a malformed, truncated, or corrupt checkpoint.
type FormatError struct {
	// Path is the file involved ("" for stream decoding).
	Path string
	// Reason says what was wrong.
	Reason string
	// Err is the underlying error, if any.
	Err error
}

func (e *FormatError) Error() string {
	where := "checkpoint"
	if e.Path != "" {
		where = fmt.Sprintf("checkpoint %s", e.Path)
	}
	if e.Err != nil {
		return fmt.Sprintf("%s: %s: %v", where, e.Reason, e.Err)
	}
	return fmt.Sprintf("%s: %s", where, e.Reason)
}

func (e *FormatError) Unwrap() error { return e.Err }

// Image is an in-memory checkpoint: named, independently decodable
// sections.
type Image struct {
	sections map[string][]byte
}

// NewImage returns an empty image.
func NewImage() *Image {
	return &Image{sections: map[string][]byte{}}
}

// Put stores the section sync writes, replacing any previous content. To
// write several sections, use a Writer.
func (img *Image) Put(name string, sync func(c *Codec)) {
	w := Writer{img: img}
	w.Put(name, sync)
}

// Writer writes the sections of one image through one codec, so the write
// buffer and column scratch grown for one section serve the next instead
// of each section growing its own from empty. Each section is copied out
// at its exact length, so the image carries no append slack and keeps
// nothing of the writer: drop the writer once the image is built.
type Writer struct {
	img *Image
	c   Codec
}

// NewWriter returns a writer that builds a new image.
func NewWriter() *Writer { return &Writer{img: NewImage()} }

// Put stores the section sync writes, replacing any previous content.
func (w *Writer) Put(name string, sync func(c *Codec)) {
	w.c.buf = w.c.buf[:0]
	sync(&w.c)
	w.img.sections[name] = bytes.Clone(w.c.buf)
}

// Image returns the image written so far.
func (w *Writer) Image() *Image { return w.img }

// Get runs sync over the named section, reading. A missing section, a
// failed read, or bytes left over after sync are a *FormatError.
func (img *Image) Get(name string, sync func(c *Codec)) error {
	b, ok := img.sections[name]
	if !ok {
		return &FormatError{Reason: fmt.Sprintf("missing section %q", name)}
	}
	c := NewReader(name, b)
	sync(&c)
	return c.Finish()
}

// SectionLen returns the encoded byte length of the named section (0 if
// absent) — cheap introspection for size accounting and tests.
func (img *Image) SectionLen(name string) int {
	return len(img.sections[name])
}

// Names returns the section names in sorted order.
func (img *Image) Names() []string {
	names := make([]string, 0, len(img.sections))
	for name := range img.sections {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Encode writes the image to w in the documented format.
func (img *Image) Encode(w io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf.Write(u32[:])
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u64[:], v)
		buf.Write(u64[:])
	}
	put32(Version)
	names := img.Names()
	put32(uint32(len(names)))
	for _, name := range names {
		put32(uint32(len(name)))
		buf.WriteString(name)
		payload := img.sections[name]
		put64(uint64(len(payload)))
		buf.Write(payload)
	}
	put32(crc32.ChecksumIEEE(buf.Bytes()))
	_, err := w.Write(buf.Bytes())
	return err
}

// Decode reads an image from r, verifying structure and checksum.
func Decode(r io.Reader) (*Image, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, &FormatError{Reason: "reading", Err: err}
	}
	return decode(raw, "")
}

// decode parses raw in place: each section is a capacity-capped sub-slice
// of raw, not a copy, so raw must not be modified afterwards. Put replaces
// a section rather than writing into it, and Get only reads.
func decode(raw []byte, path string) (*Image, error) {
	fail := func(reason string) (*Image, error) {
		return nil, &FormatError{Path: path, Reason: reason}
	}
	if len(raw) < len(Magic)+4+4+4 {
		return fail("truncated header")
	}
	if string(raw[:len(Magic)]) != Magic {
		return fail("bad magic (not a checkpoint file)")
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return fail("checksum mismatch (corrupt or truncated)")
	}
	off := len(Magic)
	get32 := func() (uint32, bool) {
		if off+4 > len(body) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(body[off:])
		off += 4
		return v, true
	}
	get64 := func() (uint64, bool) {
		if off+8 > len(body) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(body[off:])
		off += 8
		return v, true
	}
	ver, _ := get32()
	if ver != Version {
		return fail(fmt.Sprintf("unsupported format version %d (want %d)", ver, Version))
	}
	count, ok := get32()
	if !ok || count > maxSections {
		return fail("bad section count")
	}
	img := NewImage()
	for i := uint32(0); i < count; i++ {
		nameLen, ok := get32()
		if !ok || nameLen > maxNameLen || off+int(nameLen) > len(body) {
			return fail("bad section name")
		}
		name := string(body[off : off+int(nameLen)])
		off += int(nameLen)
		payLen, ok := get64()
		if !ok || payLen > maxPayloadLen || off+int(payLen) > len(body) {
			return fail(fmt.Sprintf("bad payload length for section %q", name))
		}
		end := off + int(payLen)
		img.sections[name] = body[off:end:end]
		off = end
	}
	if off != len(body) {
		return fail("trailing garbage after sections")
	}
	return img, nil
}

// WriteFile writes the image to path atomically (temp file + rename), so a
// crash mid-write never leaves a half-written checkpoint behind.
func WriteFile(path string, img *Image) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := img.Encode(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// ReadFile reads and verifies a checkpoint file.
func ReadFile(path string) (*Image, error) {
	img, _, err := ReadFileInto(path, nil)
	return img, err
}

// ReadFileInto is ReadFile into buf's backing array, grown only past its
// capacity; it returns the buffer for the next read. The image's sections
// alias the buffer, so the image is valid only until the buffer is reused:
// restore from it before the next read. A restore keeps nothing of the
// image (every Sync decodes into live state and copies the strings it
// keeps), so a batch of restores can share one buffer.
func ReadFileInto(path string, buf []byte) (*Image, []byte, error) {
	fail := func(err error) (*Image, []byte, error) {
		return nil, buf, &FormatError{Path: path, Reason: "reading", Err: err}
	}
	f, err := os.Open(path)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	buf = Resize(buf, int(fi.Size()))
	if _, err := io.ReadFull(f, buf); err != nil {
		return fail(err)
	}
	img, err := decode(buf, path)
	return img, buf, err
}
