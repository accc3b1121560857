package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faults"
)

// sectionFuzz is the machine FuzzSectionLoad damages images of: an Apache
// run with every fault domain that adds state enabled, so the image holds
// all six sections (meta, engine, kernel, net, server, faults).
var sectionFuzz struct {
	once  sync.Once
	sim   *core.Simulator
	good  *checkpoint.Image
	names []string
	secs  [][]byte
	// alloc is the bytes a restore of the intact image allocates.
	alloc uint64
}

func sectionFuzzSetup(tb testing.TB) {
	sf := &sectionFuzz
	sf.once.Do(func() {
		o := core.Options{Processor: core.SMT, Seed: 5, CyclesPer10ms: 50_000, Clients: 48,
			Faults: faults.Config{LossRate: 0.02, DelayRate: 0.02, CrashRate: 0.002, SlowClientRate: 0.1}}
		sf.sim = core.NewApache(o)
		sf.sim.Run(150_000)
		img, err := sf.sim.Checkpoint()
		if err != nil {
			panic(err)
		}
		sf.good = img
		var buf bytes.Buffer
		if err := img.Encode(&buf); err != nil {
			panic(err)
		}
		sf.names, sf.secs = splitImage(buf.Bytes())
		mustRestore(tb, img)
		sf.alloc = allocDuring(func() { mustRestore(tb, img) })
	})
	if len(sf.names) != 6 {
		tb.Fatalf("image holds sections %v, want all six", sf.names)
	}
}

func mustRestore(tb testing.TB, img *checkpoint.Image) {
	if err := sectionFuzz.sim.RestoreInto(img); err != nil {
		tb.Fatalf("restoring the intact image: %v", err)
	}
}

// allocDuring returns the heap bytes f allocates.
func allocDuring(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// splitImage parses an encoded image (the container layout of
// CHECKPOINT.md) into section names and payloads.
func splitImage(raw []byte) (names []string, secs [][]byte) {
	off := len(checkpoint.Magic) + 4
	count := binary.LittleEndian.Uint32(raw[off:])
	off += 4
	for i := uint32(0); i < count; i++ {
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		names = append(names, string(raw[off+4:off+4+n]))
		off += 4 + n
		p := int(binary.LittleEndian.Uint64(raw[off:]))
		secs = append(secs, raw[off+8:off+8+p])
		off += 8 + p
	}
	return names, secs
}

// joinImage encodes sections into the container layout, checksum included.
func joinImage(names []string, secs [][]byte) []byte {
	raw := []byte(checkpoint.Magic)
	raw = binary.LittleEndian.AppendUint32(raw, checkpoint.Version)
	raw = binary.LittleEndian.AppendUint32(raw, uint32(len(names)))
	for i, name := range names {
		raw = binary.LittleEndian.AppendUint32(raw, uint32(len(name)))
		raw = append(raw, name...)
		raw = binary.LittleEndian.AppendUint64(raw, uint64(len(secs[i])))
		raw = append(raw, secs[i]...)
	}
	return binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw))
}

// damage applies one mutation to a copy of section b: a bit flip, a
// truncation, an overwrite with payload, or an inserted length prefix
// claiming 2^40 elements.
func damage(b []byte, off uint32, op uint8, payload []byte) []byte {
	b = bytes.Clone(b)
	at := int(off % uint32(len(b)+1))
	switch op % 4 {
	case 0:
		if at < len(b) {
			b[at] ^= 1 << (op >> 2 % 8)
		}
	case 1:
		b = b[:at]
	case 2:
		copy(b[at:], payload)
	case 3:
		huge := binary.AppendUvarint(nil, 1<<40)
		b = append(b[:at:at], append(huge, b[at:]...)...)
	}
	return b
}

// FuzzSectionLoad damages one section of a real checkpoint — behind a
// valid checksum, so the damage reaches the layer's Load — and restores it
// into a live simulator. The only allowed failure is a
// *checkpoint.FormatError: never a panic, and never an allocation beyond a
// restore of the intact image plus a bounded multiple of the section's
// size. After every damaged restore, the intact image must restore again.
func FuzzSectionLoad(f *testing.F) {
	if testing.Short() {
		f.Skip("builds and runs an Apache simulation")
	}
	for sec := uint8(0); sec < 6; sec++ {
		for op := uint8(0); op < 4; op++ {
			f.Add(sec, uint32(sec)*97+uint32(op)*13, op, []byte{0xff, 0x7f})
		}
	}
	f.Fuzz(func(t *testing.T, sec uint8, off uint32, op uint8, payload []byte) {
		sectionFuzzSetup(t)
		sf := &sectionFuzz
		i := int(sec) % len(sf.names)
		secs := append([][]byte(nil), sf.secs...)
		secs[i] = damage(secs[i], off, op, payload)
		img, err := checkpoint.Decode(bytes.NewReader(joinImage(sf.names, secs)))
		if err != nil {
			t.Fatalf("container with a damaged %q section did not decode: %v", sf.names[i], err)
		}
		var rerr error
		alloc := allocDuring(func() { rerr = sf.sim.RestoreInto(img) })
		if rerr != nil {
			var ferr *checkpoint.FormatError
			if !errors.As(rerr, &ferr) {
				t.Fatalf("damaged %q section: error is %T (%v), want *checkpoint.FormatError", sf.names[i], rerr, rerr)
			}
		}
		if limit := 2*sf.alloc + 64*uint64(len(secs[i])) + 1<<16; alloc > limit {
			t.Fatalf("damaged %q section (%d bytes): restore allocated %d bytes, limit %d", sf.names[i], len(secs[i]), alloc, limit)
		}
		mustRestore(t, sf.good)
	})
}

// TestSectionsRoundTrip pins the codec's canonical form: restoring an image
// and checkpointing again writes every section byte for byte.
func TestSectionsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs an Apache simulation")
	}
	sectionFuzzSetup(t)
	sf := &sectionFuzz
	mustRestore(t, sf.good)
	img, err := sf.sim.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := img.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	names, secs := splitImage(buf.Bytes())
	for i, name := range names {
		if !bytes.Equal(secs[i], sf.secs[i]) {
			t.Errorf("section %q: %d bytes after load+save, %d before, contents differ", name, len(secs[i]), len(sf.secs[i]))
		}
	}
}
