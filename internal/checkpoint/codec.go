package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Enc is an append-only section writer. Every layer writes its live state
// through it field by field (see CHECKPOINT.md, "Section encoding"):
// unsigned values as uvarints, signed values zigzag-encoded, booleans as one
// byte, floats as byte-reversed IEEE bits, strings and slices behind a
// uvarint length, and struct-of-arrays state as columns.
type Enc struct {
	buf []byte
	// col holds the column being written, so Column reads each value once.
	col []uint64
}

// Bytes returns the encoded section.
func (e *Enc) Bytes() []byte { return e.buf }

// Uint appends an unsigned value.
func (e *Enc) Uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int appends a signed value (zigzag, so small negatives stay short).
func (e *Enc) Int(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(b bool) {
	var v byte
	if b {
		v = 1
	}
	e.buf = append(e.buf, v)
}

// Flags packs booleans into one value for Uint, bs[i] in bit i.
func Flags(bs ...bool) uint64 {
	var v uint64
	for i, b := range bs {
		if b {
			v |= 1 << i
		}
	}
	return v
}

// Float appends a float64. The bits are byte-reversed first, so the
// exponent lands in the low bits and round numbers stay short.
func (e *Enc) Float(f float64) { e.Uint(bits.ReverseBytes64(math.Float64bits(f))) }

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Column encodings. A column holds n values whose count the reader already
// knows (the live state's geometry); the writer picks the shorter form.
const (
	colDense  = 0 // n uvarints
	colSparse = 1 // k, then k (gap, value) pairs for the nonzero values
)

// Column appends the n values at(0..n-1) as one column. A column with at
// most half its values nonzero is written sparse: the count of nonzero
// values, then each as the gap from the previous nonzero index and the
// value. Mostly-zero per-client fields of a 10^6-client fleet then cost a
// few bytes in total instead of a byte per client.
func (e *Enc) Column(n int, at func(i int) uint64) {
	col := Resize(e.col, n)
	for i := range col {
		col[i] = at(i)
	}
	e.column(col)
}

// IntColumn is Column for signed values (zigzag-encoded).
func (e *Enc) IntColumn(n int, at func(i int) int64) {
	e.Column(n, func(i int) uint64 { return zigzag(at(i)) })
}

// PutIntColumn appends a slice of signed values as one column, as
// IntColumn does, without a call per value.
func PutIntColumn[T Signed](e *Enc, vals []T) {
	col := Resize(e.col, len(vals))
	for i, v := range vals {
		col[i] = zigzag(int64(v))
	}
	e.column(col)
}

// PutIntColumnAt appends a column of n signed values that are zero except
// at the ascending indices at[j], which hold vals[j]. The bytes are those
// PutIntColumn writes for the expanded slice, but nothing of length n is
// built: state that only a few indices can hold (a walker's per-slot
// counters) stays compact in memory and keeps its column format.
func PutIntColumnAt[T Signed](e *Enc, n int, at []int32, vals []T) {
	k := 0
	for _, v := range vals {
		if v != 0 {
			k++
		}
	}
	if 2*k > n {
		e.buf = append(e.buf, colDense)
		j := 0
		for i := 0; i < n; i++ {
			var u uint64
			if j < len(at) && int(at[j]) == i {
				u = zigzag(int64(vals[j]))
				j++
			}
			e.buf = binary.AppendUvarint(e.buf, u)
		}
		return
	}
	e.buf = append(e.buf, colSparse)
	e.Uint(uint64(k))
	next := 0
	for j, v := range vals {
		if v != 0 {
			i := int(at[j])
			e.buf = binary.AppendUvarint(e.buf, uint64(i-next))
			e.buf = binary.AppendUvarint(e.buf, zigzag(int64(v)))
			next = i + 1
		}
	}
}

// column writes col in the shorter of the two column forms, and keeps it
// as scratch for the next column.
func (e *Enc) column(col []uint64) {
	e.col = col
	k := 0
	for _, v := range col {
		if v != 0 {
			k++
		}
	}
	if 2*k > len(col) {
		e.buf = append(e.buf, colDense)
		for _, v := range col {
			e.buf = binary.AppendUvarint(e.buf, v)
		}
		return
	}
	e.buf = append(e.buf, colSparse)
	e.Uint(uint64(k))
	next := 0
	for i, v := range col {
		if v != 0 {
			e.buf = binary.AppendUvarint(e.buf, uint64(i-next))
			e.buf = binary.AppendUvarint(e.buf, v)
			next = i + 1
		}
	}
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Dec reads one section. The first malformed read records a *FormatError
// and every later read returns zero values, so a loader decodes straight
// into live state and checks Err once at the end; nothing panics. Every
// length prefix is checked against the bytes left before the caller sizes
// anything by it.
type Dec struct {
	buf     []byte
	off     int
	section string
	err     *FormatError
}

// NewDec returns a reader over one section's bytes. Image.Get builds one
// per section; tests and benchmarks use NewDec to load a layer directly.
func NewDec(section string, b []byte) Dec {
	return Dec{buf: b, section: section}
}

// Finish fails the read if bytes are left over, and returns Err.
func (d *Dec) Finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.Fail("%d trailing bytes", len(d.buf)-d.off)
	}
	return d.Err()
}

// Err returns the first failure, or nil.
func (d *Dec) Err() error {
	if d.err == nil {
		return nil
	}
	return d.err
}

// Failed reports whether a read has failed.
func (d *Dec) Failed() bool { return d.err != nil }

// Fail records a failure (the first one sticks). Loaders use it for
// structural mismatches between a section and the live machine.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = &FormatError{Reason: fmt.Sprintf("section %q: %s", d.section, fmt.Sprintf(format, args...))}
	}
}

// remaining returns the number of unread bytes.
func (d *Dec) remaining() int { return len(d.buf) - d.off }

// Uint reads an unsigned value.
func (d *Dec) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.buf) {
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			return uint64(b)
		}
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Fail("bad or truncated uvarint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed value.
func (d *Dec) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.Fail("bad or truncated varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Bool reads a boolean; any byte other than 0 or 1 is a failure.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) || d.buf[d.off] > 1 {
		d.Fail("bad or truncated bool at byte %d", d.off)
		return false
	}
	d.off++
	return d.buf[d.off-1] == 1
}

// Float reads a float64.
func (d *Dec) Float() float64 { return math.Float64frombits(bits.ReverseBytes64(d.Uint())) }

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.Bytes()) }

// Bytes reads a length-prefixed byte string (as Enc.String writes it)
// without copying: the result aliases the section, so callers use it for
// lookups, not storage.
func (d *Dec) Bytes() []byte {
	n := d.Len()
	if d.err != nil {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Len reads an element count and checks it against the bytes left: every
// element takes at least one byte, so a count larger than the remainder is
// damage, and rejecting it here keeps a corrupt prefix from sizing an
// allocation.
func (d *Dec) Len() int {
	n := d.Uint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.remaining()) {
		d.Fail("length %d exceeds the %d bytes left", n, d.remaining())
		return 0
	}
	return int(n)
}

// Expect reads an element count that must equal want (a fixed geometry).
func (d *Dec) Expect(want int, what string) bool {
	n := d.Uint()
	if d.err != nil {
		return false
	}
	if n != uint64(want) {
		d.Fail("%s: %d entries, machine has %d", what, n, want)
		return false
	}
	return true
}

// Index reads a value that must lie in [0, n) — a position in live state.
func (d *Dec) Index(n int) int {
	v := d.Uint()
	if d.err != nil {
		return 0
	}
	if v >= uint64(n) {
		d.Fail("index %d out of range [0,%d)", v, n)
		return 0
	}
	return int(v)
}

// Column reads n values written by Enc.Column and calls set for each
// nonzero one. The caller zeroes the destination first.
func (d *Dec) Column(n int, set func(i int, v uint64)) {
	if d.err != nil {
		return
	}
	if d.off >= len(d.buf) {
		d.Fail("truncated column")
		return
	}
	form := d.buf[d.off]
	d.off++
	switch form {
	case colDense:
		if n > d.remaining() {
			d.Fail("dense column of %d values exceeds the %d bytes left", n, d.remaining())
			return
		}
		for i := 0; i < n; i++ {
			if v := d.Uint(); v != 0 {
				set(i, v)
			}
		}
	case colSparse:
		k := d.Len()
		next := 0
		for j := 0; j < k && d.err == nil; j++ {
			gap := d.Uint()
			v := d.Uint()
			if d.err != nil {
				return
			}
			if gap >= uint64(n-next) {
				d.Fail("sparse column index past %d values", n)
				return
			}
			i := next + int(gap)
			set(i, v)
			next = i + 1
		}
	default:
		d.Fail("unknown column form %d", form)
	}
}

// IntColumn reads a column written by Enc.IntColumn.
func (d *Dec) IntColumn(n int, set func(i int, v int64)) {
	d.Column(n, func(i int, u uint64) { set(i, unzigzag(u)) })
}

// LoadIntColumn reads a column written by PutIntColumn (or IntColumn) of
// len(dst) values into dst, zeroing it first.
func LoadIntColumn[T Signed](d *Dec, dst []T) {
	clear(dst)
	d.IntColumn(len(dst), func(i int, v int64) { dst[i] = T(v) })
}

// Unsigned and Signed are the element types the slice helpers encode.
type (
	Unsigned interface {
		~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uint
	}
	Signed interface {
		~int8 | ~int16 | ~int32 | ~int64 | ~int
	}
)

// PutUints appends a length-prefixed slice of unsigned values.
func PutUints[T Unsigned](e *Enc, vs []T) {
	e.Uint(uint64(len(vs)))
	for _, v := range vs {
		e.Uint(uint64(v))
	}
}

// GetUints reads a slice written by PutUints into dst's backing array,
// growing it only past its capacity, and returns the resliced dst.
func GetUints[T Unsigned](d *Dec, dst []T) []T {
	n := d.Len()
	dst = Resize(dst, n)
	for i := range dst {
		dst[i] = T(d.Uint())
	}
	return dst
}

// LoadUints reads a slice written by PutUints whose length must equal
// len(dst) (fixed-size arrays and geometry-bound tables).
func LoadUints[T Unsigned](d *Dec, dst []T, what string) {
	if !d.Expect(len(dst), what) {
		return
	}
	for i := range dst {
		dst[i] = T(d.Uint())
	}
}

// PutInts appends a length-prefixed slice of signed values.
func PutInts[T Signed](e *Enc, vs []T) {
	e.Uint(uint64(len(vs)))
	for _, v := range vs {
		e.Int(int64(v))
	}
}

// GetInts reads a slice written by PutInts into dst's backing array.
func GetInts[T Signed](d *Dec, dst []T) []T {
	n := d.Len()
	dst = Resize(dst, n)
	for i := range dst {
		dst[i] = T(d.Int())
	}
	return dst
}

// LoadInts reads a slice written by PutInts whose length must equal
// len(dst).
func LoadInts[T Signed](d *Dec, dst []T, what string) {
	if !d.Expect(len(dst), what) {
		return
	}
	for i := range dst {
		dst[i] = T(d.Int())
	}
}

// Resize returns dst with length n, reusing its backing array when the
// capacity allows. Loaders size live slices with it after Len.
func Resize[T any](dst []T, n int) []T {
	if n <= cap(dst) {
		return dst[:n]
	}
	return append(dst[:cap(dst)], make([]T, n-cap(dst))...)
}
