package checkpoint

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/flatmap"
)

// Codec writes or reads one section. Every checkpointed type has one
// method, Sync(c *Codec), that names each of its fields once, in section
// order; the same method writes the section when the codec writes and
// reads it back into live state when the codec reads, so the two
// directions cannot drift apart. Each field form is one call (see
// CHECKPOINT.md, "Section encoding"): unsigned values as uvarints (Uint, U,
// Index), signed values zigzag-encoded (I), booleans as one byte (Bool) or
// packed into one value (Flags), floats as byte-reversed IEEE bits,
// strings behind a uvarint length, fixed and variable slices behind their
// length (Array, Slice, Len), sorted sets as gaps (Ascending),
// struct-of-arrays state as columns (Column, BoolColumn, ColumnAt,
// Sparse), and maps as key-sorted lists (Map, Table).
//
// A Sync method branches on Loading only where the directions really
// differ: relinking references, checking input read from disk, and
// rebuilding derived state.
//
// Reading, the first malformed read records a *FormatError and every later
// read stores zero values, so a Sync decodes straight into live state and
// the caller checks Err once at the end; nothing panics. Every length
// prefix is checked against the bytes left before anything is sized by
// it. Writing, a failure is a bug in the live state and panics.
type Codec struct {
	buf     []byte
	off     int
	loading bool
	section string
	err     *FormatError
	// col holds the column being written, so Column reads each value once.
	col []uint64
}

// NewReader returns a codec that reads one section's bytes. Image.Get
// builds one per section; tests and benchmarks use it to load a layer
// directly. The zero Codec writes.
func NewReader(section string, b []byte) Codec {
	return Codec{buf: b, section: section, loading: true}
}

// Loading reports whether the codec reads.
func (c *Codec) Loading() bool { return c.loading }

// Bytes returns the section written so far.
func (c *Codec) Bytes() []byte { return c.buf }

// Finish fails the read if bytes are left over, and returns Err.
func (c *Codec) Finish() error {
	if c.err == nil && c.off != len(c.buf) {
		c.Fail("%d trailing bytes", len(c.buf)-c.off)
	}
	return c.Err()
}

// Err returns the first failure, or nil.
func (c *Codec) Err() error {
	if c.err == nil {
		return nil
	}
	return c.err
}

// Failed reports whether a read has failed.
func (c *Codec) Failed() bool { return c.err != nil }

// Fail records a failure (the first one sticks). Sync methods use it for
// structural mismatches between a section and the live machine. Writing,
// it panics: the live state itself is inconsistent.
func (c *Codec) Fail(format string, args ...any) {
	if !c.loading {
		panic(fmt.Sprintf("checkpoint: writing section: %s", fmt.Sprintf(format, args...)))
	}
	if c.err == nil {
		c.err = &FormatError{Reason: fmt.Sprintf("section %q: %s", c.section, fmt.Sprintf(format, args...))}
		c.off = len(c.buf) // every later read finds no bytes and stores zero
	}
}

// remaining returns the number of unread bytes.
func (c *Codec) remaining() int { return len(c.buf) - c.off }

// putUint appends an unsigned value.
func (c *Codec) putUint(v uint64) {
	c.room()
	c.buf = binary.AppendUvarint(c.buf, v)
}

// putInt appends a signed value.
func (c *Codec) putInt(v int64) {
	c.room()
	c.buf = binary.AppendVarint(c.buf, v)
}

// room makes room for one more varint. A full buffer doubles: append grows
// a large slice by a quarter at a time, so a section written from empty
// would allocate about five times its size in growth, where doubling
// allocates two to four times.
func (c *Codec) room() {
	if cap(c.buf)-len(c.buf) < binary.MaxVarintLen64 {
		c.grow()
	}
}

// grow doubles the buffer's capacity.
func (c *Codec) grow() {
	b := make([]byte, len(c.buf), 2*cap(c.buf)+256)
	copy(b, c.buf)
	c.buf = b
}

// getUint reads an unsigned value; a one-byte value, the common case,
// takes the short path.
func (c *Codec) getUint() uint64 {
	if off := c.off; off < len(c.buf) && c.buf[off] < 0x80 {
		c.off = off + 1
		return uint64(c.buf[off])
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		return c.badUint()
	}
	c.off += n
	return v
}

// badUint fails a read that found no valid uvarint (unless one already
// failed: the cursor then sits at the end) and returns zero.
func (c *Codec) badUint() uint64 {
	if c.err == nil {
		c.Fail("bad or truncated uvarint at byte %d", c.off)
	}
	return 0
}

// getInt reads a signed value.
func (c *Codec) getInt() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		c.Fail("bad or truncated varint at byte %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// Uint syncs an unsigned value. Uint and U decode in their own bodies
// rather than through getUint: they carry most fields, and a call per
// field is their cost.
func (c *Codec) Uint(p *uint64) {
	if !c.loading {
		c.putUint(*p)
		return
	}
	if off := c.off; off < len(c.buf) && c.buf[off] < 0x80 {
		c.off = off + 1
		*p = uint64(c.buf[off])
		return
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		v = c.badUint()
	}
	c.off += max(n, 0)
	*p = v
}

// Integer is any integer type.
type Integer interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~int | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uint
}

// U syncs an integer of any type as an unsigned value (see Uint).
func U[T Integer](c *Codec, p *T) {
	if !c.loading {
		c.putUint(uint64(*p))
		return
	}
	if off := c.off; off < len(c.buf) && c.buf[off] < 0x80 {
		c.off = off + 1
		*p = T(c.buf[off])
		return
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		v = c.badUint()
	}
	c.off += max(n, 0)
	*p = T(v)
}

// I syncs an integer of any type as a signed value (zigzag, so small
// negatives stay short).
func I[T Integer](c *Codec, p *T) {
	if c.loading {
		*p = T(c.getInt())
		return
	}
	c.putInt(int64(*p))
}

// Index syncs an unsigned value that must lie in [0, n): a position in, or
// a code for, live state. Reading, a value out of range is damage.
func Index[T Integer](c *Codec, p *T, n int) {
	if !c.loading {
		c.putUint(uint64(*p))
		return
	}
	v := c.getUint()
	if c.err == nil && v >= uint64(n) {
		c.Fail("index %d out of range [0,%d)", v, n)
	}
	if c.err != nil {
		v = 0
	}
	*p = T(v)
}

// Bool syncs a boolean as one byte; reading, any byte other than 0 or 1
// is damage.
func (c *Codec) Bool(p *bool) {
	if !c.loading {
		var v byte
		if *p {
			v = 1
		}
		c.buf = append(c.buf, v)
		return
	}
	*p = false
	if c.err != nil {
		return
	}
	if c.off >= len(c.buf) || c.buf[c.off] > 1 {
		c.Fail("bad or truncated bool at byte %d", c.off)
		return
	}
	c.off++
	*p = c.buf[c.off-1] == 1
}

// Flags syncs booleans packed into one unsigned value, *ps[i] in bit i.
func (c *Codec) Flags(ps ...*bool) {
	if c.loading {
		v := c.getUint()
		for i, p := range ps {
			*p = v&(1<<i) != 0
		}
		return
	}
	var v uint64
	for i, p := range ps {
		if *p {
			v |= 1 << i
		}
	}
	c.putUint(v)
}

// Float syncs a float64. The bits are byte-reversed first, so the exponent
// lands in the low bits and round numbers stay short.
func (c *Codec) Float(p *float64) {
	if c.loading {
		*p = math.Float64frombits(bits.ReverseBytes64(c.getUint()))
		return
	}
	c.putUint(bits.ReverseBytes64(math.Float64bits(*p)))
}

// String syncs a length-prefixed string.
func (c *Codec) String(p *string) {
	if c.loading {
		*p = string(c.bytes())
		return
	}
	c.putUint(uint64(len(*p)))
	c.buf = append(c.buf, *p...)
}

// Match syncs a string the reader already knows (a name in live state):
// writing, it writes s; reading, a different string is damage.
func (c *Codec) Match(s, what string) bool {
	if !c.loading {
		c.String(&s)
		return true
	}
	b := c.bytes()
	if c.err == nil && string(b) != s {
		c.Fail("%s %q, machine has %q", what, b, s)
	}
	return c.err == nil
}

// bytes reads a length-prefixed byte string without copying: the result
// aliases the section.
func (c *Codec) bytes() []byte {
	n := c.getLen()
	if c.err != nil {
		return nil
	}
	b := c.buf[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// getLen reads an element count and checks it against the bytes left:
// every element takes at least one byte, so a count larger than the
// remainder is damage, and rejecting it here keeps a corrupt prefix from
// sizing an allocation.
func (c *Codec) getLen() int {
	n := c.getUint()
	if c.err != nil {
		return 0
	}
	if n > uint64(c.remaining()) {
		c.Fail("length %d exceeds the %d bytes left", n, c.remaining())
		return 0
	}
	return int(n)
}

// Count syncs an element count: writing, *n; reading, a count checked
// against the bytes left (see Len for one that sizes a slice).
func (c *Codec) Count(n *int) {
	if c.loading {
		*n = c.getLen()
		return
	}
	c.putUint(uint64(*n))
}

// Expect syncs an element count that must equal n, a fixed geometry of the
// live machine: writing, it writes n; reading, a different count is
// damage. It reports whether the elements may follow.
func (c *Codec) Expect(n int, what string) bool {
	if !c.loading {
		c.putUint(uint64(n))
		return true
	}
	v := c.getUint()
	if c.err != nil {
		return false
	}
	if v != uint64(n) {
		c.Fail("%s: %d entries, machine has %d", what, v, n)
		return false
	}
	return true
}

// maxMemPerByte bounds the memory a read length may size per byte left
// in the section. Every slice element's encoding takes at least one byte
// per dozen bytes of its memory, so no intact section comes near it, and
// a damaged length cannot make a restore allocate much more than the
// section's size.
const maxMemPerByte = 64

// Len syncs the length of *s. Writing, it writes len(*s). Reading, it reads
// a length checked against the bytes left (and the memory it would size,
// maxMemPerByte) and, when limit >= 0, against limit (a capacity of the
// live machine), and resizes *s in place, zeroing the entries it drops so
// no stale pointer stays reachable; the caller then syncs each element.
func Len[S ~[]T, T any](c *Codec, s *S, limit int, what string) {
	if !c.loading {
		c.putUint(uint64(len(*s)))
		return
	}
	n := c.getLen()
	switch {
	case limit >= 0 && n > limit:
		c.Fail("%s: %d entries, capacity %d", what, n, limit)
		n = 0
	case uint64(n)*uint64(unsafe.Sizeof(*new(T))) > maxMemPerByte*uint64(c.remaining()):
		c.Fail("%s: %d entries cannot fit the %d bytes left", what, n, c.remaining())
		n = 0
	}
	if n < len(*s) {
		clear((*s)[n:])
	}
	*s = S(Resize([]T(*s), n))
}

// Array syncs a slice of fixed length (an array or a geometry-bound
// table) behind its length, which must equal len(s) when read. Elements
// of a signed type are zigzag-encoded, unsigned ones are uvarints.
func Array[T Integer](c *Codec, s []T, what string) {
	if c.Expect(len(s), what) {
		elems(c, s)
	}
}

// Slice syncs a slice of variable length behind its length; see Len for
// limit and Array for the element encoding.
func Slice[T Integer](c *Codec, s *[]T, limit int, what string) {
	Len(c, s, limit, what)
	elems(c, *s)
}

// Ascending syncs strictly ascending values (a sorted set) as gaps: the
// first value, then each one's difference from the one before. Reading,
// values that are not strictly ascending are damage.
func Ascending(c *Codec, s []uint64, what string) {
	var prev uint64
	if !c.loading {
		for _, v := range s {
			c.putUint(v - prev)
			prev = v
		}
		return
	}
	for i := range s {
		gap := c.getUint()
		if i > 0 && (gap == 0 || prev+gap < prev) && c.err == nil {
			c.Fail("%s not strictly ascending at entry %d", what, i)
		}
		prev += gap
		s[i] = prev
	}
}

// elems syncs each element of s.
func elems[T Integer](c *Codec, s []T) {
	switch {
	case c.loading && signed[T]():
		for i := range s {
			s[i] = T(c.getInt())
		}
	case c.loading:
		for i := range s {
			s[i] = T(c.getUint())
		}
	case signed[T]():
		for _, v := range s {
			c.putInt(int64(v))
		}
	default:
		for _, v := range s {
			c.putUint(uint64(v))
		}
	}
}

// signed reports whether T is a signed type.
func signed[T Integer]() bool { return ^T(0) < 0 }

// Map syncs a map as its entry count, then its (key, value) pairs in key
// order, both as uvarints, so the section of a deterministic run is
// deterministic. Reading, the map is cleared and refilled, keeping its
// buckets.
func Map[K, V Integer](c *Codec, m map[K]V) {
	if c.loading {
		clear(m)
		for n := c.getLen(); n > 0 && c.err == nil; n-- {
			var k K
			var v V
			U(c, &k)
			U(c, &v)
			m[k] = v
		}
		return
	}
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	c.putUint(uint64(len(keys)))
	for _, k := range keys {
		c.putUint(uint64(k))
		c.putUint(uint64(m[k]))
	}
}

// Table syncs t as its entry count, then its (key, value) pairs in key
// order, both zigzag-encoded. Reading, t is reset and refilled.
func Table(c *Codec, t *flatmap.IntMap) {
	if c.loading {
		n := c.getLen()
		t.Reset(n)
		for ; n > 0 && c.err == nil; n-- {
			k := int(c.getInt())
			t.Put(k, int(c.getInt()))
		}
		return
	}
	kv := make([][2]int, 0, t.Len())
	t.Range(func(k, v int) { kv = append(kv, [2]int{k, v}) })
	slices.SortFunc(kv, func(a, b [2]int) int { return cmp.Compare(a[0], b[0]) })
	c.putUint(uint64(len(kv)))
	for _, e := range kv {
		I(c, &e[0])
		I(c, &e[1])
	}
}

// Column encodings. A column holds n values whose count the reader already
// knows (the live state's geometry); the writer picks the shorter form.
const (
	colDense  = 0 // n uvarints
	colSparse = 1 // k, then k (gap, value) pairs for the nonzero values
)

// Column syncs one field of every record in s as a column: field returns
// a pointer to the field of one record. A column with at most half its
// values nonzero is written sparse: the count of nonzero values, then each
// as the gap from the previous nonzero index and the value. Mostly-zero
// per-client fields of a 10^6-client fleet then cost a few bytes in total
// instead of a byte per client. Signed fields are zigzag-encoded. Reading,
// Column sets only the fields that are nonzero in the section: the caller
// zeroes the records first (see Zero).
func Column[S any, T Integer](c *Codec, s []S, field func(*S) *T) {
	sg := signed[T]()
	if c.loading {
		r := c.readColumn(len(s))
		for i, u, ok := r.value(); ok; i, u, ok = r.value() {
			if sg {
				*field(&s[i]) = T(unzigzag(u))
			} else {
				*field(&s[i]) = T(u)
			}
		}
		return
	}
	col := Resize(c.col, len(s))
	for i := range s {
		v := *field(&s[i])
		if sg {
			col[i] = zigzag(int64(v))
		} else {
			col[i] = uint64(v)
		}
	}
	c.writeColumn(col)
}

// BoolColumn is Column for a boolean field, as 0 and 1.
func BoolColumn[S any](c *Codec, s []S, field func(*S) *bool) {
	if c.loading {
		r := c.readColumn(len(s))
		for i, _, ok := r.value(); ok; i, _, ok = r.value() {
			*field(&s[i]) = true
		}
		return
	}
	col := Resize(c.col, len(s))
	for i := range s {
		col[i] = 0
		if *field(&s[i]) {
			col[i] = 1
		}
	}
	c.writeColumn(col)
}

// Zero zeroes s when reading, ahead of the columns that fill it, and does
// nothing when writing.
func Zero[S any](c *Codec, s []S) {
	if c.loading {
		clear(s)
	}
}

// ColumnAt syncs a column of n values that are zero except at the
// ascending indices at[j], which hold vals[j]: state that only a few
// indices can hold (a walker's per-slot counters) stays compact in memory
// and keeps the column format of all n values, without building anything
// of length n. Reading, vals is zeroed first, and a nonzero value at an
// index not in at is damage.
func ColumnAt[T Integer](c *Codec, n int, at []int32, vals []T, what string) {
	sg := signed[T]()
	enc := func(v T) uint64 {
		if sg {
			return zigzag(int64(v))
		}
		return uint64(v)
	}
	if c.loading {
		clear(vals)
		j := 0
		r := c.readColumn(n)
		for i, u, ok := r.value(); ok; i, u, ok = r.value() {
			v := T(u)
			if sg {
				v = T(unzigzag(u))
			}
			for j < len(at) && int(at[j]) < i {
				j++
			}
			if j == len(at) || int(at[j]) != i {
				c.Fail("%s %d on slot %d, which holds none", what, v, i)
				return
			}
			vals[j] = v
		}
		return
	}
	k := 0
	for _, v := range vals {
		if v != 0 {
			k++
		}
	}
	if 2*k > n {
		c.buf = append(c.buf, colDense)
		j := 0
		for i := 0; i < n; i++ {
			var u uint64
			if j < len(at) && int(at[j]) == i {
				u = enc(vals[j])
				j++
			}
			c.putUint(u)
		}
		return
	}
	c.buf = append(c.buf, colSparse)
	c.putUint(uint64(k))
	next := 0
	for j, v := range vals {
		if v != 0 {
			i := int(at[j])
			c.putUint(uint64(i - next))
			c.putUint(enc(v))
			next = i + 1
		}
	}
}

// Sparse syncs a fixed-length slice of records that are mostly zero: its
// length, which must equal len(s) when read, the count of records that
// differ from the zero value, then each of those as its index gap from
// the previous one and its fields. Reading, the other records are zeroed.
func Sparse[T comparable, P interface {
	*T
	Sync(*Codec)
}](c *Codec, s []T, what string) {
	if !c.Expect(len(s), what) {
		return
	}
	next := 0
	if c.loading {
		clear(s)
		for k := c.getLen(); k > 0; k-- {
			var gap int
			Index(c, &gap, len(s)-next)
			if c.err != nil {
				return
			}
			i := next + gap
			P(&s[i]).Sync(c)
			next = i + 1
		}
		return
	}
	// One pass over the records writes them and counts them; the count,
	// which precedes them, is inserted once known.
	var zero T
	pos, k := len(c.buf), 0
	for i := range s {
		if s[i] != zero {
			c.putUint(uint64(i - next))
			P(&s[i]).Sync(c)
			next = i + 1
			k++
		}
	}
	var kb [binary.MaxVarintLen64]byte
	c.buf = slices.Insert(c.buf, pos, binary.AppendUvarint(kb[:0], uint64(k))...)
}

// writeColumn writes col in the shorter of the two column forms, and keeps
// it as scratch for the next column.
func (c *Codec) writeColumn(col []uint64) {
	c.col = col
	k := 0
	for _, v := range col {
		if v != 0 {
			k++
		}
	}
	if 2*k > len(col) {
		c.buf = append(c.buf, colDense)
		for _, v := range col {
			c.putUint(v)
		}
		return
	}
	c.buf = append(c.buf, colSparse)
	c.putUint(uint64(k))
	next := 0
	for i, v := range col {
		if v != 0 {
			c.putUint(uint64(i - next))
			c.putUint(v)
			next = i + 1
		}
	}
}

// colReader yields the entries of a column written by writeColumn in
// ascending index order: every nonzero value of a dense column, every
// entry of a sparse one.
type colReader struct {
	c    *Codec
	n    int // values in the column
	next int // index after the last entry yielded
	left int // entries left in a sparse column; -1 for a dense one
}

// readColumn starts reading a column of n values.
func (c *Codec) readColumn(n int) colReader {
	r := colReader{c: c, n: n}
	if c.err != nil {
		return r
	}
	if c.off >= len(c.buf) {
		c.Fail("truncated column")
		return r
	}
	form := c.buf[c.off]
	c.off++
	switch form {
	case colDense:
		if n > c.remaining() {
			c.Fail("dense column of %d values exceeds the %d bytes left", n, c.remaining())
			return r
		}
		r.left = -1
	case colSparse:
		r.left = c.getLen()
	default:
		c.Fail("unknown column form %d", form)
	}
	return r
}

// value returns the next entry and its index; ok is false at the end of
// the column or once a read has failed.
func (r *colReader) value() (i int, v uint64, ok bool) {
	c := r.c
	if r.left < 0 {
		for r.next < r.n && c.err == nil {
			i, v = r.next, c.getUint()
			r.next++
			if v != 0 && c.err == nil {
				return i, v, true
			}
		}
		return 0, 0, false
	}
	if r.left == 0 || c.err != nil {
		return 0, 0, false
	}
	r.left--
	gap := c.getUint()
	v = c.getUint()
	if c.err != nil {
		return 0, 0, false
	}
	if gap >= uint64(r.n-r.next) {
		c.Fail("sparse column index past %d values", r.n)
		return 0, 0, false
	}
	i = r.next + int(gap)
	r.next = i + 1
	return i, v, true
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Resize returns dst with length n, reusing its backing array when the
// capacity allows.
func Resize[T any](dst []T, n int) []T {
	if n <= cap(dst) {
		return dst[:n]
	}
	return append(dst[:cap(dst)], make([]T, n-cap(dst))...)
}
