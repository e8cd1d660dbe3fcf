// Package snapshot is the one codec for the system's learned state. A
// checkpoint file, SaveState output and the state a leader ships to a
// replica are the same bytes: a State framed once with a magic, a version,
// a length and a CRC-32C, whose body is a sequence of tagged sections
// (u32 tag | u32 length | body).
//
// The package owns the framing and the system-level layout. Each learned
// structure encodes itself onto a Writer and decodes from a Reader next to
// its own type: core the predictor, counters and retune state, stats the
// corrections, histogram the buckets, optimizer the plan tree. The package
// imports nothing else from this module, so every owner can.
//
// Reader errors are sticky: the first failure (a short read, a count over
// its cap, a section out of place, a validation failure reported by the
// owner) is kept, every later read returns zeros, and the owner checks Err
// once at the end. Every declared count is capped both by the caller's
// limit and by the bytes that remain, so a corrupt length cannot drive an
// allocation larger than the input.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Tag packs a four-character section name into its wire tag.
func Tag(name string) uint32 {
	var b [4]byte
	copy(b[:], name)
	return binary.LittleEndian.Uint32(b[:])
}

func tagName(tag uint32) string { return string(binary.LittleEndian.AppendUint32(nil, tag)) }

// Writer appends little-endian values and tagged sections to a buffer.
// Strings and blobs carry a u32 length prefix, as does the list Strings
// writes; F64s writes no count (the reader knows it).
type Writer struct {
	buf []byte
}

func (w *Writer) Bytes() []byte   { return w.buf }
func (w *Writer) U32(v uint32)    { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64)    { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I64(v int64)     { w.U64(uint64(v)) }
func (w *Writer) F64(v float64)   { w.U64(math.Float64bits(v)) }
func (w *Writer) Blob(b []byte)   { w.U32(uint32(len(b))); w.buf = append(w.buf, b...) }
func (w *Writer) String(s string) { w.U32(uint32(len(s))); w.buf = append(w.buf, s...) }

// Bool writes 1 or 0.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

func (w *Writer) F64s(vs ...float64) {
	for _, v := range vs {
		w.F64(v)
	}
}

func (w *Writer) Strings(ss ...string) {
	w.U32(uint32(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// Section appends one tagged section: body writes its content, and the
// length is patched in afterwards.
func (w *Writer) Section(tag uint32, body func(*Writer)) {
	w.U32(tag)
	at := len(w.buf)
	w.U32(0)
	body(w)
	binary.LittleEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
}

// Reader decodes what a Writer wrote. Sub-readers handed to section bodies
// share their parent's error, so one Err check covers the whole stream.
type Reader struct {
	b   []byte
	err *error
}

// NewReader reads b. Decoded blobs alias b.
func NewReader(b []byte) *Reader { return &Reader{b: b, err: new(error)} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return *r.err }

// Failf records a failure unless one is already recorded. Owners call it
// for values that parse but do not validate.
func (r *Reader) Failf(format string, args ...any) {
	if *r.err == nil {
		*r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

// End fails on unread bytes and returns the first failure.
func (r *Reader) End() error {
	if len(r.b) != 0 {
		r.Failf("snapshot: %d trailing bytes", len(r.b))
	}
	return *r.err
}

// take consumes n bytes. Callers pass a fixed width or a count already
// checked against the bytes left; after a failure it returns zeros.
func (r *Reader) take(n int) []byte {
	if *r.err == nil && n > len(r.b) {
		r.Failf("snapshot: truncated: need %d bytes, have %d", n, len(r.b))
	}
	if *r.err != nil {
		return make([]byte, n)
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *Reader) U32() uint32    { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *Reader) U64() uint64    { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *Reader) I64() int64     { return int64(r.U64()) }
func (r *Reader) F64() float64   { return math.Float64frombits(r.U64()) }
func (r *Reader) String() string { return string(r.Blob()) }

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.take(1)[0]
	if v > 1 {
		r.Failf("snapshot: bad flag byte %d", v)
	}
	return v == 1
}

// Count reads a u32 element count and fails when it exceeds max or the
// bytes that remain (every element takes at least one byte).
func (r *Reader) Count(max int) int {
	n := int(r.U32())
	if n > max || n > len(r.b) {
		r.Failf("snapshot: count %d exceeds its cap (%d, %d bytes left)", n, max, len(r.b))
		return 0
	}
	return n
}

// Blob reads a length-prefixed byte string, aliasing the input; an empty
// one reads as nil.
func (r *Reader) Blob() []byte {
	if n := r.Count(math.MaxInt32); n > 0 {
		return r.take(n)
	}
	return nil
}

// Strings reads what Writer.Strings wrote.
func (r *Reader) Strings() []string {
	var ss []string
	for n := r.Count(math.MaxInt32); len(ss) < n; {
		ss = append(ss, r.String())
	}
	return ss
}

// F64s reads n values.
func (r *Reader) F64s(n int) []float64 {
	if n < 0 || n > len(r.b)/8 {
		r.Failf("snapshot: %d values need more than the %d bytes left", n, len(r.b))
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.F64()
	}
	return vs
}

// Optional decodes the next section with body when its tag is tag and
// reports whether it did. The body must consume the whole section.
func (r *Reader) Optional(tag uint32, body func(*Reader)) bool {
	if *r.err != nil || len(r.b) < 4 || binary.LittleEndian.Uint32(r.b) != tag {
		return false
	}
	r.b = r.b[4:]
	sub := &Reader{b: r.take(r.Count(math.MaxInt32)), err: r.err}
	body(sub)
	if len(sub.b) != 0 {
		r.Failf("snapshot: section %q has %d unread bytes", tagName(tag), len(sub.b))
	}
	return true
}

// Section decodes the next section, which must carry tag.
func (r *Reader) Section(tag uint32, body func(*Reader)) {
	if !r.Optional(tag, body) {
		r.Failf("snapshot: missing section %q", tagName(tag))
	}
}
