// Package snap is the checkpoint file format: a versioned, checksummed
// container of named binary sections, written atomically (temp file +
// rename) so a crash mid-write never leaves a file that parses.
//
// Layout (all integers little-endian):
//
//	8 bytes  header magic "WSNSNAP\x01"
//	u32      format version
//	u32      section count
//	per section:
//	    u32 + bytes   name
//	    u32 + bytes   payload
//	u32      CRC-32 (IEEE) over everything above
//	8 bytes  footer magic "SNAPEND\x01"
//
// The footer magic detects truncation even before the CRC is checked: a
// file cut short by a crash or a full disk cannot end with the footer. The
// version gates incompatible layout changes — a reader never guesses at a
// future format (see DESIGN.md §12).
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// FormatVersion is bumped whenever the container layout or any section's
// record layout changes incompatibly. Readers reject other versions.
const FormatVersion = 2

const (
	headerMagic = "WSNSNAP\x01"
	footerMagic = "SNAPEND\x01"
)

// Section is one named payload inside a snapshot file. Names identify the
// owning subsystem ("kernel", "mac", "diffusion", ...); payloads are opaque
// to the container.
type Section struct {
	Name string
	Data []byte
}

// Writer builds a section payload out of fixed-width primitives. The zero
// value is ready to use. Encoding is fully deterministic: the same state
// always yields the same bytes, which is what the round-trip property tests
// pin.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 encodes a signed value as its two's-complement bit pattern.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int encodes a platform int; the width is pinned to 64 bits so snapshots
// are portable across architectures.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 encodes the exact IEEE-754 bit pattern, so restored floats are
// bit-identical (NaNs included).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw appends bytes verbatim, with no length prefix — for splicing a
// payload built in a scratch Writer (e.g. a runner payload probed against
// several owners before its owner tag is known).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Blob writes a length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes a section payload. Errors are sticky: after the first
// out-of-bounds read every subsequent read returns zero values, and Err()
// reports the failure — decoding code checks once at the end instead of
// after every primitive.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a section payload.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish verifies the payload was consumed exactly: leftover bytes mean the
// reader and writer disagree about the record layout.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("snap: %d trailing bytes after decode", len(r.buf)-r.off)
	}
	return nil
}

// Fail records a semantic decoding error (bad tag, impossible value) with
// the same sticky behavior as an out-of-bounds read: the first failure wins
// and every later read returns zeros.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) fail(n int) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: truncated payload: need %d bytes at offset %d of %d",
			n, r.off, len(r.buf))
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.fail(n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

func (r *Reader) Int() int { return int(r.I64()) }

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

func (r *Reader) Bool() bool { return r.U8() != 0 }

func (r *Reader) Blob() []byte {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

func (r *Reader) String() string {
	n := int(r.U32())
	b := r.take(n)
	return string(b)
}

// Encode serializes the sections into the container layout, checksummed and
// footer-sealed.
func Encode(sections []Section) []byte {
	var w Writer
	w.buf = append(w.buf, headerMagic...)
	w.U32(FormatVersion)
	w.U32(uint32(len(sections)))
	for _, s := range sections {
		w.String(s.Name)
		w.Blob(s.Data)
	}
	w.U32(crc32.ChecksumIEEE(w.buf))
	w.buf = append(w.buf, footerMagic...)
	return w.buf
}

// Decode parses and verifies a snapshot container: header magic, version,
// section framing, CRC, and footer magic. Truncated, corrupted, or
// version-mismatched data is rejected with a descriptive error.
func Decode(data []byte) ([]Section, error) {
	const minLen = len(headerMagic) + 4 + 4 + 4 + len(footerMagic)
	if len(data) < minLen {
		return nil, fmt.Errorf("snap: file too short (%d bytes): truncated or not a snapshot", len(data))
	}
	if string(data[:len(headerMagic)]) != headerMagic {
		return nil, fmt.Errorf("snap: bad header magic: not a snapshot file")
	}
	if string(data[len(data)-len(footerMagic):]) != footerMagic {
		return nil, fmt.Errorf("snap: missing footer magic: snapshot truncated mid-write")
	}
	body := data[:len(data)-len(footerMagic)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-len(footerMagic)-4 : len(data)-len(footerMagic)])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("snap: checksum mismatch: snapshot corrupted (want %08x, got %08x)", sum, got)
	}
	r := NewReader(body[len(headerMagic):])
	version := r.U32()
	if version != FormatVersion {
		return nil, fmt.Errorf("snap: format version %d, this build reads only %d", version, FormatVersion)
	}
	n := int(r.U32())
	sections := make([]Section, 0, n)
	for i := 0; i < n; i++ {
		name := r.String()
		payload := r.Blob()
		if r.Err() != nil {
			return nil, fmt.Errorf("snap: section %d: %w", i, r.Err())
		}
		sections = append(sections, Section{Name: name, Data: payload})
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("snap: trailing garbage after sections: %w", err)
	}
	return sections, nil
}

// WriteFile atomically writes the sections to path: the encoded container
// lands in a temp file in the same directory, is fsynced, and renamed over
// path. A reader never observes a partial snapshot, and a crash leaves
// either the previous snapshot or none.
func WriteFile(path string, sections []Section) error {
	data := Encode(sections)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snap: create temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snap: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snap: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snap: close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snap: rename: %w", err)
	}
	return nil
}

// ReadFile loads and verifies a snapshot written by WriteFile.
func ReadFile(path string) ([]Section, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sections, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sections, nil
}

// Find returns the named section's payload, or an error naming what is
// missing — a section absent from a verified file means the snapshot was
// written by a run with a different configuration shape.
func Find(sections []Section, name string) ([]byte, error) {
	for _, s := range sections {
		if s.Name == name {
			return s.Data, nil
		}
	}
	return nil, fmt.Errorf("snap: section %q missing from snapshot", name)
}
