// Package wire implements the compact binary encoding shared by the TCP
// transport's message frames and the replication package's three file
// formats — WAL record payloads, snapshots and the disk engine's sorted
// segments: length-delimited fields, varints for integers, no schema
// metadata.
//
// A message's or record's encoding is derived from its struct declaration
// (Compile): the exported fields in declaration order, each encoded by its
// type.
//
//   - string kinds: uvarint length followed by the bytes; under the field
//     tag `wire:"bits"` decoding also rejects a string that is not a key's
//     bit string (keyspace.FromString)
//   - int, int64: zigzag varint
//   - uint64: unsigned varint, or 8 little-endian bytes under the field
//     tag `wire:"fixed64"`
//   - float64: its IEEE bit pattern as 8 little-endian bytes
//   - bool: one byte, 0 or 1; decoding rejects any other value
//   - slice: uvarint element count followed by the elements; an empty slice
//     decodes to nil
//   - struct: its fields, in the same way
//   - keyspace.Key: keyspace.AppendWire's bit length plus right-aligned bits
//
// Nothing else has an encoding, and decoding a whole message (Decode) fails
// on trailing bytes. The field order is the format, which is why golden
// vectors pin the bytes of every message and disk record. The transport
// keeps one codec per message type; the WAL and snapshot files are streams
// of tagged records, one tag byte and then the struct the tag names
// (Records); a segment file is untagged records of one struct, read a block
// at a time, then its index as one slice. Decoders carry a sticky error, so
// a decoder reads all fields unconditionally and checks Err once at the
// end.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShort reports a truncated or malformed field encoding.
var ErrShort = errors.New("wire: short or malformed encoding")

// MaxLen bounds a single length-delimited field (64 MiB): a length word
// decoded from a corrupt or adversarial frame must never drive a huge
// allocation.
const MaxLen = 64 << 20

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zigzag-encoded signed varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendFixed64 appends v as 8 little-endian bytes (used for float bit
// patterns, where a varint would usually be longer).
func AppendFixed64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendString appends a length-delimited string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-delimited byte slice.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendBool appends a bool as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Decoder reads the primitives back out of a buffer. The zero Decoder over
// a byte slice is ready to use; errors are sticky, so callers can decode a
// whole message and check Err once.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder over data. The decoder aliases the slice; it
// never mutates it.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Err returns the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unconsumed bytes.
func (d *Decoder) Len() int { return len(d.buf) }

// Rest consumes and returns all remaining bytes (aliasing the input).
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	r := d.buf
	d.buf = nil
	return r
}

// fail records the sticky error.
func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrShort
	}
}

// Uvarint consumes one unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if !d.canonical(n) {
		return 0
	}
	return v
}

// Varint consumes one zigzag-encoded signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if !d.canonical(n) {
		return 0
	}
	return v
}

// canonical consumes the n-byte varint binary.Uvarint or binary.Varint
// just parsed, failing unless it parsed and is as short as its value
// allows: a longer form ends in a zero byte. Like Bool's check, this keeps
// every accepted encoding identical to the re-encoding of its value.
func (d *Decoder) canonical(n int) bool {
	if n <= 0 || n > 1 && d.buf[n-1] == 0 {
		d.fail()
		return false
	}
	d.buf = d.buf[n:]
	return true
}

// Fixed64 consumes 8 little-endian bytes.
func (d *Decoder) Fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// Int consumes one unsigned varint and returns it as an int, failing on
// values that overflow or exceed MaxLen (field counts and lengths are the
// only ints on the wire, and none of them can legitimately be that large).
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if d.err == nil && v > MaxLen {
		d.fail()
		return 0
	}
	return int(v)
}

// Byte consumes one raw byte (used for record tags).
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// Bytes consumes one length-delimited byte field (aliasing the input).
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > MaxLen || uint64(len(d.buf)) < n {
		d.fail()
		return nil
	}
	p := d.buf[:n]
	d.buf = d.buf[n:]
	return p
}

// String consumes one length-delimited string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Bool consumes one byte as a bool. Any value other than 0 or 1 is an
// encoding error, which keeps the codec canonical (a value round-trips to
// the identical bytes).
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) == 0 {
		d.fail()
		return false
	}
	b := d.buf[0]
	if b > 1 {
		d.fail()
		return false
	}
	d.buf = d.buf[1:]
	return b == 1
}

// Finish fails unless the buffer was consumed exactly, and returns the
// sticky error. Message decoders call it last, so trailing garbage — the
// classic symptom of a field-order mismatch — is an error, not silence.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrShort, len(d.buf))
	}
	return d.err
}
