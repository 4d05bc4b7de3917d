package keyspace

import "encoding/binary"

// AppendWire appends k's wire form: its bit length, then its significant
// bits right-aligned, each as an unsigned varint, so a short key costs two
// bytes instead of nine.
func AppendWire(b []byte, k Key) []byte {
	b = binary.AppendUvarint(b, uint64(k.Len))
	bits := k.Bits
	if k.Len == 0 {
		bits = 0
	} else if k.Len < 64 {
		bits >>= uint(64 - k.Len)
	}
	return binary.AppendUvarint(b, bits)
}

// DecodeWire decodes the key whose wire form opens b and returns it with
// the number of bytes it used. It returns n == 0 when b does not open with
// a canonical key: a truncated varint, a length beyond 64 bits, or bits set
// beyond the length.
func DecodeWire(b []byte) (k Key, n int) {
	length, n1 := binary.Uvarint(b)
	if n1 <= 0 {
		return Key{}, 0
	}
	bits, n2 := binary.Uvarint(b[n1:])
	if n2 <= 0 || length > 64 || (length < 64 && bits>>length != 0) {
		return Key{}, 0
	}
	if length > 0 && length < 64 {
		bits <<= 64 - length
	}
	return Key{Bits: bits, Len: int(length)}, n1 + n2
}
