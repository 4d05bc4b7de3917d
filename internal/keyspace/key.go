// Package keyspace implements the binary key space underlying the P-Grid
// trie overlay: order-preserving binary keys drawn from the interval [0,1),
// partition paths (bit strings identifying key-space partitions), and the
// interval algebra needed by the recursive bisection construction.
//
// Keys are order preserving: if a < b as application values then
// Key(a) < Key(b) lexicographically. This is the property that makes the
// overlay "data oriented" — range queries and other semantic processing of
// keys remain possible, at the price of a skewed key distribution that the
// construction algorithm must balance.
package keyspace

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// DefaultDepth is the number of bits retained when encoding application
// values into binary keys. 64 bits is enough to distinguish any two float64
// values in [0,1) that differ in their fractional part.
const DefaultDepth = 64

// Key is an order-preserving binary key in the unit interval [0,1).
// The zero value is the key 0.000... (the left edge of the key space).
//
// A Key stores up to 64 significant bits in Bits (most significant bit
// first, i.e. bit 0 of the key is the top bit of Bits) together with the
// number of significant bits in Len. Two keys compare lexicographically on
// their bit strings, which coincides with numeric order of the represented
// binary fractions when Len is equal.
type Key struct {
	// Bits holds the key bits left-aligned: bit i of the key (0-based from
	// the most significant position) is (Bits >> (63-i)) & 1.
	Bits uint64
	// Len is the number of significant bits, 0 <= Len <= 64.
	Len int
}

// ErrDepth is returned when a requested key depth is outside [0, 64].
var ErrDepth = errors.New("keyspace: depth out of range [0,64]")

// FromFloat encodes a value in [0,1) as a binary key with the given number
// of bits. Values outside [0,1) are clamped. FromFloat is order preserving:
// x <= y implies FromFloat(x,d).Compare(FromFloat(y,d)) <= 0.
func FromFloat(x float64, depth int) (Key, error) {
	if depth < 0 || depth > 64 {
		return Key{}, ErrDepth
	}
	if math.IsNaN(x) || x < 0 {
		x = 0
	}
	if x >= 1 {
		x = math.Nextafter(1, 0)
	}
	var bits uint64
	for i := 0; i < depth; i++ {
		x *= 2
		bits <<= 1
		if x >= 1 {
			bits |= 1
			x -= 1
		}
	}
	bits <<= uint(64 - depth)
	return Key{Bits: bits, Len: depth}, nil
}

// MustFromFloat is like FromFloat but panics on error. It is intended for
// use with constant depths known to be valid.
func MustFromFloat(x float64, depth int) Key {
	k, err := FromFloat(x, depth)
	if err != nil {
		panic(err)
	}
	return k
}

// Float returns the binary fraction represented by the key, i.e. the left
// edge of the key's dyadic interval.
func (k Key) Float() float64 {
	f := 0.0
	scale := 0.5
	for i := 0; i < k.Len; i++ {
		if k.Bit(i) == 1 {
			f += scale
		}
		scale /= 2
	}
	return f
}

// FromBits builds a key from a left-aligned bit pattern and length.
func FromBits(bits uint64, length int) (Key, error) {
	if length < 0 || length > 64 {
		return Key{}, ErrDepth
	}
	if length < 64 {
		bits &^= (uint64(1)<<(64-uint(length)) - 1) // clear insignificant bits
	}
	return Key{Bits: bits, Len: length}, nil
}

// FromString parses a key from a string of '0' and '1' characters.
func FromString(s string) (Key, error) {
	if len(s) > 64 {
		return Key{}, fmt.Errorf("keyspace: key string longer than 64 bits: %d", len(s))
	}
	var bits uint64
	for i := 0; i < len(s); i++ {
		// One unsigned compare rejects every byte but '0' and '1', and the
		// bit is appended without a branch on its value, which a switch on
		// random key bits mispredicts.
		c := s[i] - '0'
		if c > 1 {
			return Key{}, fmt.Errorf("keyspace: invalid character %q in key string", s[i])
		}
		bits = bits<<1 | uint64(c)
	}
	bits <<= uint(64 - len(s))
	return Key{Bits: bits, Len: len(s)}, nil
}

// MustFromString is like FromString but panics on error.
func MustFromString(s string) Key {
	k, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return k
}

// Bit returns the i-th bit (0-based from the most significant end).
// It panics if i is out of range.
func (k Key) Bit(i int) int {
	if i < 0 || i >= k.Len {
		panic(fmt.Sprintf("keyspace: bit index %d out of range [0,%d)", i, k.Len))
	}
	return int((k.Bits >> uint(63-i)) & 1)
}

// String renders the key as a string of '0' and '1'.
func (k Key) String() string {
	var b [64]byte
	bits := k.Bits
	for i := 0; i < k.Len; i++ {
		b[i] = '0' + byte(bits>>63)
		bits <<= 1
	}
	return string(b[:k.Len])
}

// Compare orders keys lexicographically on their bit strings. A key that is
// a proper prefix of another compares as smaller (it denotes the left edge
// of a larger interval). The result is -1, 0 or +1.
func (k Key) Compare(o Key) int {
	n := k.Len
	if o.Len < n {
		n = o.Len
	}
	if n > 0 {
		shift := uint(64 - n)
		a, b := k.Bits>>shift, o.Bits>>shift
		if a < b {
			return -1
		}
		if a > b {
			return 1
		}
	}
	switch {
	case k.Len < o.Len:
		return -1
	case k.Len > o.Len:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two keys have identical bit strings.
func (k Key) Equal(o Key) bool { return k.Len == o.Len && k.Bits == o.Bits }

// HasPrefix reports whether the key starts with the given path.
func (k Key) HasPrefix(p Path) bool {
	if len(p) > k.Len {
		return false
	}
	for i := 0; i < len(p); i++ {
		if byte('0')+byte(k.Bit(i)) != p[i] {
			return false
		}
	}
	return true
}

// Truncate returns the key restricted to its first n bits. If n exceeds the
// key length the key is returned unchanged.
func (k Key) Truncate(n int) Key {
	if n >= k.Len {
		return k
	}
	if n < 0 {
		n = 0
	}
	bits := k.Bits
	if n < 64 {
		bits &^= (uint64(1)<<(64-uint(n)) - 1)
	}
	return Key{Bits: bits, Len: n}
}

// Path returns the key's bit string as a Path of the given length
// (truncating or zero-extending on the right as needed).
func (k Key) Path(n int) Path {
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		if i < k.Len && k.Bit(i) == 1 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return Path(b.String())
}

// Keys is a sortable slice of keys.
type Keys []Key

// Len implements sort.Interface.
func (s Keys) Len() int { return len(s) }

// Less implements sort.Interface (ascending key order).
func (s Keys) Less(i, j int) bool { return s[i].Compare(s[j]) < 0 }

// Swap implements sort.Interface.
func (s Keys) Swap(i, j int) { s[i], s[j] = s[j], s[i] }

// Sort sorts the keys in ascending order.
func (s Keys) Sort() { sort.Sort(s) }

// CountWithPrefix returns how many keys in the slice start with path p.
func (s Keys) CountWithPrefix(p Path) int {
	n := 0
	for _, k := range s {
		if k.HasPrefix(p) {
			n++
		}
	}
	return n
}

// FilterPrefix returns the subset of keys starting with path p, preserving
// order. The returned slice is freshly allocated.
func (s Keys) FilterPrefix(p Path) Keys {
	out := make(Keys, 0, len(s))
	for _, k := range s {
		if k.HasPrefix(p) {
			out = append(out, k)
		}
	}
	return out
}

// SplitFraction computes, for keys belonging to partition prefix, the
// fraction that falls into the left (bit 0) sub-partition. It returns the
// fraction p and the counts (left, right). When no key matches the prefix it
// returns p = 0.5 so that callers fall back to a balanced split.
func (s Keys) SplitFraction(prefix Path) (p float64, left, right int) {
	l := prefix.Child(0)
	r := prefix.Child(1)
	for _, k := range s {
		switch {
		case k.HasPrefix(l):
			left++
		case k.HasPrefix(r):
			right++
		}
	}
	total := left + right
	if total == 0 {
		return 0.5, 0, 0
	}
	return float64(left) / float64(total), left, right
}
