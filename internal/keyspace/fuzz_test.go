package keyspace

import (
	"strings"
	"testing"
)

// FuzzEncodeString exercises the string encoder with arbitrary inputs and
// depths: it must never panic, must reject exactly the depths outside
// [0, 64], and every produced key must satisfy the representation
// invariants (length, zeroed insignificant bits, String/FromString round
// trip) plus monotonicity under suffix extension.
//
// Run continuously with:
//
//	go test ./internal/keyspace -run=^$ -fuzz=FuzzEncodeString -fuzztime=30s
func FuzzEncodeString(f *testing.F) {
	f.Add("database", 64)
	f.Add("", 0)
	f.Add("Term", 32)
	f.Add("zzzzzzzzzzzz", 48)
	f.Add("a\x00b", 16)
	f.Add("ümlaut", 64)
	f.Add("x", -1)
	f.Add("x", 65)
	f.Fuzz(func(t *testing.T, s string, depth int) {
		k, err := EncodeString(s, depth)
		if depth < 0 || depth > 64 {
			if err == nil {
				t.Fatalf("EncodeString(%q, %d) accepted an invalid depth", s, depth)
			}
			return
		}
		if err != nil {
			t.Fatalf("EncodeString(%q, %d): %v", s, depth, err)
		}
		if k.Len != depth {
			t.Fatalf("key length = %d, want %d", k.Len, depth)
		}
		if depth < 64 && k.Bits&(uint64(1)<<(64-uint(depth))-1) != 0 {
			t.Fatalf("insignificant bits not zero: %064b (depth %d)", k.Bits, depth)
		}
		rt, err := FromString(k.String())
		if err != nil || !rt.Equal(k) {
			t.Fatalf("String round trip broke: %q -> %v (%v)", k.String(), rt, err)
		}
		// Appending a character never moves the key backwards: s is a proper
		// prefix of s+"z", so it is strictly smaller as a string.
		if ext, err := EncodeString(s+"z", depth); err != nil || k.Compare(ext) > 0 {
			t.Fatalf("suffix extension moved key backwards: %q vs %q (%v)", s, s+"z", err)
		}
		// The decoded prefix is always a byte prefix of the lower-cased
		// input when it is non-empty and NUL-free.
		if got := DecodePrefixString(k); got != "" && !strings.Contains(s, "\x00") {
			if !strings.HasPrefix(strings.ToLower(s), got) {
				t.Fatalf("DecodePrefixString(%q) = %q not a prefix", s, got)
			}
		}
	})
}

// FuzzFromFloat checks the float encoder never panics and stays order
// preserving against a second sample.
func FuzzFromFloat(f *testing.F) {
	f.Add(0.0, 0.5, 64)
	f.Add(0.999999, 0.000001, 32)
	f.Add(-1.5, 2.5, 16)
	f.Fuzz(func(t *testing.T, x, y float64, depth int) {
		kx, errX := FromFloat(x, depth)
		ky, errY := FromFloat(y, depth)
		if depth < 0 || depth > 64 {
			if errX == nil || errY == nil {
				t.Fatalf("FromFloat accepted invalid depth %d", depth)
			}
			return
		}
		if errX != nil || errY != nil {
			t.Fatalf("FromFloat(%v/%v, %d): %v %v", x, y, depth, errX, errY)
		}
		// NaN clamps to 0, so only compare well-ordered inputs.
		if x == x && y == y && x <= y && kx.Compare(ky) > 0 {
			t.Fatalf("order inverted: FromFloat(%v) > FromFloat(%v) at depth %d", x, y, depth)
		}
	})
}

// FuzzFromString checks the key parser on arbitrary strings: a string of
// at most 64 '0'/'1' characters parses and renders back to itself, and
// any other byte, or a 65th character, is an error.
//
// Run continuously with:
//
//	go test ./internal/keyspace -run=^$ -fuzz=FuzzFromString -fuzztime=30s
func FuzzFromString(f *testing.F) {
	f.Add("")
	f.Add("0110")
	f.Add("01x1")
	f.Add("/2")
	f.Add(strings.Repeat("1", 64))
	f.Add(strings.Repeat("0", 65))
	f.Fuzz(func(t *testing.T, s string) {
		k, err := FromString(s)
		valid := len(s) <= 64 && strings.Trim(s, "01") == ""
		if !valid {
			if err == nil {
				t.Fatalf("FromString(%q) accepted an invalid key string", s)
			}
			return
		}
		if err != nil {
			t.Fatalf("FromString(%q): %v", s, err)
		}
		if k.Len != len(s) || k.String() != s {
			t.Fatalf("FromString(%q) renders back as %q (len %d)", s, k.String(), k.Len)
		}
		if k.Len < 64 && k.Bits&(uint64(1)<<(64-uint(k.Len))-1) != 0 {
			t.Fatalf("FromString(%q) left insignificant bits set: %064b", s, k.Bits)
		}
	})
}
