package keyspace

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pgrid/internal/testutil"
)

// Property-based tests for the order-preserving encoders. All generators are
// seeded and the seed is logged (via testutil.QuickConfig), so a failure
// reproduces deterministically; bump propertySeed to explore a different
// input population.
const propertySeed int64 = 1702

// TestEncodeStringOrderProperty: for arbitrary strings, the byte order of
// the lower-cased inputs must be preserved by the keys — equal-or-smaller
// keys for smaller strings (non-strict, because keys truncate to DefaultDepth
// bits), and identical keys for case-insensitively equal strings.
func TestEncodeStringOrderProperty(t *testing.T) {
	f := func(a, b string) bool {
		ka := MustEncodeString(a, DefaultDepth)
		kb := MustEncodeString(b, DefaultDepth)
		la, lb := strings.ToLower(a), strings.ToLower(b)
		switch {
		case la < lb:
			return ka.Compare(kb) <= 0
		case la > lb:
			return ka.Compare(kb) >= 0
		default:
			return ka.Equal(kb)
		}
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 4000, propertySeed)); err != nil {
		t.Error(err)
	}
}

// TestEncodeUint64OrderProperty: integer order must survive the encoding at
// every depth, with equality exactly when the retained high bits agree.
func TestEncodeUint64OrderProperty(t *testing.T) {
	f := func(a, b uint64, rawDepth uint8) bool {
		depth := int(rawDepth%64) + 1
		ka, err1 := EncodeUint64(a, depth)
		kb, err2 := EncodeUint64(b, depth)
		if err1 != nil || err2 != nil {
			return false
		}
		if a == b {
			return ka.Equal(kb)
		}
		if a > b {
			a, b = b, a
			ka, kb = kb, ka
		}
		if a>>(64-uint(depth)) == b>>(64-uint(depth)) {
			return ka.Equal(kb)
		}
		return ka.Compare(kb) < 0
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 4000, propertySeed)); err != nil {
		t.Error(err)
	}
}

// TestFromFloatOrderProperty: real order on [0,1) must be preserved, and the
// key's Float() must be a left-edge approximation that never exceeds the
// input.
func TestFromFloatOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(propertySeed))
	t.Logf("property seed: %d", propertySeed)
	for i := 0; i < 4000; i++ {
		x, y := rng.Float64(), rng.Float64()
		if x > y {
			x, y = y, x
		}
		kx := MustFromFloat(x, DefaultDepth)
		ky := MustFromFloat(y, DefaultDepth)
		if kx.Compare(ky) > 0 {
			t.Fatalf("order violated: FromFloat(%v) > FromFloat(%v)", x, y)
		}
		if f := kx.Float(); f > x || f < 0 || f >= 1 {
			t.Fatalf("Float() = %v not a left-edge approximation of %v", f, x)
		}
	}
}

// TestEncodeStringPrefixRoundTrip: for printable lower-case inputs the
// decoded prefix must reproduce the first encoded bytes of the string.
func TestEncodeStringPrefixRoundTrip(t *testing.T) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_"
	rng := rand.New(rand.NewSource(propertySeed))
	t.Logf("property seed: %d", propertySeed)
	for i := 0; i < 2000; i++ {
		n := rng.Intn(13)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		s := b.String()
		k := MustEncodeString(s, DefaultDepth)
		want := s
		if len(want) > 8 {
			want = want[:8] // 64 bits hold the first 8 bytes
		}
		if got := DecodePrefixString(k); got != want {
			t.Fatalf("DecodePrefixString(Encode(%q)) = %q, want %q", s, got, want)
		}
	}
}

// TestEncodersNeverPanicProperty: arbitrary inputs (including depths outside
// the valid range) must produce errors, never panics, and must error exactly
// when the depth is invalid.
func TestEncodersNeverPanicProperty(t *testing.T) {
	f := func(s string, v uint64, x float64, rawDepth int16) bool {
		depth := int(rawDepth % 90) // exercises both sides of [0, 64]
		wantErr := depth < 0 || depth > 64
		if _, err := EncodeString(s, depth); (err != nil) != wantErr {
			return false
		}
		if _, err := EncodeUint64(v, depth); (err != nil) != wantErr {
			return false
		}
		if _, err := EncodeFloat(x, depth); (err != nil) != wantErr {
			return false
		}
		if _, err := FromFloat(x, depth); (err != nil) != wantErr {
			return false
		}
		if _, err := FromBits(v, depth); (err != nil) != wantErr {
			return false
		}
		return true
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 2000, propertySeed)); err != nil {
		t.Error(err)
	}
}

// TestKeyStringRoundTripProperty: every encoded key survives the
// String/FromString round trip bit-exactly.
func TestKeyStringRoundTripProperty(t *testing.T) {
	f := func(v uint64, rawDepth uint8) bool {
		depth := int(rawDepth % 65)
		k, err := EncodeUint64(v, depth)
		if err != nil {
			return false
		}
		rt, err := FromString(k.String())
		if err != nil {
			return false
		}
		return rt.Equal(k)
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 2000, propertySeed)); err != nil {
		t.Error(err)
	}
}

// bitString is the per-bit rendering Key.String replaced: one Bit call per
// bit. It is the reference the word-at-a-time rendering is checked against.
func bitString(k Key) string {
	var b strings.Builder
	for i := 0; i < k.Len; i++ {
		b.WriteByte(byte('0' + k.Bit(i)))
	}
	return b.String()
}

// stringSink keeps the rendered string alive, so the allocation count
// measures it.
var stringSink string

// TestKeyStringMatchesBitRendering: String renders every key of every
// length 0–64 exactly as reading its bits one at a time does, and costs at
// most the one allocation of the returned string.
func TestKeyStringMatchesBitRendering(t *testing.T) {
	f := func(bits uint64) bool {
		for n := 0; n <= 64; n++ {
			k, err := FromBits(bits, n)
			if err != nil || k.String() != bitString(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 500, propertySeed)); err != nil {
		t.Error(err)
	}
	k := MustFromFloat(0.3, DefaultDepth)
	if a := testing.AllocsPerRun(100, func() { stringSink = k.String() }); a > 1 {
		t.Errorf("String allocates %.1f times, ceiling 1", a)
	}
}

// TestKeyCompareIsStringOrder: Compare orders keys exactly as Go orders
// their '0'/'1' renderings, a proper prefix first. Stores compare rendered
// keys against range bounds on the strength of this.
func TestKeyCompareIsStringOrder(t *testing.T) {
	f := func(a, b uint64, la, lb uint8) bool {
		ka, _ := FromBits(a, int(la%65))
		kb, _ := FromBits(b, int(lb%65))
		// Share a random-length prefix often, so prefix relations occur.
		if la%3 == 0 {
			kb, _ = FromBits(a, int(lb%65))
		}
		return ka.Compare(kb) == strings.Compare(ka.String(), kb.String())
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 4000, propertySeed)); err != nil {
		t.Error(err)
	}
}

// fromStringSwitch is the per-character switch parser FromString replaced,
// kept as the reference its branch-free loop must match.
func fromStringSwitch(s string) (Key, bool) {
	if len(s) > 64 {
		return Key{}, false
	}
	var bits uint64
	for i := 0; i < len(s); i++ {
		bits <<= 1
		switch s[i] {
		case '0':
		case '1':
			bits |= 1
		default:
			return Key{}, false
		}
	}
	bits <<= uint(64 - len(s))
	return Key{Bits: bits, Len: len(s)}, true
}

// TestFromStringMatchesSwitchParser: FromString agrees with the switch
// parser on random keys of every length 0 to 64, on those keys with an
// invalid byte at every position (bytes just below '0', just above '1',
// and far from both), and rejects 65 characters.
func TestFromStringMatchesSwitchParser(t *testing.T) {
	rng := rand.New(rand.NewSource(propertySeed))
	check := func(s string) {
		t.Helper()
		want, wantOK := fromStringSwitch(s)
		got, err := FromString(s)
		if (err == nil) != wantOK || got != want {
			t.Fatalf("FromString(%q) = %v, %v; switch parser gives %v, ok %v", s, got, err, want, wantOK)
		}
	}
	for n := 0; n <= 64; n++ {
		for trial := 0; trial < 8; trial++ {
			b := make([]byte, n)
			for i := range b {
				b[i] = '0' + byte(rng.Intn(2))
			}
			check(string(b))
			for i := range b {
				for _, bad := range []byte{'/', '2', 0, 'a', 0xff, '0' + 128} {
					orig := b[i]
					b[i] = bad
					check(string(b))
					b[i] = orig
				}
			}
		}
	}
	for _, s := range []string{strings.Repeat("0", 65), strings.Repeat("1", 65)} {
		if _, err := FromString(s); err == nil {
			t.Fatalf("FromString accepted %d characters", len(s))
		}
		check(s)
	}
}
