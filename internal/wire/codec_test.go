package wire

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"pgrid/internal/keyspace"
)

type tag string

type leaf struct {
	Name tag
	N    int
}

type sample struct {
	S      string
	Bits   string `wire:"bits"`
	I      int
	I64    int64
	U      uint64
	H      uint64 `wire:"fixed64"`
	F      float64
	B      bool
	K      keyspace.Key
	Leaves []leaf
	Levels [][]keyspace.Key
}

// TestCodecEncodesByTheRules pins one value of every rule the package doc
// states, in field order.
func TestCodecEncodesByTheRules(t *testing.T) {
	k := keyspace.MustFromString("101")
	v := sample{S: "ab", Bits: "0110", I: -2, I64: -1 << 40, U: 300, H: 1, F: 1, B: true, K: k,
		Leaves: []leaf{{Name: "x", N: 1}}, Levels: [][]keyspace.Key{nil, {k}}}
	var want []byte
	want = AppendString(want, "ab")
	want = AppendString(want, "0110")
	want = AppendVarint(want, -2)
	want = AppendVarint(want, -1<<40)
	want = AppendUvarint(want, 300)
	want = AppendFixed64(want, 1)
	want = AppendFixed64(want, math.Float64bits(1))
	want = AppendBool(want, true)
	want = keyspace.AppendWire(want, k)
	want = AppendUvarint(want, 1)
	want = AppendString(want, "x")
	want = AppendVarint(want, 1)
	want = AppendUvarint(want, 2)
	want = AppendUvarint(want, 0)
	want = AppendUvarint(want, 1)
	want = keyspace.AppendWire(want, k)

	c, err := Compile(reflect.TypeOf(v))
	if err != nil {
		t.Fatal(err)
	}
	got := c.Append(nil, v)
	if string(got) != string(want) {
		t.Fatalf("encoding:\n got  %x\n want %x", got, want)
	}
	back, err := c.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Errorf("round trip:\n got  %+v\n want %+v", back, v)
	}
	empty, err := c.Decode(c.Append(nil, sample{Leaves: []leaf{}}))
	if err != nil {
		t.Fatal(err)
	}
	if empty.(sample).Leaves != nil {
		t.Error("an empty slice must decode to nil")
	}
}

// TestCodecDecodeRejects covers the decoder's refusals: trailing bytes, a
// bool above 1, a truncated body, a non-canonical key and a string under
// `wire:"bits"` that is not a key's bit string.
func TestCodecDecodeRejects(t *testing.T) {
	c, err := Compile(reflect.TypeOf(leaf{}))
	if err != nil {
		t.Fatal(err)
	}
	good := c.Append(nil, leaf{Name: "x", N: 5})
	for name, data := range map[string][]byte{
		"trailing byte": append(good[:len(good):len(good)], 0),
		"truncated":     good[:len(good)-1],
	} {
		if _, err := c.Decode(data); !errors.Is(err, ErrShort) {
			t.Errorf("%s: err = %v, want ErrShort", name, err)
		}
	}
	b, err := Compile(reflect.TypeOf(struct{ B bool }{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Decode([]byte{2}); !errors.Is(err, ErrShort) {
		t.Errorf("bool 2: err = %v, want ErrShort", err)
	}
	k, err := Compile(reflect.TypeOf(keyspace.Key{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Decode(AppendUvarint(AppendUvarint(nil, 65), 0)); !errors.Is(err, ErrShort) {
		t.Errorf("65-bit key: err = %v, want ErrShort", err)
	}
	bits, err := Compile(reflect.TypeOf(struct {
		K string `wire:"bits"`
	}{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, ks := range []string{"01x", "012", strings.Repeat("1", 65)} {
		if _, err := bits.Decode(AppendString(nil, ks)); !errors.Is(err, ErrShort) {
			t.Errorf("bit string %q: err = %v, want ErrShort", ks, err)
		}
	}
}

// TestRecordsTagEachRecord checks that a record table writes the tag before
// the struct its tag names, and that Read fills a caller's value in place.
func TestRecordsTagEachRecord(t *testing.T) {
	recs := NewRecords(map[byte]any{1: leaf{}, 7: struct{ U uint64 }{}})
	b := recs.Append(nil, 1, leaf{Name: "x", N: -1})
	b = recs.Append(b, 7, struct{ U uint64 }{U: 300})
	want := AppendUvarint(AppendVarint(AppendString([]byte{1}, "x"), -1), 7)
	want = AppendUvarint(want, 300)
	if string(b) != string(want) {
		t.Fatalf("records:\n got  %x\n want %x", b, want)
	}
	d := NewDecoder(b)
	l := leaf{Name: "stale", N: 9}
	recs[d.Byte()].Read(d, &l)
	var u struct{ U uint64 }
	recs[d.Byte()].Read(d, &u)
	if err := d.Finish(); err != nil || l != (leaf{Name: "x", N: -1}) || u.U != 300 {
		t.Errorf("read back %+v, %+v, err %v", l, u, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Read into a value of another type did not panic")
		}
	}()
	recs[1].Read(NewDecoder(nil), &u)
}

type selfSlice []selfSlice

// TestCompileRefuses checks that a type without a wire encoding is
// refused, with an error naming where it sits.
func TestCompileRefuses(t *testing.T) {
	cases := []struct {
		sample any
		want   string
	}{
		{struct{ X any }{}, ".X: interface {} has no wire encoding"},
		{struct{ C chan int }{}, ".C: chan int has no wire encoding"},
		{struct{ N int32 }{}, ".N: int32 has no wire encoding"},
		{struct{ L []map[string]int }{}, ".L[]: map[string]int has no wire encoding"},
		{struct {
			N int `wire:"fixed64"`
		}{}, `.N: tag "fixed64" does not apply to int`},
		{struct {
			N uint64 `wire:"bits"`
		}{}, `.N: tag "bits" does not apply to uint64`},
		{selfSlice{}, "wire.selfSlice[]: recursive type wire.selfSlice"},
	}
	for _, c := range cases {
		_, err := Compile(reflect.TypeOf(c.sample))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%T) = %v, want an error containing %q", c.sample, err, c.want)
		}
	}
}
