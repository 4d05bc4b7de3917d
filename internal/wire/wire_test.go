package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, 1<<63)
	b = AppendString(b, "")
	b = AppendString(b, "hello")
	b = AppendBytes(b, []byte{0, 1, 2})
	b = AppendBool(b, true)
	b = AppendBool(b, false)

	d := NewDecoder(b)
	if got := d.Uvarint(); got != 0 {
		t.Errorf("uvarint = %d", got)
	}
	if got := d.Uvarint(); got != 1<<63 {
		t.Errorf("uvarint = %d", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("string = %q", got)
	}
	if got := d.String(); got != "hello" {
		t.Errorf("string = %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{0, 1, 2}) {
		t.Errorf("bytes = %v", got)
	}
	if got := d.Bool(); !got {
		t.Error("bool = false, want true")
	}
	if got := d.Bool(); got {
		t.Error("bool = true, want false")
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

func TestDecoderShortInputs(t *testing.T) {
	// A truncated varint, a length running past the end, a missing bool, a
	// non-canonical bool or varint: all must surface ErrShort and stay
	// sticky.
	cases := [][]byte{
		{0x80},           // unterminated varint
		{0x05, 'a', 'b'}, // string length 5, 2 bytes left
		{},               // missing bool byte
		{0x02},           // bool encoded as 2
		{0x81, 0x00},     // 1 as a two-byte varint
		{0x80, 0x80, 0x00},
	}
	reads := []func(d *Decoder){
		func(d *Decoder) { _ = d.Uvarint() },
		func(d *Decoder) { _ = d.String() },
		func(d *Decoder) { _ = d.Bool() },
		func(d *Decoder) { _ = d.Bool() },
		func(d *Decoder) { _ = d.Uvarint() },
		func(d *Decoder) { _ = d.Varint() },
	}
	for i, c := range cases {
		d := NewDecoder(c)
		reads[i](d)
		if !errors.Is(d.Err(), ErrShort) {
			t.Errorf("case %d: err = %v, want ErrShort", i, d.Err())
		}
		// Sticky: further reads keep failing and return zero values.
		if v := d.Uvarint(); v != 0 {
			t.Errorf("case %d: read after error = %d", i, v)
		}
	}
}

func TestDecoderHugeLength(t *testing.T) {
	// A length word far beyond MaxLen must fail without allocating.
	b := AppendUvarint(nil, 1<<40)
	d := NewDecoder(b)
	if got := d.Bytes(); got != nil || !errors.Is(d.Err(), ErrShort) {
		t.Errorf("huge length: got %v err %v", got, d.Err())
	}
}

func TestFinishTrailingBytes(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	d.Bool()
	if err := d.Finish(); !errors.Is(err, ErrShort) {
		t.Errorf("finish with trailing bytes: %v", err)
	}
}

func TestRest(t *testing.T) {
	b := AppendString(nil, "head")
	b = append(b, 0xAA, 0xBB)
	d := NewDecoder(b)
	if got := d.String(); got != "head" {
		t.Fatalf("string = %q", got)
	}
	if got := d.Rest(); !bytes.Equal(got, []byte{0xAA, 0xBB}) {
		t.Errorf("rest = %v", got)
	}
	if d.Len() != 0 {
		t.Errorf("len after rest = %d", d.Len())
	}
}
