package wire

import (
	"fmt"
	"math"
	"reflect"

	"pgrid/internal/keyspace"
)

// sliceCapHint bounds the initial capacity allocated for a decoded slice, so
// a corrupt element count cannot drive a huge allocation before the decoder
// runs out of buffer.
const sliceCapHint = 4096

var keyType = reflect.TypeOf(keyspace.Key{})

// Codec encodes and decodes the values of one type. Compile derives it from
// the type's declaration once; encoding and decoding then follow the plan
// without looking at the type again.
type Codec struct {
	typ  reflect.Type
	root *node
}

// Records is the codec table of a tagged record stream: a record is one tag
// byte followed by the encoding of the struct compiled for that tag. Tags
// without a struct are nil.
type Records [256]*Codec

// op is how one node of the plan travels on the wire.
type op uint8

const (
	opString  op = iota // uvarint length plus bytes
	opInt               // zigzag varint
	opBits              // opString holding a key's bit string
	opUvarint           // unsigned varint
	opFixed64           // 8 little-endian bytes
	opFloat64           // IEEE bits as 8 little-endian bytes
	opBool              // one byte, 0 or 1
	opKey               // keyspace.AppendWire
	opSlice             // uvarint count plus the elements
	opStruct            // the fields in declaration order
)

type node struct {
	op     op
	elem   *node   // opSlice
	fields []field // opStruct
}

type field struct {
	index int
	node  *node
}

// Compile derives the codec of t. It fails, naming the field, when t holds
// a type the wire format has no encoding for: a map, pointer, interface,
// channel or function, a numeric kind other than int, int64, uint64 and
// float64, an unexported field, or a type that contains itself.
func Compile(t reflect.Type) (*Codec, error) {
	root, err := compile(t, t.String(), "", map[reflect.Type]bool{})
	if err != nil {
		return nil, err
	}
	return &Codec{typ: t, root: root}, nil
}

// MustCompile is Compile of the sample value's type for package-level
// codecs, where a type without a wire encoding is a programming error: it
// panics, naming the field.
func MustCompile(sample any) *Codec {
	c, err := Compile(reflect.TypeOf(sample))
	if err != nil {
		panic(err)
	}
	return c
}

// NewRecords compiles the record struct of each tag from a sample value,
// panicking like MustCompile.
func NewRecords(samples map[byte]any) *Records {
	var r Records
	for tag, sample := range samples {
		r[tag] = MustCompile(sample)
	}
	return &r
}

// Append appends the tag and then the encoding of v, a value of the
// struct compiled for the tag.
func (r *Records) Append(b []byte, tag byte, v any) []byte {
	return r[tag].Append(append(b, tag), v)
}

// compile plans the encoding of t, found at the field path at with the
// field's wire tag; open holds the composite types being compiled on the
// way down, which is how a type that contains itself is caught.
func compile(t reflect.Type, at, tag string, open map[reflect.Type]bool) (*node, error) {
	switch {
	case tag == "fixed64" && t.Kind() == reflect.Uint64:
		return &node{op: opFixed64}, nil
	case tag == "bits" && t.Kind() == reflect.String:
		return &node{op: opBits}, nil
	case tag != "":
		return nil, fmt.Errorf("wire: %s: tag %q does not apply to %v", at, tag, t)
	case t == keyType:
		return &node{op: opKey}, nil
	}
	switch t.Kind() {
	case reflect.String:
		return &node{op: opString}, nil
	case reflect.Int, reflect.Int64:
		return &node{op: opInt}, nil
	case reflect.Uint64:
		return &node{op: opUvarint}, nil
	case reflect.Float64:
		return &node{op: opFloat64}, nil
	case reflect.Bool:
		return &node{op: opBool}, nil
	case reflect.Slice, reflect.Struct:
		if open[t] {
			return nil, fmt.Errorf("wire: %s: recursive type %v", at, t)
		}
		open[t] = true
		defer delete(open, t)
		if t.Kind() == reflect.Slice {
			elem, err := compile(t.Elem(), at+"[]", "", open)
			if err != nil {
				return nil, err
			}
			return &node{op: opSlice, elem: elem}, nil
		}
		n := &node{op: opStruct}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name := at + "." + f.Name
			if !f.IsExported() {
				return nil, fmt.Errorf("wire: %s: unexported field", name)
			}
			fn, err := compile(f.Type, name, f.Tag.Get("wire"), open)
			if err != nil {
				return nil, err
			}
			n.fields = append(n.fields, field{index: i, node: fn})
		}
		return n, nil
	}
	return nil, fmt.Errorf("wire: %s: %v has no wire encoding", at, t)
}

// Append appends the encoding of v, which must hold a value of the
// compiled type, to b.
func (c *Codec) Append(b []byte, v any) []byte { return c.root.append(b, reflect.ValueOf(v)) }

// Decode reconstructs a value of the compiled type from data, which must
// hold exactly one encoding.
func (c *Codec) Decode(data []byte) (any, error) {
	ptr := reflect.New(c.typ)
	d := Decoder{buf: data}
	c.Read(&d, ptr.Interface())
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return ptr.Elem().Interface(), nil
}

// Read sets the value ptr points to, which must be of the compiled type,
// from the next encoding in d. Failures stay in d's sticky error.
func (c *Codec) Read(d *Decoder, ptr any) {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.Type().Elem() != c.typ {
		// Formatting ptr itself would make every target escape to the heap.
		panic(fmt.Sprintf("wire: Read into %v, want *%v", v.Type(), c.typ))
	}
	v = v.Elem()
	v.SetZero()
	c.root.decode(d, v)
}

func (n *node) append(b []byte, v reflect.Value) []byte {
	switch n.op {
	case opString, opBits:
		return AppendString(b, v.String())
	case opInt:
		return AppendVarint(b, v.Int())
	case opUvarint:
		return AppendUvarint(b, v.Uint())
	case opFixed64:
		return AppendFixed64(b, v.Uint())
	case opFloat64:
		return AppendFixed64(b, math.Float64bits(v.Float()))
	case opBool:
		return AppendBool(b, v.Bool())
	case opKey:
		// The fields are read one by one: v.Interface() would box the key.
		return keyspace.AppendWire(b, keyspace.Key{Bits: v.Field(0).Uint(), Len: int(v.Field(1).Int())})
	case opSlice:
		count := v.Len()
		b = AppendUvarint(b, uint64(count))
		for i := 0; i < count; i++ {
			b = n.elem.append(b, v.Index(i))
		}
	case opStruct:
		for _, f := range n.fields {
			b = f.node.append(b, v.Field(f.index))
		}
	}
	return b
}

// decode sets v, a zero value, from d. An empty slice stays nil.
func (n *node) decode(d *Decoder, v reflect.Value) {
	switch n.op {
	case opString:
		v.SetString(d.String())
	case opBits:
		v.SetString(d.bits())
	case opInt:
		v.SetInt(d.Varint())
	case opUvarint:
		v.SetUint(d.Uvarint())
	case opFixed64:
		v.SetUint(d.Fixed64())
	case opFloat64:
		v.SetFloat(math.Float64frombits(d.Fixed64()))
	case opBool:
		v.SetBool(d.Bool())
	case opKey:
		k := d.key()
		v.Field(0).SetUint(k.Bits)
		v.Field(1).SetInt(int64(k.Len))
	case opSlice:
		count := d.Int()
		if count == 0 {
			return
		}
		v.Grow(min(count, sliceCapHint))
		for i := 0; i < count && d.err == nil; i++ {
			if i == v.Cap() {
				v.Grow(1)
			}
			v.SetLen(i + 1)
			n.elem.decode(d, v.Index(i))
		}
	case opStruct:
		for _, f := range n.fields {
			f.node.decode(d, v.Field(f.index))
		}
	}
}

// bits consumes one string that must be a key's bit string: at most 64
// '0' or '1' bytes, what keyspace.FromString accepts. Recovery checks every
// key it replays, so the loop has no branch on the bits themselves, which
// are random.
func (d *Decoder) bits() string {
	s := d.String()
	var bad byte
	for i := 0; i < len(s); i++ {
		bad |= (s[i] &^ 1) ^ '0'
	}
	if len(s) > 64 || bad != 0 {
		d.fail()
		return ""
	}
	return s
}

// key consumes one key in keyspace's wire form.
func (d *Decoder) key() keyspace.Key {
	if d.err != nil {
		return keyspace.Key{}
	}
	k, n := keyspace.DecodeWire(d.buf)
	if n == 0 {
		d.fail()
		return keyspace.Key{}
	}
	d.buf = d.buf[n:]
	return k
}
