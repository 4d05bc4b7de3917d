package overlay

// This file hand-writes the compact binary wire codec for every protocol
// message (wire.Marshaler on the value, wire.Unmarshaler on the pointer),
// which is what routes them through the TCP transport's binary path: no
// reflection touches a field, integers travel as varints and keys as their
// significant bits. The field order within each codec IS the wire format —
// changing it breaks deployed clusters, which is why the golden-vector test
// (wirecodec_test.go) pins the exact bytes of every message.
//
// Conventions:
//
//   - uint64 fields (clocks, generations, ids): unsigned varints.
//   - int fields (hops, TTLs, counts): zigzag varints, so the occasional
//     negative value survives bit-exactly.
//   - bools: one byte.
//   - keys: uvarint bit length plus the significant bits right-aligned in a
//     uvarint, so short keys cost two bytes instead of nine.
//   - slices: uvarint element count plus the elements. A decoded empty
//     slice is nil, keeping decode(encode(x)) == x for the zero values the
//     JSON codec produces.
//   - floats: their IEEE bit pattern as fixed 8 bytes.

import (
	"math"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
	"pgrid/internal/routing"
	"pgrid/internal/wire"
)

// maxKeyBits is the longest representable key (keyspace.Key holds 64 bits).
const maxKeyBits = 64

// sliceCapHint bounds the initial capacity allocated for a decoded slice, so
// a corrupt element count cannot drive a huge allocation before the decoder
// runs out of buffer.
const sliceCapHint = 4096

func capHint(n int) int {
	if n > sliceCapHint {
		return sliceCapHint
	}
	return n
}

// --- field helpers ----------------------------------------------------------

func appendKey(b []byte, k keyspace.Key) []byte {
	b = wire.AppendUvarint(b, uint64(k.Len))
	bits := k.Bits
	if k.Len == 0 {
		bits = 0
	} else if k.Len < 64 {
		bits >>= uint(64 - k.Len)
	}
	return wire.AppendUvarint(b, bits)
}

func decodeKey(d *wire.Decoder) keyspace.Key {
	length := d.Uvarint()
	bits := d.Uvarint()
	if d.Err() != nil {
		return keyspace.Key{}
	}
	if length > maxKeyBits || (length < 64 && bits>>length != 0 && length != 0) || (length == 0 && bits != 0) {
		d.Reject()
		return keyspace.Key{}
	}
	if length > 0 && length < 64 {
		bits <<= uint(64 - length)
	}
	k, err := keyspace.FromBits(bits, int(length))
	if err != nil {
		d.Reject()
		return keyspace.Key{}
	}
	return k
}

func appendPath(b []byte, p keyspace.Path) []byte { return wire.AppendString(b, string(p)) }

func decodePath(d *wire.Decoder) keyspace.Path { return keyspace.Path(d.String()) }

func appendAddr(b []byte, a network.Addr) []byte { return wire.AppendString(b, string(a)) }

func decodeAddr(d *wire.Decoder) network.Addr { return network.Addr(d.String()) }

func appendItem(b []byte, it replication.Item) []byte {
	b = appendKey(b, it.Key)
	b = wire.AppendString(b, it.Value)
	return wire.AppendUvarint(b, it.Gen)
}

func decodeItem(d *wire.Decoder) replication.Item {
	var it replication.Item
	it.Key = decodeKey(d)
	it.Value = d.String()
	it.Gen = d.Uvarint()
	return it
}

func appendItems(b []byte, items []replication.Item) []byte {
	b = wire.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = appendItem(b, it)
	}
	return b
}

func decodeItems(d *wire.Decoder) []replication.Item {
	n := d.Int()
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]replication.Item, 0, capHint(n))
	for i := 0; i < n; i++ {
		out = append(out, decodeItem(d))
		if d.Err() != nil {
			return nil
		}
	}
	return out
}

func appendAddrs(b []byte, addrs []network.Addr) []byte {
	b = wire.AppendUvarint(b, uint64(len(addrs)))
	for _, a := range addrs {
		b = appendAddr(b, a)
	}
	return b
}

func decodeAddrs(d *wire.Decoder) []network.Addr {
	n := d.Int()
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]network.Addr, 0, capHint(n))
	for i := 0; i < n; i++ {
		out = append(out, decodeAddr(d))
		if d.Err() != nil {
			return nil
		}
	}
	return out
}

func appendPaths(b []byte, paths []keyspace.Path) []byte {
	b = wire.AppendUvarint(b, uint64(len(paths)))
	for _, p := range paths {
		b = appendPath(b, p)
	}
	return b
}

func decodePaths(d *wire.Decoder) []keyspace.Path {
	n := d.Int()
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]keyspace.Path, 0, capHint(n))
	for i := 0; i < n; i++ {
		out = append(out, decodePath(d))
		if d.Err() != nil {
			return nil
		}
	}
	return out
}

func appendRef(b []byte, r routing.Ref) []byte {
	b = appendAddr(b, r.Addr)
	return appendPath(b, r.Path)
}

func decodeRef(d *wire.Decoder) routing.Ref {
	var r routing.Ref
	r.Addr = decodeAddr(d)
	r.Path = decodePath(d)
	return r
}

func appendRefLevels(b []byte, levels [][]routing.Ref) []byte {
	b = wire.AppendUvarint(b, uint64(len(levels)))
	for _, refs := range levels {
		b = wire.AppendUvarint(b, uint64(len(refs)))
		for _, r := range refs {
			b = appendRef(b, r)
		}
	}
	return b
}

func decodeRefLevels(d *wire.Decoder) [][]routing.Ref {
	n := d.Int()
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([][]routing.Ref, 0, capHint(n))
	for i := 0; i < n; i++ {
		m := d.Int()
		if d.Err() != nil {
			return nil
		}
		var refs []routing.Ref
		if m > 0 {
			refs = make([]routing.Ref, 0, capHint(m))
			for j := 0; j < m; j++ {
				refs = append(refs, decodeRef(d))
				if d.Err() != nil {
					return nil
				}
			}
		}
		out = append(out, refs)
	}
	return out
}

func appendBuckets(b []byte, buckets []replication.BucketDigest) []byte {
	b = wire.AppendUvarint(b, uint64(len(buckets)))
	for _, bd := range buckets {
		b = appendPath(b, bd.Prefix)
		b = wire.AppendFixed64(b, bd.Hash)
		b = wire.AppendVarint(b, int64(bd.Count))
	}
	return b
}

func decodeBuckets(d *wire.Decoder) []replication.BucketDigest {
	n := d.Int()
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]replication.BucketDigest, 0, capHint(n))
	for i := 0; i < n; i++ {
		var bd replication.BucketDigest
		bd.Prefix = decodePath(d)
		bd.Hash = d.Fixed64()
		bd.Count = int(d.Varint())
		if d.Err() != nil {
			return nil
		}
		out = append(out, bd)
	}
	return out
}

// --- construction messages --------------------------------------------------

// AppendWire implements wire.Marshaler.
func (r ExchangeRequest) AppendWire(b []byte) []byte {
	b = appendAddr(b, r.From)
	b = appendPath(b, r.Path)
	b = wire.AppendFixed64(b, math.Float64bits(r.Estimate))
	b = appendItems(b, r.Items)
	b = appendPath(b, r.RoutingPath)
	b = appendRefLevels(b, r.RoutingRefs)
	b = appendAddrs(b, r.Replicas)
	return wire.AppendBool(b, r.Done)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *ExchangeRequest) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.From = decodeAddr(d)
	r.Path = decodePath(d)
	r.Estimate = math.Float64frombits(d.Fixed64())
	r.Items = decodeItems(d)
	r.RoutingPath = decodePath(d)
	r.RoutingRefs = decodeRefLevels(d)
	r.Replicas = decodeAddrs(d)
	r.Done = d.Bool()
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r ExchangeResponse) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, string(r.Action))
	b = appendAddr(b, r.From)
	b = appendPath(b, r.ResponderPath)
	b = appendPath(b, r.NewPath)
	b = wire.AppendBool(b, r.NewPathSet)
	b = appendItems(b, r.Items)
	b = wire.AppendBool(b, r.TakenOver)
	b = wire.AppendUvarint(b, uint64(len(r.Refs)))
	for _, lr := range r.Refs {
		b = wire.AppendVarint(b, int64(lr.Level))
		b = appendRef(b, lr.Ref)
	}
	b = appendPath(b, r.RoutingPath)
	b = appendRefLevels(b, r.RoutingRefs)
	b = appendAddrs(b, r.Replicas)
	b = appendAddr(b, r.Referral)
	return wire.AppendBool(b, r.ResponderDone)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *ExchangeResponse) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.Action = Action(d.String())
	r.From = decodeAddr(d)
	r.ResponderPath = decodePath(d)
	r.NewPath = decodePath(d)
	r.NewPathSet = d.Bool()
	r.Items = decodeItems(d)
	r.TakenOver = d.Bool()
	if n := d.Int(); d.Err() == nil && n > 0 {
		r.Refs = make([]LevelRef, 0, capHint(n))
		for i := 0; i < n; i++ {
			var lr LevelRef
			lr.Level = int(d.Varint())
			lr.Ref = decodeRef(d)
			if d.Err() != nil {
				break
			}
			r.Refs = append(r.Refs, lr)
		}
	}
	r.RoutingPath = decodePath(d)
	r.RoutingRefs = decodeRefLevels(d)
	r.Replicas = decodeAddrs(d)
	r.Referral = decodeAddr(d)
	r.ResponderDone = d.Bool()
	return d.Finish()
}

// --- query messages ---------------------------------------------------------

// AppendWire implements wire.Marshaler.
func (r QueryRequest) AppendWire(b []byte) []byte {
	b = appendKey(b, r.Key)
	b = wire.AppendVarint(b, int64(r.Hops))
	b = wire.AppendVarint(b, int64(r.TTL))
	return wire.AppendBool(b, r.Bypass)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *QueryRequest) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.Key = decodeKey(d)
	r.Hops = int(d.Varint())
	r.TTL = int(d.Varint())
	r.Bypass = d.Bool()
	return d.Finish()
}

func appendQueryResponse(b []byte, r QueryResponse) []byte {
	b = wire.AppendBool(b, r.Found)
	b = appendItems(b, r.Items)
	b = wire.AppendVarint(b, int64(r.Hops))
	b = appendAddr(b, r.Responsible)
	b = appendPath(b, r.ResponsiblePath)
	b = wire.AppendUvarint(b, r.Clock)
	return wire.AppendBool(b, r.Cached)
}

func decodeQueryResponse(d *wire.Decoder) QueryResponse {
	var r QueryResponse
	r.Found = d.Bool()
	r.Items = decodeItems(d)
	r.Hops = int(d.Varint())
	r.Responsible = decodeAddr(d)
	r.ResponsiblePath = decodePath(d)
	r.Clock = d.Uvarint()
	r.Cached = d.Bool()
	return r
}

// AppendWire implements wire.Marshaler.
func (r QueryResponse) AppendWire(b []byte) []byte { return appendQueryResponse(b, r) }

// UnmarshalWire implements wire.Unmarshaler.
func (r *QueryResponse) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	*r = decodeQueryResponse(d)
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r BatchQueryRequest) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(r.Keys)))
	for _, k := range r.Keys {
		b = appendKey(b, k)
	}
	b = wire.AppendVarint(b, int64(r.Hops))
	return wire.AppendVarint(b, int64(r.TTL))
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *BatchQueryRequest) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	if n := d.Int(); d.Err() == nil && n > 0 {
		r.Keys = make([]keyspace.Key, 0, capHint(n))
		for i := 0; i < n; i++ {
			r.Keys = append(r.Keys, decodeKey(d))
			if d.Err() != nil {
				break
			}
		}
	}
	r.Hops = int(d.Varint())
	r.TTL = int(d.Varint())
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r BatchQueryResponse) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(r.Results)))
	for _, q := range r.Results {
		b = appendQueryResponse(b, q)
	}
	return b
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *BatchQueryResponse) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	if n := d.Int(); d.Err() == nil && n > 0 {
		r.Results = make([]QueryResponse, 0, capHint(n))
		for i := 0; i < n; i++ {
			r.Results = append(r.Results, decodeQueryResponse(d))
			if d.Err() != nil {
				break
			}
		}
	}
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r RangeRequest) AppendWire(b []byte) []byte {
	b = appendKey(b, r.Lo)
	b = appendKey(b, r.Hi)
	b = wire.AppendBool(b, r.HiUnbounded)
	b = wire.AppendVarint(b, int64(r.Hops))
	return wire.AppendVarint(b, int64(r.TTL))
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *RangeRequest) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.Lo = decodeKey(d)
	r.Hi = decodeKey(d)
	r.HiUnbounded = d.Bool()
	r.Hops = int(d.Varint())
	r.TTL = int(d.Varint())
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r RangeResponse) AppendWire(b []byte) []byte {
	b = appendItems(b, r.Items)
	b = wire.AppendVarint(b, int64(r.Hops))
	b = wire.AppendVarint(b, int64(r.Partitions))
	return wire.AppendBool(b, r.Incomplete)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *RangeResponse) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.Items = decodeItems(d)
	r.Hops = int(d.Varint())
	r.Partitions = int(d.Varint())
	r.Incomplete = d.Bool()
	return d.Finish()
}

// --- replication messages ---------------------------------------------------

// AppendWire implements wire.Marshaler.
func (r ReplicateRequest) AppendWire(b []byte) []byte {
	b = appendAddr(b, r.From)
	b = appendPath(b, r.Path)
	b = appendItems(b, r.Items)
	return appendAddrs(b, r.Replicas)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *ReplicateRequest) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.From = decodeAddr(d)
	r.Path = decodePath(d)
	r.Items = decodeItems(d)
	r.Replicas = decodeAddrs(d)
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r ReplicateResponse) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(r.Accepted))
	b = appendAddrs(b, r.Replicas)
	return appendPath(b, r.Path)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *ReplicateResponse) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.Accepted = int(d.Varint())
	r.Replicas = decodeAddrs(d)
	r.Path = decodePath(d)
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r PingRequest) AppendWire(b []byte) []byte { return appendAddr(b, r.From) }

// UnmarshalWire implements wire.Unmarshaler.
func (r *PingRequest) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.From = decodeAddr(d)
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r PingResponse) AppendWire(b []byte) []byte {
	b = appendPath(b, r.Path)
	return wire.AppendBool(b, r.Done)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *PingResponse) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.Path = decodePath(d)
	r.Done = d.Bool()
	return d.Finish()
}

// --- mutation messages ------------------------------------------------------

// AppendWire implements wire.Marshaler.
func (r InsertRequest) AppendWire(b []byte) []byte {
	b = appendItem(b, r.Item)
	b = wire.AppendUvarint(b, r.ID)
	b = wire.AppendVarint(b, int64(r.Hops))
	b = wire.AppendVarint(b, int64(r.TTL))
	return wire.AppendBool(b, r.Direct)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *InsertRequest) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.Item = decodeItem(d)
	r.ID = d.Uvarint()
	r.Hops = int(d.Varint())
	r.TTL = int(d.Varint())
	r.Direct = d.Bool()
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r DeleteRequest) AppendWire(b []byte) []byte {
	b = appendKey(b, r.Key)
	b = wire.AppendString(b, r.Value)
	b = wire.AppendUvarint(b, r.Gen)
	b = wire.AppendUvarint(b, r.ID)
	b = wire.AppendVarint(b, int64(r.Hops))
	b = wire.AppendVarint(b, int64(r.TTL))
	return wire.AppendBool(b, r.Direct)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *DeleteRequest) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.Key = decodeKey(d)
	r.Value = d.String()
	r.Gen = d.Uvarint()
	r.ID = d.Uvarint()
	r.Hops = int(d.Varint())
	r.TTL = int(d.Varint())
	r.Direct = d.Bool()
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r MutateResponse) AppendWire(b []byte) []byte {
	b = wire.AppendBool(b, r.Found)
	b = wire.AppendVarint(b, int64(r.Acks))
	b = wire.AppendVarint(b, int64(r.Replicas))
	b = wire.AppendUvarint(b, r.Gen)
	b = wire.AppendVarint(b, int64(r.Hops))
	b = appendAddr(b, r.Responsible)
	return appendPath(b, r.ResponsiblePath)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *MutateResponse) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.Found = d.Bool()
	r.Acks = int(d.Varint())
	r.Replicas = int(d.Varint())
	r.Gen = d.Uvarint()
	r.Hops = int(d.Varint())
	r.Responsible = decodeAddr(d)
	r.ResponsiblePath = decodePath(d)
	return d.Finish()
}

// --- anti-entropy messages --------------------------------------------------

// AppendWire implements wire.Marshaler.
func (r DigestRequest) AppendWire(b []byte) []byte {
	b = appendAddr(b, r.From)
	b = appendPath(b, r.Path)
	b = wire.AppendBool(b, r.Root)
	b = wire.AppendUvarint(b, r.Clock)
	b = wire.AppendUvarint(b, r.Since)
	b = appendBuckets(b, r.Buckets)
	return appendAddrs(b, r.Replicas)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *DigestRequest) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.From = decodeAddr(d)
	r.Path = decodePath(d)
	r.Root = d.Bool()
	r.Clock = d.Uvarint()
	r.Since = d.Uvarint()
	r.Buckets = decodeBuckets(d)
	r.Replicas = decodeAddrs(d)
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r DigestResponse) AppendWire(b []byte) []byte {
	b = appendPath(b, r.Path)
	b = wire.AppendUvarint(b, r.Clock)
	b = wire.AppendBool(b, r.InSync)
	b = wire.AppendBool(b, r.Incomparable)
	b = wire.AppendBool(b, r.DeltaOK)
	b = appendPaths(b, r.Mismatch)
	return appendAddrs(b, r.Replicas)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *DigestResponse) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.Path = decodePath(d)
	r.Clock = d.Uvarint()
	r.InSync = d.Bool()
	r.Incomparable = d.Bool()
	r.DeltaOK = d.Bool()
	r.Mismatch = decodePaths(d)
	r.Replicas = decodeAddrs(d)
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r DeltaRequest) AppendWire(b []byte) []byte {
	b = appendAddr(b, r.From)
	b = appendPath(b, r.Path)
	b = wire.AppendUvarint(b, r.Clock)
	b = wire.AppendUvarint(b, r.Since)
	b = appendPaths(b, r.Prefixes)
	b = wire.AppendBool(b, r.Full)
	b = wire.AppendBool(b, r.Rebuild)
	b = wire.AppendBool(b, r.Pull)
	b = appendItems(b, r.Items)
	b = appendItems(b, r.Tombstones)
	return appendAddrs(b, r.Replicas)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *DeltaRequest) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.From = decodeAddr(d)
	r.Path = decodePath(d)
	r.Clock = d.Uvarint()
	r.Since = d.Uvarint()
	r.Prefixes = decodePaths(d)
	r.Full = d.Bool()
	r.Rebuild = d.Bool()
	r.Pull = d.Bool()
	r.Items = decodeItems(d)
	r.Tombstones = decodeItems(d)
	r.Replicas = decodeAddrs(d)
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r DeltaResponse) AppendWire(b []byte) []byte {
	b = appendPath(b, r.Path)
	b = wire.AppendUvarint(b, r.Clock)
	b = wire.AppendBool(b, r.Incomparable)
	b = wire.AppendVarint(b, int64(r.Applied))
	b = appendItems(b, r.Items)
	b = appendItems(b, r.Tombstones)
	return appendAddrs(b, r.Replicas)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *DeltaResponse) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.Path = decodePath(d)
	r.Clock = d.Uvarint()
	r.Incomparable = d.Bool()
	r.Applied = int(d.Varint())
	r.Items = decodeItems(d)
	r.Tombstones = decodeItems(d)
	r.Replicas = decodeAddrs(d)
	return d.Finish()
}

// --- cache and tombstone-prune messages -------------------------------------

// AppendWire implements wire.Marshaler.
func (r ClockRequest) AppendWire(b []byte) []byte { return appendAddr(b, r.From) }

// UnmarshalWire implements wire.Unmarshaler.
func (r *ClockRequest) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.From = decodeAddr(d)
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r ClockResponse) AppendWire(b []byte) []byte {
	b = appendPath(b, r.Path)
	return wire.AppendUvarint(b, r.Clock)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *ClockResponse) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.Path = decodePath(d)
	r.Clock = d.Uvarint()
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r TombstonePruneRequest) AppendWire(b []byte) []byte {
	b = appendAddr(b, r.From)
	b = appendPath(b, r.Path)
	return appendItems(b, r.Pairs)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *TombstonePruneRequest) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.From = decodeAddr(d)
	r.Path = decodePath(d)
	r.Pairs = decodeItems(d)
	return d.Finish()
}

// AppendWire implements wire.Marshaler.
func (r TombstonePruneResponse) AppendWire(b []byte) []byte {
	return wire.AppendVarint(b, int64(r.Dropped))
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *TombstonePruneResponse) UnmarshalWire(data []byte) error {
	d := wire.NewDecoder(data)
	r.Dropped = int(d.Varint())
	return d.Finish()
}
