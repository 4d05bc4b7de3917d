package overlay

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/replication"
	"pgrid/internal/routing"
)

// wireSeedMessages returns the protocol's message seeds, used as fuzz seeds,
// by the round-trip tests and, for the first seed of each type, by
// TestGoldenWireVectors. Every first seed sets every field and fills every
// slice, so a field-order slip in any codec changes a golden vector; the
// nested cases ride along: an empty routing level, a negative LevelRef
// level, and 0-bit and 64-bit keys. Two item-carrying messages at the end
// are large enough to fragment under the fuzzers' 512-byte frame limit.
func wireSeedMessages() []any {
	key := keyspace.MustFromString("1011")
	key64, err := keyspace.FromBits(0xF00DFACEDEADBEEF, 64)
	if err != nil {
		panic(err)
	}
	item := replication.Item{Key: key, Value: "doc-1", Gen: 2}
	ref := func(a network.Addr, p keyspace.Path) routing.Ref { return routing.Ref{Addr: a, Path: p} }
	answer := QueryResponse{Found: true, Items: []replication.Item{item}, Hops: 2, Responsible: "peer-1",
		ResponsiblePath: "10", Clock: 19, Cached: true}
	return []any{
		QueryRequest{Key: key, Hops: 1, TTL: 7, Bypass: true},
		answer,
		BatchQueryRequest{Keys: []keyspace.Key{key, {}, key64}, Hops: 2, TTL: 3},
		BatchQueryResponse{Results: []QueryResponse{answer, {Found: true, Hops: 1}}},
		RangeRequest{Lo: key, Hi: key64, HiUnbounded: true, Hops: 1, TTL: 4},
		RangeResponse{Items: []replication.Item{item}, Hops: 3, Partitions: 2, Incomplete: true},
		ReplicateRequest{From: "peer-2", Path: "10", Items: []replication.Item{item}, Replicas: []network.Addr{"peer-2b"}},
		ReplicateResponse{Accepted: 1, Replicas: []network.Addr{"peer-2c"}, Path: "10"},
		InsertRequest{Item: item, ID: 0xABCDEF, Hops: 2, TTL: 9, Direct: true},
		DeleteRequest{Key: key, Value: "doc-1", Gen: 7, ID: 77, Hops: 3, TTL: 9, Direct: true},
		MutateResponse{Found: true, Acks: 3, Replicas: 4, Gen: 8, Hops: 2, Responsible: "peer-3", ResponsiblePath: "10"},
		PingRequest{From: "peer-4"},
		PingResponse{Path: "101", Done: true},
		ExchangeRequest{From: "peer-5", Path: "1", Estimate: 0.25, Items: []replication.Item{item}, RoutingPath: "10",
			RoutingRefs: [][]routing.Ref{{ref("peer-5a", "0")}, nil, {ref("peer-5b", "111"), ref("peer-5c", "110")}},
			Replicas:    []network.Addr{"peer-5d"}, Done: true, Withheld: true},
		ExchangeResponse{Action: ActionSplit, From: "peer-6", ResponderPath: "10", NewPath: "11", NewPathSet: true,
			Items: []replication.Item{item}, TakenOver: true,
			Refs:        []LevelRef{{Level: -1, Ref: ref("peer-6a", "0")}, {Level: 2, Ref: ref("peer-6b", "100")}},
			RoutingPath: "10", RoutingRefs: [][]routing.Ref{nil, {ref("peer-6c", "11")}},
			Replicas: []network.Addr{"peer-6d"}, Referral: "peer-6e", ResponderDone: true},
		DigestRequest{From: "peer-7", Path: "10", Root: true, Clock: 42, Since: 17,
			Buckets:  []replication.BucketDigest{{Prefix: "10", Hash: 0xFEEDFACECAFEBEEF, Count: 12}},
			Replicas: []network.Addr{"peer-7b"}},
		DigestResponse{Path: "10", Clock: 43, InSync: true, Incomparable: true, DeltaOK: true,
			Mismatch: []keyspace.Path{"100", "1011"}, Replicas: []network.Addr{"peer-7c"}},
		DeltaRequest{From: "peer-8", Path: "10", Clock: 44, Since: 17, Prefixes: []keyspace.Path{"100"},
			Full: true, Rebuild: true, Pull: true, Items: []replication.Item{item},
			Tombstones: []replication.Item{{Key: key, Value: "gone", Gen: 3}}, Replicas: []network.Addr{"peer-8b"}},
		DeltaResponse{Path: "10", Clock: 45, Incomparable: true, Applied: 2, Items: []replication.Item{item},
			Tombstones: []replication.Item{{Key: key64, Value: "gone", Gen: 4}}, Replicas: []network.Addr{"peer-9"}},
		ClockRequest{From: "peer-11"},
		ClockResponse{Path: "10", Clock: 46},
		TombstonePruneRequest{From: "peer-13", Path: "10", Pairs: []replication.Item{{Key: key, Value: "gone", Gen: 5}}},
		TombstonePruneResponse{Dropped: 1},
		RangeResponse{Items: manyItems(40), Hops: 3, Partitions: 4},
		DeltaResponse{Path: "10", Clock: 48, Items: manyItems(40), Tombstones: []replication.Item{{Key: key, Value: "gone", Gen: 6}}},
	}
}

// manyItems returns n distinct items of about 18 encoded bytes each, so 40
// of them overflow one 512-byte frame.
func manyItems(n int) []replication.Item {
	out := make([]replication.Item, n)
	for i := range out {
		out[i] = replication.Item{
			Key:   keyspace.MustFromFloat(float64(i)/float64(n), 16),
			Value: fmt.Sprintf("document-%03d", i),
			Gen:   uint64(i + 1),
		}
	}
	return out
}

// FuzzWireDecode pins the one-format rule from the decoder's side: a frame
// sequence whose first payload byte is not the binary magic (0xBF) never
// decodes. Its checked-in corpus is the frames of the retired JSON envelope,
// one per message; the in-code seeds are valid binary frames with only the
// magic byte replaced.
func FuzzWireDecode(f *testing.F) {
	for _, msg := range wireSeedMessages() {
		data, err := network.EncodeMessageBinary("fuzz-seed", msg, 0)
		if err != nil {
			f.Fatalf("encode seed %T: %v", msg, err)
		}
		data[4] = '{'
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, payload, err := network.DecodeMessageBinary(data)
		if err == nil && (len(data) < 5 || data[4] != 0xBF) {
			t.Fatalf("non-magic frame decoded to %T", payload)
		}
	})
}

// FuzzBinaryWireDecode throws arbitrary bytes at the binary frame decoder —
// envelope parsing, fragment reassembly and the struct-derived codecs —
// which is the exact path every incoming message takes on the pooled
// transport: it must never panic, and every message it does accept must
// re-encode to bytes that decode and re-encode to themselves.
//
// Run continuously with:
//
//	go test ./internal/overlay -run=^$ -fuzz=FuzzBinaryWireDecode -fuzztime=30s
func FuzzBinaryWireDecode(f *testing.F) {
	for _, msg := range wireSeedMessages() {
		data, err := network.EncodeMessageBinary("fuzz-seed", msg, 0)
		if err != nil {
			f.Fatalf("encode seed %T: %v", msg, err)
		}
		f.Add(data)
		// Under a 512-byte frame limit the large seeds split into several
		// frames, which seeds the reassembly path.
		if frag, err := network.EncodeMessageBinary("fuzz-seed", msg, 512); err == nil {
			f.Add(frag)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 2, 0xBF, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xBF})
	f.Fuzz(func(t *testing.T, data []byte) {
		from, payload, err := network.DecodeMessageBinary(data)
		if err != nil {
			return
		}
		enc, err := network.EncodeMessageBinary(from, payload, 0)
		if err != nil {
			t.Fatalf("decoded payload %T does not re-encode: %v", payload, err)
		}
		// The re-encoding is canonical: it decodes and re-encodes to itself.
		// Bytes are compared, not values, because an Estimate may be NaN.
		_, again, err := network.DecodeMessageBinary(enc)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", payload, err)
		}
		reenc, err := network.EncodeMessageBinary(from, again, 0)
		if err != nil {
			t.Fatalf("re-decoded %T does not re-encode: %v", payload, err)
		}
		if !bytes.Equal(enc, reenc) {
			t.Fatalf("%T is not a fixed point:\n first  %x\n second %x", payload, enc, reenc)
		}
	})
}

// FuzzMutationWireRoundTrip round-trips fuzzed Insert/Delete/Query messages
// through the wire codec and checks the fields survive bit-exactly — the
// property TCP deployments rely on for routed mutations.
func FuzzMutationWireRoundTrip(f *testing.F) {
	f.Add(uint64(0xDEADBEEF00000000), 32, "doc-7", 3, 61, false)
	f.Add(uint64(0), 0, "", 0, 0, true)
	f.Add(^uint64(0), 64, "v\x00w", -4, 1<<30, true)
	f.Fuzz(func(t *testing.T, bits uint64, klen int, value string, hops, ttl int, direct bool) {
		klen %= 65
		if klen < 0 {
			klen = -klen
		}
		key, err := keyspace.FromBits(bits, klen)
		if err != nil {
			t.Fatalf("FromBits(%v, %d): %v", bits, klen, err)
		}
		msgs := []any{
			InsertRequest{Item: replication.Item{Key: key, Value: value}, Hops: hops, TTL: ttl, Direct: direct},
			DeleteRequest{Key: key, Value: value, Hops: hops, TTL: ttl, Direct: direct},
			QueryRequest{Key: key, Hops: hops, TTL: ttl},
		}
		for _, msg := range msgs {
			data, err := network.EncodeMessageBinary("fuzzer", msg, 0)
			if err != nil {
				t.Fatalf("encode %T: %v", msg, err)
			}
			from, got, err := network.DecodeMessageBinary(data)
			if err != nil {
				t.Fatalf("decode %T: %v", msg, err)
			}
			if from != "fuzzer" {
				t.Fatalf("from = %q", from)
			}
			switch want := msg.(type) {
			case InsertRequest:
				if got != want {
					t.Fatalf("insert round trip: got %+v want %+v", got, want)
				}
			case DeleteRequest:
				if got != want {
					t.Fatalf("delete round trip: got %+v want %+v", got, want)
				}
			case QueryRequest:
				if got != want {
					t.Fatalf("query round trip: got %+v want %+v", got, want)
				}
			}
		}
	})
}

// TestRegenerateWireCorpus rewrites the checked-in seed corpus for
// FuzzBinaryWireDecode from wireSeedMessages, so the corpus tracks the
// message set. A type's second seed is written as seed-<type>-large. Files
// of unregistered types are left in place: the decoder must keep rejecting
// them. It only runs when PGRID_REGEN_CORPUS is set:
//
//	PGRID_REGEN_CORPUS=1 go test ./internal/overlay -run TestRegenerateWireCorpus
func TestRegenerateWireCorpus(t *testing.T) {
	if os.Getenv("PGRID_REGEN_CORPUS") == "" {
		t.Skip("set PGRID_REGEN_CORPUS=1 to rewrite " + corpusDir)
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, msg := range wireSeedMessages() {
		name := strings.ToLower(seedName(msg))
		if seen[name] {
			name += "-large"
		}
		seen[name] = true
		bin, err := network.EncodeMessageBinary("corpus", msg, 0)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", bin)
		if err := os.WriteFile(filepath.Join(corpusDir, "seed-"+name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if frag, err := network.EncodeMessageBinary("corpus", msg, 512); err == nil && !bytes.Equal(frag, bin) {
			content = fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frag)
			if err := os.WriteFile(filepath.Join(corpusDir, "seed-"+name+"-frag"), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWireCodecRoundTripsEveryMessage keeps the non-fuzz suite covering the
// frame codec for the full message set (the fuzzers extend this population):
// a decoded message re-encodes to the identical bytes.
func TestWireCodecRoundTripsEveryMessage(t *testing.T) {
	for _, msg := range wireSeedMessages() {
		data, err := network.EncodeMessageBinary("codec-test", msg, 0)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		_, payload, err := network.DecodeMessageBinary(data)
		if err != nil {
			t.Fatalf("decode %T: %v", msg, err)
		}
		reenc, err := network.EncodeMessageBinary("codec-test", payload, 0)
		if err != nil {
			t.Fatalf("re-encode %T: %v", msg, err)
		}
		if !bytes.Equal(data, reenc) {
			t.Errorf("codec not stable for %T", msg)
		}
	}
}
