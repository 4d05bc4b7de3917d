package overlay

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pgrid/internal/keyspace"
	"pgrid/internal/network"
	"pgrid/internal/wire"
)

// goldenPath is the checked-in file pinning the exact binary encoding of
// every protocol message. The field order of each message struct is the
// wire format: if this test fails, the encoding changed and deployed
// clusters would disagree — bump the protocol deliberately (and regenerate
// with PGRID_REGEN_GOLDEN=1) only when that is intended.
const goldenPath = "testdata/wire_golden.txt"

// seedName renders a stable per-message label for the golden file.
func seedName(msg any) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", msg), "overlay.")
}

// goldenSeeds returns the first seed of each message type: the golden file
// pins one vector per type.
func goldenSeeds() []any {
	seen := map[string]bool{}
	var out []any
	for _, msg := range wireSeedMessages() {
		if name := seedName(msg); !seen[name] {
			seen[name] = true
			out = append(out, msg)
		}
	}
	return out
}

// wireBody returns the hex of msg's wire body, by the codec the transport
// derives for its type.
func wireBody(t *testing.T, msg any) string {
	t.Helper()
	codec, err := wire.Compile(reflect.TypeOf(msg))
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(codec.Append(nil, msg))
}

func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open golden vectors (regenerate with PGRID_REGEN_GOLDEN=1): %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexBytes, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		out[name] = hexBytes
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenWireVectors pins the binary encoding of every registered
// protocol message byte for byte.
func TestGoldenWireVectors(t *testing.T) {
	if os.Getenv("PGRID_REGEN_GOLDEN") != "" {
		var b strings.Builder
		b.WriteString("# Golden binary wire vectors: <message type> <hex of its wire body>.\n")
		b.WriteString("# Regenerate with PGRID_REGEN_GOLDEN=1 go test ./internal/overlay -run TestGoldenWireVectors\n")
		for _, msg := range goldenSeeds() {
			fmt.Fprintf(&b, "%s %s\n", seedName(msg), wireBody(t, msg))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	golden := loadGolden(t)
	seen := map[string]bool{}
	for _, msg := range goldenSeeds() {
		name := seedName(msg)
		seen[name] = true
		got := wireBody(t, msg)
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s missing from golden vectors (regenerate with PGRID_REGEN_GOLDEN=1)", name)
			continue
		}
		if got != want {
			t.Errorf("%s wire encoding changed:\n got  %s\n want %s", name, got, want)
		}
	}
	for name := range golden {
		if !seen[name] {
			t.Errorf("golden vector %s has no seed message", name)
		}
	}
}

// TestWireSeedsSetEveryField keeps the golden vectors meaningful: the
// first seed of each message sets every field and fills every slice, so a
// field-order slip in the codec changes a pinned byte.
func TestWireSeedsSetEveryField(t *testing.T) {
	for _, msg := range goldenSeeds() {
		v := reflect.ValueOf(msg)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.IsZero() || (f.Kind() == reflect.Slice && f.Len() == 0) {
				t.Errorf("%s seed leaves %s empty", seedName(msg), v.Type().Field(i).Name)
			}
		}
	}
}

// corpusDir is FuzzBinaryWireDecode's checked-in seed corpus.
const corpusDir = "testdata/fuzz/FuzzBinaryWireDecode"

// wireChecklist returns one line per leg a registered message lacks beyond
// its codec (RegisterType panics without one): a seed in wireSeedMessages,
// from which the round-trip tests, the fuzzers and TestGoldenWireVectors
// start, and a file in the fuzz corpus. TestGoldenWireVectors then
// requires a golden vector for every seed and a seed for every vector.
func wireChecklist(registered, seeds []any, corpus string) []string {
	seeded := make(map[string]bool, len(seeds))
	for _, msg := range seeds {
		seeded[seedName(msg)] = true
	}
	var gaps []string
	for _, sample := range registered {
		name := seedName(sample)
		if !seeded[name] {
			gaps = append(gaps, name+" has no seed in wireSeedMessages")
		}
		seed := filepath.Join(corpus, "seed-"+strings.ToLower(name))
		if _, err := os.Stat(seed); err != nil {
			gaps = append(gaps, fmt.Sprintf("%s has no fuzz corpus seed %s; regenerate with PGRID_REGEN_CORPUS=1 go test ./internal/overlay -run TestRegenerateWireCorpus", name, seed))
		}
	}
	return gaps
}

// registeredSamples returns the sample value of every registered message.
func registeredSamples() []any {
	out := make([]any, len(wireMessages))
	for i, m := range wireMessages {
		out[i] = m.sample
	}
	return out
}

// TestWireMessageChecklist holds every registered wire message to the legs
// wireChecklist names.
func TestWireMessageChecklist(t *testing.T) {
	for _, gap := range wireChecklist(registeredSamples(), wireSeedMessages(), corpusDir) {
		t.Error(gap)
	}
}

// TestWireMessageChecklistNamesMissingLeg hands the checklist one extra
// message with neither a seed nor a corpus file: it must name both gaps.
func TestWireMessageChecklistNamesMissingLeg(t *testing.T) {
	type OrphanMsg struct{}
	gaps := wireChecklist(append(registeredSamples(), OrphanMsg{}), wireSeedMessages(), corpusDir)
	want := []string{
		"OrphanMsg has no seed in wireSeedMessages",
		"OrphanMsg has no fuzz corpus seed " + corpusDir + "/seed-orphanmsg",
	}
	if len(gaps) != len(want) {
		t.Fatalf("checklist reports %d gaps, want %d:\n%s", len(gaps), len(want), strings.Join(gaps, "\n"))
	}
	for i, w := range want {
		if !strings.HasPrefix(gaps[i], w) {
			t.Errorf("gap %d = %q, want prefix %q", i, gaps[i], w)
		}
	}
}

// TestEveryMessageHasBinaryCodec keeps the seed list honest: every message
// it names is registered, so the transport carries it.
func TestEveryMessageHasBinaryCodec(t *testing.T) {
	for _, msg := range wireSeedMessages() {
		if network.MessageSize(msg) == 0 {
			t.Errorf("%T is not registered", msg)
		}
	}
}

// TestBinaryWireRoundTripsEveryMessage round-trips every protocol message
// through the full binary frame codec (envelope, fragmentation layer,
// typed body) and requires bit-exact field recovery.
func TestBinaryWireRoundTripsEveryMessage(t *testing.T) {
	for _, msg := range wireSeedMessages() {
		data, err := network.EncodeMessageBinary("codec-test", msg, 0)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		from, payload, err := network.DecodeMessageBinary(data)
		if err != nil {
			t.Fatalf("decode %T: %v", msg, err)
		}
		if from != "codec-test" {
			t.Errorf("%T: from = %q", msg, from)
		}
		if !reflect.DeepEqual(payload, msg) {
			t.Errorf("%T: binary round trip mismatch:\n got  %+v\n want %+v", msg, payload, msg)
		}
		// A fragmented encoding must reassemble to the same value.
		frag, err := network.EncodeMessageBinary("codec-test", msg, 512)
		if err != nil {
			t.Fatalf("fragment %T: %v", msg, err)
		}
		_, payload, err = network.DecodeMessageBinary(frag)
		if err != nil {
			t.Fatalf("decode fragmented %T: %v", msg, err)
		}
		if !reflect.DeepEqual(payload, msg) {
			t.Errorf("%T: fragmented round trip mismatch", msg)
		}
	}
}

// TestBinaryDecodeRejectsCorruptKeys checks the key decoder's domain
// validation: a QueryRequest whose key has a length beyond 64 bits or
// non-canonical spare bits must be rejected, never panic or mis-decode.
func TestBinaryDecodeRejectsCorruptKeys(t *testing.T) {
	codec, err := wire.Compile(reflect.TypeOf(QueryRequest{}))
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		wire.AppendUvarint(wire.AppendUvarint(nil, 65), 0),    // length 65
		wire.AppendUvarint(wire.AppendUvarint(nil, 2), 0b101), // 3 bits under length 2
		wire.AppendUvarint(wire.AppendUvarint(nil, 0), 1),     // bits under length 0
	}
	for i, key := range cases {
		body := append(key, 0, 0, 0) // Hops, TTL, Bypass
		if v, err := codec.Decode(body); err == nil {
			t.Errorf("case %d: corrupt key accepted as %+v", i, v)
		}
	}
}

// TestKeyCodecExhaustiveLengths round-trips keys of every length through
// the transport's frame codec.
func TestKeyCodecExhaustiveLengths(t *testing.T) {
	for length := 0; length <= 64; length++ {
		k, err := keyspace.FromBits(0xA5A5A5A5A5A5A5A5, length)
		if err != nil {
			t.Fatal(err)
		}
		data, err := network.EncodeMessageBinary("codec-test", QueryRequest{Key: k}, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := network.DecodeMessageBinary(data)
		if err != nil {
			t.Fatalf("len %d: %v", length, err)
		}
		if got := got.(QueryRequest).Key; !got.Equal(k) {
			t.Errorf("len %d: round trip %v != %v", length, got, k)
		}
	}
}

// Allocation ceilings of one EncodeMessageBinary + DecodeMessageBinary
// round trip of the golden seed of each message on the query, mutation and
// cache-probe paths. They may only go down.
const (
	queryRequestCodecAllocs   = 11
	queryResponseCodecAllocs  = 18
	insertRequestCodecAllocs  = 14
	mutateResponseCodecAllocs = 15
	clockRequestCodecAllocs   = 12
	clockResponseCodecAllocs  = 12
)

// TestWireCodecAllocCeiling holds the frame codec of the hot-path messages
// to their allocation ceilings.
func TestWireCodecAllocCeiling(t *testing.T) {
	ceilings := map[string]int{
		"QueryRequest":   queryRequestCodecAllocs,
		"QueryResponse":  queryResponseCodecAllocs,
		"InsertRequest":  insertRequestCodecAllocs,
		"MutateResponse": mutateResponseCodecAllocs,
		"ClockRequest":   clockRequestCodecAllocs,
		"ClockResponse":  clockResponseCodecAllocs,
	}
	for _, msg := range goldenSeeds() {
		ceiling, ok := ceilings[seedName(msg)]
		if !ok {
			continue
		}
		delete(ceilings, seedName(msg))
		got := testing.AllocsPerRun(200, func() {
			data, err := network.EncodeMessageBinary("peer-0", msg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := network.DecodeMessageBinary(data); err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(ceiling) {
			t.Errorf("%s codec round trip allocates %.1f times, ceiling %d", seedName(msg), got, ceiling)
		}
	}
	for name := range ceilings {
		t.Errorf("no golden seed for %s", name)
	}
}
