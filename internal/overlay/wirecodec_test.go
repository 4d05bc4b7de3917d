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
// every protocol message. The field order inside each codec is the wire
// format: if this test fails, the encoding changed and deployed clusters
// would disagree — bump the protocol deliberately (and regenerate with
// PGRID_REGEN_GOLDEN=1) only when that is intended.
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
		b.WriteString("# Golden binary wire vectors: <message type> <hex of AppendWire(nil)>.\n")
		b.WriteString("# Regenerate with PGRID_REGEN_GOLDEN=1 go test ./internal/overlay -run TestGoldenWireVectors\n")
		for _, msg := range goldenSeeds() {
			m, ok := msg.(wire.Marshaler)
			if !ok {
				t.Fatalf("%T does not implement wire.Marshaler", msg)
			}
			fmt.Fprintf(&b, "%s %s\n", seedName(msg), hex.EncodeToString(m.AppendWire(nil)))
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
		m, ok := msg.(wire.Marshaler)
		if !ok {
			t.Errorf("%s does not implement wire.Marshaler", name)
			continue
		}
		got := hex.EncodeToString(m.AppendWire(nil))
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
// it names carries the wire codec RegisterType requires.
func TestEveryMessageHasBinaryCodec(t *testing.T) {
	for _, msg := range wireSeedMessages() {
		if _, ok := msg.(wire.Marshaler); !ok {
			t.Errorf("%T lacks AppendWire", msg)
		}
		ptr := reflect.New(reflect.TypeOf(msg)).Interface()
		if _, ok := ptr.(wire.Unmarshaler); !ok {
			t.Errorf("*%T lacks UnmarshalWire", msg)
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
// validation: a length beyond 64 bits or non-canonical spare bits must be
// rejected, never panic or mis-decode.
func TestBinaryDecodeRejectsCorruptKeys(t *testing.T) {
	cases := [][]byte{
		wire.AppendUvarint(wire.AppendUvarint(nil, 65), 0),    // length 65
		wire.AppendUvarint(wire.AppendUvarint(nil, 2), 0b101), // 3 bits under length 2
		wire.AppendUvarint(wire.AppendUvarint(nil, 0), 1),     // bits under length 0
	}
	for i, data := range cases {
		d := wire.NewDecoder(data)
		decodeKey(d)
		if d.Err() == nil {
			t.Errorf("case %d: corrupt key accepted", i)
		}
	}
}

// TestKeyCodecExhaustiveLengths round-trips keys of every length through
// the compact encoding.
func TestKeyCodecExhaustiveLengths(t *testing.T) {
	for length := 0; length <= 64; length++ {
		bits := uint64(0xA5A5A5A5A5A5A5A5)
		k, err := keyspace.FromBits(bits, length)
		if err != nil {
			t.Fatal(err)
		}
		d := wire.NewDecoder(appendKey(nil, k))
		got := decodeKey(d)
		if err := d.Finish(); err != nil {
			t.Fatalf("len %d: %v", length, err)
		}
		if !got.Equal(k) {
			t.Errorf("len %d: round trip %v != %v", length, got, k)
		}
	}
}
