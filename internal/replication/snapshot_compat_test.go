package replication

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pgrid/internal/keyspace"
)

// writeRetiredJSONSnapshot drops a snap-<seq>.json file, the version-1
// snapshot format this code no longer reads, into dir.
func writeRetiredJSONSnapshot(t *testing.T, dir string, seq uint64) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("snap-%016d.json", seq))
	doc := fmt.Sprintf(`{"version":1,"seq":%d,"clock":41,"items":[{"k":"0010","v":"alpha","m":11}]}`, seq)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeTestSnapshot writes a binary snapshot at seq holding the single pair
// ("01", value).
func writeTestSnapshot(t *testing.T, dir string, seq uint64, value string) {
	t.Helper()
	st := &snapshotState{Seq: seq, Clock: 9, Items: []snapItem{{K: "01", V: value, Ver: 9}}}
	if err := writeSnapshot(dir, st, nil); err != nil {
		t.Fatal(err)
	}
}

// corruptFile flips one byte in the middle of a file.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyJSONSnapshotRefused pins the safety rule for the retired JSON
// snapshot format: the WAL segments a snapshot covers are deleted when it is
// written, so a data directory whose newest state lives in a snap-<seq>.json
// that no readable binary snapshot supersedes must fail to open — skipping
// the file would replay only the WAL tail and silently lose its content.
func TestLegacyJSONSnapshotRefused(t *testing.T) {
	for name, setup := range map[string]func(*testing.T, string){
		"json only":    func(*testing.T, string) {},
		"older binary": func(t *testing.T, dir string) { writeTestSnapshot(t, dir, 2, "bin") },
		"corrupt newer binary": func(t *testing.T, dir string) {
			writeTestSnapshot(t, dir, 4, "bin")
			corruptFile(t, filepath.Join(dir, snapshotName(4)))
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			jsonPath := writeRetiredJSONSnapshot(t, dir, 3)
			setup(t, dir)
			s, err := OpenStore(dir, PersistOptions{})
			if err == nil {
				s.Close()
				t.Fatal("store opened over an uncovered JSON snapshot; its content would be lost")
			}
			for _, want := range []string{jsonPath, "reopen once with the previous version and checkpoint"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestLegacyJSONSnapshotBelowBinaryIgnored is the other half of the rule: a
// .json file at or below a readable binary snapshot is superseded, so the
// store opens from the binary one, and checkpoints leave the file alone.
func TestLegacyJSONSnapshotBelowBinaryIgnored(t *testing.T) {
	for _, binSeq := range []uint64{3, 5} {
		dir := t.TempDir()
		jsonPath := writeRetiredJSONSnapshot(t, dir, 3)
		writeTestSnapshot(t, dir, binSeq, "bin")
		s, err := OpenStore(dir, PersistOptions{SyncAlways: true})
		if err != nil {
			t.Fatalf("binary snapshot at seq %d over a JSON one at 3: %v", binSeq, err)
		}
		if got := s.Lookup(keyspace.MustFromString("01")); len(got) != 1 || got[0].Value != "bin" {
			t.Errorf("seq %d: recovered %v, want the binary snapshot's state", binSeq, got)
		}
		if got := s.Lookup(keyspace.MustFromString("0010")); len(got) != 0 {
			t.Errorf("seq %d: the JSON snapshot's content was loaded: %v", binSeq, got)
		}
		s.Insert(Item{Key: keyspace.MustFromString("1100"), Value: "later"})
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(jsonPath); err != nil {
			t.Errorf("seq %d: checkpoint removed the ignored JSON file: %v", binSeq, err)
		}
	}
}

// TestBinarySnapshotCorruptionSkipped checks the recovery ladder: a snapshot
// with a flipped byte fails its CRC and recovery falls back to an older one
// instead of failing or loading garbage.
func TestBinarySnapshotCorruptionSkipped(t *testing.T) {
	dir := t.TempDir()
	writeTestSnapshot(t, dir, 1, "old")
	writeTestSnapshot(t, dir, 2, "new")
	corruptFile(t, filepath.Join(dir, snapshotName(2)))

	s, err := OpenStore(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("open with corrupt newest snapshot: %v", err)
	}
	defer s.Close()
	if got := s.Lookup(keyspace.MustFromString("01")); len(got) != 1 || got[0].Value != "old" {
		t.Errorf("fallback recovery = %v, want the older snapshot's state", got)
	}
}

// TestBinarySnapshotRoundTrip exercises the streamed codec directly over a
// state with every record kind present.
func TestBinarySnapshotRoundTrip(t *testing.T) {
	now := time.Now().UnixNano()
	st := &snapshotState{
		Seq:     9,
		Clock:   100,
		GCFloor: 50,
		Items:   []snapItem{{K: "", V: "rootval", Gen: 1, Ver: 2}, {K: "110011", V: "", Ver: 3}},
		Tombs:   []snapTomb{{K: "1", V: "t", Gen: 4, Born: 5, At: now, Ver: 6}, {K: "0", V: "u", At: -now}},
		Baselines: map[string]Baseline{
			"a": {Mine: 1, Theirs: 2},
			"b": {Mine: 3},
		},
		Meta: map[string]string{"k1": "v1", "k2": ""},
	}
	dir := t.TempDir()
	if err := writeSnapshot(dir, st, nil); err != nil {
		t.Fatal(err)
	}
	got, ok, err := loadLatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.Seq != 9 || got.Clock != 100 || got.GCFloor != 50 {
		t.Errorf("header = %+v", got)
	}
	if len(got.Items) != 2 || got.Items[0] != st.Items[0] || got.Items[1] != st.Items[1] {
		t.Errorf("items = %+v", got.Items)
	}
	if len(got.Tombs) != 2 || got.Tombs[0] != st.Tombs[0] || got.Tombs[1] != st.Tombs[1] {
		t.Errorf("tombs = %+v", got.Tombs)
	}
	if len(got.Baselines) != 2 || got.Baselines["a"] != st.Baselines["a"] || got.Baselines["b"] != st.Baselines["b"] {
		t.Errorf("baselines = %+v", got.Baselines)
	}
	if len(got.Meta) != 2 || got.Meta["k1"] != "v1" || got.Meta["k2"] != "" {
		t.Errorf("meta = %+v", got.Meta)
	}
}
