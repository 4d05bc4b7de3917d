package replication

// Engine conformance suite: the storage engine must satisfy the same
// observable contract under both residency policies, both at the raw
// engine level (ordering, isNew semantics, early-stop scans) and through a
// Store (generation ordering, delete-wins-ties, GC floor, digest
// equivalence, crash recovery). The random-ops equivalence tests pit a
// disk-policy store against a resident shadow and require identical
// observable state, so any divergence between the direct memtable walk and
// the merged segment view surfaces as a concrete failing step.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pgrid/internal/keyspace"
)

// conformanceEngines returns a constructor per engine kind: a resident
// engine without a directory, and a disk-policy engine rooted in a
// per-test temp dir and closed by the test cleanup.
func conformanceEngines() map[string]func(t *testing.T) *engine {
	return map[string]func(t *testing.T) *engine{
		EngineMem: func(t *testing.T) *engine { return newEngine(true) },
		EngineDisk: func(t *testing.T) *engine {
			eng, err := openEngine(t.TempDir(), nil, 0, false)
			if err != nil {
				t.Fatalf("open disk engine: %v", err)
			}
			t.Cleanup(func() { eng.Close() })
			return eng
		},
	}
}

// flushEngine runs a checkpoint's engine half: freeze, then flush, the
// wait for its segments and the commit that follows the durable snapshot.
// It returns the manifest.
func flushEngine(t *testing.T, eng *engine) []string {
	t.Helper()
	f, err := eng.flush(eng.freeze())
	if err == nil && f.wait != nil {
		err = f.wait()
	}
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	f.commit(true)
	return f.manifest
}

func TestEngineConformanceBasic(t *testing.T) {
	for kind, mk := range conformanceEngines() {
		t.Run(kind, func(t *testing.T) {
			eng := mk(t)
			if _, ok := eng.Get("01", "a"); ok {
				t.Error("empty engine should miss")
			}
			eng.Put(PairRecord{Key: "01", Value: "a", Gen: 1, Ver: 10}, true)
			eng.Put(PairRecord{Key: "01", Value: "b", Gen: 0, Ver: 11}, true)
			eng.Put(PairRecord{Key: "10", Value: "c", Gen: 2, Ver: 12}, true)
			if eng.Len() != 3 {
				t.Errorf("len = %d, want 3", eng.Len())
			}
			rec, ok := eng.Get("01", "a")
			if !ok || rec.Gen != 1 || rec.Ver != 10 {
				t.Errorf("get = %+v ok=%v", rec, ok)
			}
			// Overwrite with isNew=false must not grow the count.
			eng.Put(PairRecord{Key: "01", Value: "a", Gen: 5, Ver: 20}, false)
			if eng.Len() != 3 {
				t.Errorf("len after overwrite = %d, want 3", eng.Len())
			}
			if rec, _ := eng.Get("01", "a"); rec.Gen != 5 || rec.Ver != 20 {
				t.Errorf("overwritten rec = %+v", rec)
			}
			removed, ok := eng.Delete("01", "a")
			if !ok || removed.Gen != 5 {
				t.Errorf("delete = %+v ok=%v", removed, ok)
			}
			if _, ok := eng.Get("01", "a"); ok {
				t.Error("deleted pair should miss")
			}
			if _, ok := eng.Delete("01", "a"); ok {
				t.Error("double delete should miss")
			}
			if eng.Len() != 2 {
				t.Errorf("len after delete = %d, want 2", eng.Len())
			}
		})
	}
}

func TestEngineConformanceScanOrder(t *testing.T) {
	for kind, mk := range conformanceEngines() {
		t.Run(kind, func(t *testing.T) {
			eng := mk(t)
			rng := rand.New(rand.NewSource(7))
			type pair struct{ k, v string }
			var pairs []pair
			seen := map[pair]bool{}
			for i := 0; i < 200; i++ {
				p := pair{
					k: fmt.Sprintf("%06b", rng.Intn(64))[:1+rng.Intn(6)],
					v: fmt.Sprintf("v%d", rng.Intn(8)),
				}
				if seen[p] {
					continue
				}
				seen[p] = true
				pairs = append(pairs, p)
				eng.Put(PairRecord{Key: p.k, Value: p.v, Ver: uint64(i)}, true)
			}
			var got []PairRecord
			eng.ScanPrefix("", "", func(r PairRecord) bool {
				got = append(got, r)
				return true
			})
			if len(got) != len(pairs) {
				t.Fatalf("scan yielded %d records, want %d", len(got), len(pairs))
			}
			for i := 1; i < len(got); i++ {
				if !pairLess(got[i-1].Key, got[i-1].Value, got[i].Key, got[i].Value) {
					t.Fatalf("scan out of order at %d: (%q,%q) !< (%q,%q)",
						i, got[i-1].Key, got[i-1].Value, got[i].Key, got[i].Value)
				}
			}
			// Prefix restriction and early stop.
			var under []PairRecord
			eng.ScanPrefix("01", "", func(r PairRecord) bool {
				under = append(under, r)
				return true
			})
			want := 0
			for _, p := range pairs {
				if hasPrefix(p.k, "01") {
					want++
				}
			}
			if len(under) != want {
				t.Errorf("prefix scan yielded %d, want %d", len(under), want)
			}
			for _, r := range under {
				if !hasPrefix(r.Key, "01") {
					t.Errorf("prefix scan leaked key %q", r.Key)
				}
			}
			steps := 0
			eng.ScanPrefix("", "", func(PairRecord) bool {
				steps++
				return steps < 5
			})
			if steps != 5 {
				t.Errorf("early stop took %d steps, want 5", steps)
			}
			// ScanKey yields exactly the one key's records, no extensions.
			eng.Put(PairRecord{Key: "0110", Value: "x"}, true)
			eng.Put(PairRecord{Key: "01101", Value: "y"}, true)
			var exact []PairRecord
			eng.ScanKey("0110", func(r PairRecord) bool {
				exact = append(exact, r)
				return true
			})
			for _, r := range exact {
				if r.Key != "0110" {
					t.Errorf("ScanKey leaked key %q", r.Key)
				}
			}
		})
	}
}

// TestEngineDiskSegmentsMergedView drives the disk engine through explicit
// freeze/flush cycles — the states a Store checkpoint produces — and checks
// the merged memtable+segment view against a flat shadow map, including
// deletes that must shadow older segment records and the compaction that
// folds everything back into one segment.
func TestEngineDiskSegmentsMergedView(t *testing.T) {
	dir := t.TempDir()
	eng, err := openEngine(dir, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	type pair struct{ k, v string }
	shadow := map[pair]PairRecord{}
	rng := rand.New(rand.NewSource(11))
	manifest := []string(nil)
	for round := 0; round < 8; round++ {
		for i := 0; i < 120; i++ {
			p := pair{
				k: fmt.Sprintf("%08b", rng.Intn(256))[:2+rng.Intn(7)],
				v: fmt.Sprintf("v%d", rng.Intn(4)),
			}
			switch rng.Intn(4) {
			case 0:
				if _, ok := shadow[p]; ok {
					delete(shadow, p)
					eng.Delete(p.k, p.v)
				}
			default:
				rec := PairRecord{Key: p.k, Value: p.v, Gen: uint64(rng.Intn(4)), Ver: uint64(round*1000 + i)}
				_, had := shadow[p]
				shadow[p] = rec
				eng.Put(rec, !had)
			}
		}
		// Simulate the checkpoint boundary: freeze the memtable and flush it
		// to a segment (compacting past the threshold).
		manifest = flushEngine(t, eng)

		if eng.Len() != len(shadow) {
			t.Fatalf("round %d: len = %d, want %d", round, eng.Len(), len(shadow))
		}
		got := map[pair]PairRecord{}
		eng.ScanPrefix("", "", func(r PairRecord) bool {
			got[pair{r.Key, r.Value}] = r
			return true
		})
		if len(got) != len(shadow) {
			t.Fatalf("round %d: scan yielded %d, want %d", round, len(got), len(shadow))
		}
		for p, want := range shadow {
			if g, ok := got[p]; !ok || g != want {
				t.Fatalf("round %d: pair %v = %+v, want %+v", round, p, g, want)
			}
		}
	}
	if n := eng.segmentCount(); n > diskCompactThreshold+1 {
		t.Errorf("segments never compacted: %d live", n)
	}
	if len(manifest) == 0 {
		t.Error("flush reported empty manifest despite live pairs")
	}
	// Point reads resolve through the merged view too.
	for p, want := range shadow {
		if g, ok := eng.Get(p.k, p.v); !ok || g != want {
			t.Fatalf("get %v = %+v ok=%v, want %+v", p, g, ok, want)
		}
	}
}

// storeKinds are the engine kinds every Store-level conformance test runs
// against.
var storeKinds = []string{EngineMem, EngineDisk}

// newTestStoreKind builds an ephemeral store on the kind and ties its
// cleanup to the test.
func newTestStoreKind(t *testing.T, kind string) *Store {
	t.Helper()
	s, err := NewStoreKind(kind)
	if err != nil {
		t.Fatalf("new %s store: %v", kind, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreConformanceGenerationOrdering(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind, func(t *testing.T) {
			s := newTestStoreKind(t, kind)
			k := keyspace.MustFromString("0101")
			s.Add(Item{Key: k, Value: "doc", Gen: 3})
			// An older tombstone loses to the newer live generation.
			s.AddTombstones([]Item{{Key: k, Value: "doc", Gen: 2}})
			if !s.Live(k, "doc") {
				t.Fatal("older tombstone must not kill newer live pair")
			}
			// A tombstone of the same generation wins the tie (deletes win).
			s.AddTombstones([]Item{{Key: k, Value: "doc", Gen: 3}})
			if s.Live(k, "doc") {
				t.Fatal("same-generation tombstone must win the tie")
			}
			if !s.Deleted(k, "doc") {
				t.Fatal("pair should be tombstoned")
			}
			// A strictly newer live write resurrects it.
			s.Add(Item{Key: k, Value: "doc", Gen: 4})
			if !s.Live(k, "doc") {
				t.Fatal("newer live generation must beat the tombstone")
			}
		})
	}
}

func TestStoreConformanceGCFloor(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind, func(t *testing.T) {
			s := newTestStoreKind(t, kind)
			s.SetGCPolicy(GCPolicy{MinVersions: 2})
			k := keyspace.MustFromString("01")
			s.Add(Item{Key: k, Value: "a"})
			s.Delete(k, "a")
			for i := 0; i < 8; i++ {
				s.Add(Item{Key: testKey(i), Value: "pad"})
			}
			if n := s.CompactTombstones(); n != 1 {
				t.Fatalf("pruned %d tombstones, want 1", n)
			}
			if s.GCFloor() == 0 {
				t.Fatal("GC floor should have advanced")
			}
			// Deltas from before the floor are unanswerable: the pruned
			// tombstone can no longer be shipped.
			if _, _, ok := s.DeltaSince(s.GCFloor() - 1); ok {
				t.Error("delta below the GC floor must be refused")
			}
			if _, _, ok := s.DeltaSince(s.Clock()); !ok {
				t.Error("delta at the clock must succeed")
			}
		})
	}
}

// TestStoreEngineEquivalenceRandomOps drives a disk-engine store and a
// mem-engine shadow through the same random mutation sequence and requires
// identical observable state — items, tombstones, digests, deltas and
// clocks — throughout. This is the cross-engine byte-compatibility property
// the anti-entropy protocol depends on.
func TestStoreEngineEquivalenceRandomOps(t *testing.T) {
	const seed = 20260808
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)

	s := newTestStoreKind(t, EngineDisk)
	shadow := newTestStoreKind(t, EngineMem)
	s.SetGCPolicy(GCPolicy{MinVersions: 8})
	shadow.SetGCPolicy(GCPolicy{MinVersions: 8})

	values := []string{"a", "b", "c"}
	paths := []keyspace.Path{"0", "1", "01", "10"}
	for step := 0; step < 600; step++ {
		k := testKey(rng.Intn(16))
		v := values[rng.Intn(len(values))]
		switch op := rng.Intn(20); {
		case op < 8:
			it := Item{Key: k, Value: v}
			s.Insert(it)
			shadow.Insert(it)
		case op < 11:
			it := Item{Key: k, Value: v, Gen: uint64(rng.Intn(5))}
			s.Add(it)
			shadow.Add(it)
		case op < 14:
			s.Delete(k, v)
			shadow.Delete(k, v)
		case op < 16:
			it := Item{Key: k, Value: v, Gen: uint64(rng.Intn(8))}
			s.AddTombstones([]Item{it})
			shadow.AddTombstones([]Item{it})
		case op < 17:
			s.CompactTombstones()
			shadow.CompactTombstones()
		case op < 18:
			p := paths[rng.Intn(len(paths))]
			s.RemovePrefix(p)
			shadow.RemovePrefix(p)
		case op < 19:
			p := paths[rng.Intn(len(paths))]
			items := []Item{{Key: k, Value: v, Gen: uint64(rng.Intn(4))}}
			tombs := []Item{{Key: testKey(rng.Intn(16)), Value: v, Gen: uint64(rng.Intn(6))}}
			s.ReplaceWithin(p, items, tombs)
			shadow.ReplaceWithin(p, items, tombs)
		default:
			p := paths[rng.Intn(len(paths))]
			s.RetainPrefix(p)
			shadow.RetainPrefix(p)
		}
		if step%97 == 0 {
			assertSameState(t, s, shadow)
			if t.Failed() {
				t.Fatalf("diverged at step %d", step)
			}
		}
	}
	assertSameState(t, s, shadow)
}

// TestStoreDiskEngineCrashReopen is the persistent variant: a durable
// disk-engine store mutated, checkpointed (creating real segments) and
// crash-reopened at random points must always recover to the mem shadow's
// state — covering segment adoption via the snapshot manifest, WAL tail
// replay on top of segments, and external-snapshot digest installation.
func TestStoreDiskEngineCrashReopen(t *testing.T) {
	const seed = 20260809
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)

	dir := t.TempDir()
	opts := PersistOptions{SyncAlways: true, SnapshotThreshold: 64, Engine: EngineDisk}
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	shadow := NewStore()

	values := []string{"a", "b", "c"}
	for step := 0; step < 400; step++ {
		k := testKey(rng.Intn(16))
		v := values[rng.Intn(len(values))]
		switch op := rng.Intn(10); {
		case op < 6:
			it := Item{Key: k, Value: v}
			s.Insert(it)
			shadow.Insert(it)
		case op < 8:
			s.Delete(k, v)
			shadow.Delete(k, v)
		default:
			id := rng.Uint64() | 1
			s.MarkMutation(id)
			shadow.MarkMutation(id)
		}
		if rng.Intn(40) == 0 {
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("step %d: checkpoint: %v", step, err)
			}
		}
		if rng.Intn(50) == 0 {
			// Crash: abandon without Close and recover from disk.
			r, err := OpenStore(dir, opts)
			if err != nil {
				t.Fatalf("step %d: crash recovery: %v", step, err)
			}
			s.Close()
			s = r
			if s.EngineKind() != EngineDisk {
				t.Fatalf("recovered on engine %q", s.EngineKind())
			}
			assertSameState(t, s, shadow)
			if t.Failed() {
				t.Fatalf("diverged at step %d", step)
			}
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r := reopen(t, s, dir, opts)
	s = r
	assertSameState(t, s, shadow)
}

// TestStoreDiskSnapshotKeepsPairsExternal asserts the sublinear-recovery
// property: a disk-engine checkpoint must not inline the live pairs into
// the snapshot — they stay in the segment files the snapshot's manifest
// names, so recovery installs the digest tree from the snapshot and serves
// without scanning the pair set.
func TestStoreDiskSnapshotKeepsPairsExternal(t *testing.T) {
	dir := t.TempDir()
	opts := PersistOptions{SyncAlways: true, Engine: EngineDisk}
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		s.Add(Item{Key: keyspace.MustFromFloat(float64(i)/n, 20), Value: fmt.Sprintf("v%d", i)})
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, ok, err := loadLatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("load snapshot: ok=%v err=%v", ok, err)
	}
	if !st.External {
		t.Fatal("disk-engine snapshot should keep pairs external")
	}
	if len(st.Items) != 0 {
		t.Fatalf("snapshot inlined %d items", len(st.Items))
	}
	if st.Count != n {
		t.Fatalf("snapshot count = %d, want %d", st.Count, n)
	}
	if len(st.Manifest) == 0 {
		t.Fatal("snapshot names no segments")
	}
	for _, name := range st.Manifest {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("manifest segment %s: %v", name, err)
		}
	}
	if len(st.Digests) == 0 {
		t.Fatal("external snapshot carries no digest cells")
	}
	// And it really recovers: same content, still external.
	r, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != n {
		t.Fatalf("recovered %d pairs, want %d", r.Len(), n)
	}
}

// segFiles returns the names of the segment files in dir.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		names[i] = filepath.Base(name)
	}
	return names
}

// TestStoreEngineMigration: both residency policies write the same
// directory shape, so a directory checkpointed under either reopens under
// the other with the same state and dedup ring, in both directions and
// with no conversion step; and a directory whose snapshot inlines its
// pairs, which checkpoints no longer write, opens under both and is
// rewritten as external by its next checkpoint.
func TestStoreEngineMigration(t *testing.T) {
	mk := func(engine string) PersistOptions {
		return PersistOptions{SyncAlways: true, Engine: engine}
	}
	for _, order := range [][]string{{EngineMem, EngineDisk, EngineMem, EngineDisk}, {EngineDisk, EngineMem, EngineDisk, EngineMem}} {
		t.Run(strings.Join(order, "-"), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(dir, mk(order[0]))
			if err != nil {
				t.Fatal(err)
			}
			shadow := NewStore()
			for i := 0; i < 64; i++ {
				it := Item{Key: testKey(i), Value: fmt.Sprintf("v%d", i%7)}
				s.Insert(it)
				shadow.Insert(it)
			}
			s.Delete(testKey(3), "v3")
			shadow.Delete(testKey(3), "v3")
			s.MarkMutation(42)
			shadow.MarkMutation(42)
			for step, kind := range order[1:] {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// The checkpoint leaves exactly the segments its snapshot
				// names: a resident one deletes those it replaced.
				if st, ok, err := loadLatestSnapshot(dir); err != nil || !ok {
					t.Fatalf("load snapshot: ok=%v err=%v", ok, err)
				} else if segs := segFiles(t, dir); !reflect.DeepEqual(st.Manifest, segs) {
					t.Fatalf("%s checkpoint left segment files %v, its manifest names %v", s.EngineKind(), segs, st.Manifest)
				}
				// A WAL tail on top of the checkpointed segment.
				it := Item{Key: testKey(17 + step), Value: "after checkpoint"}
				s.Insert(it)
				shadow.Insert(it)
				s = reopen(t, s, dir, mk(kind))
				if s.EngineKind() != kind {
					t.Fatalf("engine = %q, want %q", s.EngineKind(), kind)
				}
				assertSameState(t, s, shadow)
				if s.MarkMutation(42) {
					t.Errorf("dedup ring lost reopening under %s", kind)
				}
				if t.Failed() {
					t.Fatalf("diverged reopening under %s (step %d)", kind, step)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("inline snapshot", func(t *testing.T) {
		// The state an inline snapshot held: every pair as an item record.
		src := newTestStoreKind(t, EngineMem)
		for i := 0; i < 40; i++ {
			src.Insert(Item{Key: testKey(i), Value: fmt.Sprintf("v%d", i%5)})
		}
		src.Delete(testKey(4), "v4")
		src.MarkMutation(42)
		src.mu.Lock()
		st := src.snapshotStateLocked()
		src.mu.Unlock()
		st.External, st.Count, st.Digests = false, 0, nil
		src.eng.ScanPrefix("", "", func(rec PairRecord) bool {
			st.Items = append(st.Items, snapItem{K: rec.Key, V: rec.Value, Gen: rec.Gen, Ver: rec.Ver})
			return true
		})
		st.Seq = 1
		for _, kind := range storeKinds {
			t.Run(kind, func(t *testing.T) {
				dir := t.TempDir()
				if err := writeSnapshot(dir, st, nil); err != nil {
					t.Fatal(err)
				}
				s, err := OpenStore(dir, mk(kind))
				if err != nil {
					t.Fatal(err)
				}
				assertSameState(t, s, src)
				if s.MarkMutation(42) {
					t.Error("dedup ring lost opening an inline snapshot")
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				got, ok, err := loadLatestSnapshot(dir)
				if err != nil || !ok {
					t.Fatalf("load snapshot: ok=%v err=%v", ok, err)
				}
				if !got.External || len(got.Items) != 0 {
					t.Errorf("checkpoint left External=%v with %d inline items", got.External, len(got.Items))
				}
				if segs := segFiles(t, dir); len(segs) != 1 || !reflect.DeepEqual(got.Manifest, segs) {
					t.Errorf("segment files %v, manifest %v: want the one the manifest names", segs, got.Manifest)
				}
				other := EngineDisk
				if kind == EngineDisk {
					other = EngineMem
				}
				s = reopen(t, s, dir, mk(other))
				assertSameState(t, s, src)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	})
}

// TestResidentCheckpointSegments: a resident checkpoint with no pair
// changed since the last one keeps that one's segment and names it again;
// a changed pair gets a new segment and the old one goes; and a segment
// whose snapshot failed stays on disk only until the next committed
// checkpoint. The directory reopens to the same state after each step.
func TestResidentCheckpointSegments(t *testing.T) {
	dir := t.TempDir()
	opts := PersistOptions{Engine: EngineMem}
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	shadow := NewStore()
	insert := func(i int) {
		it := Item{Key: testKey(i), Value: fmt.Sprintf("v%d", i)}
		s.Insert(it)
		shadow.Insert(it)
	}
	checkpoint := func(step string) []string {
		t.Helper()
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		st, ok, err := loadLatestSnapshot(dir)
		if err != nil || !ok {
			t.Fatalf("%s: load snapshot: ok=%v err=%v", step, ok, err)
		}
		if segs := segFiles(t, dir); len(segs) != 1 || !reflect.DeepEqual(st.Manifest, segs) {
			t.Fatalf("%s: segment files %v, manifest %v: want the one the manifest names", step, segs, st.Manifest)
		}
		s = reopen(t, s, dir, opts)
		assertSameState(t, s, shadow)
		return st.Manifest
	}
	for i := 0; i < 50; i++ {
		insert(i)
	}
	first := checkpoint("first")
	setMeta := func(v string) {
		s.SetMeta("path", v)
		shadow.SetMeta("path", v)
	}
	setMeta("0110")
	if got := checkpoint("no pair changed since the open"); !reflect.DeepEqual(got, first) {
		t.Fatalf("unchanged checkpoint named %v, want %v kept", got, first)
	}
	insert(50)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	changed := segFiles(t, dir)
	if reflect.DeepEqual(changed, first) {
		t.Fatalf("changed checkpoint kept %v", first)
	}
	setMeta("01101")
	if got := checkpoint("no pair changed since the last checkpoint"); !reflect.DeepEqual(got, changed) {
		t.Fatalf("unchanged checkpoint named %v, want %v kept", got, changed)
	}

	// A checkpoint whose snapshot fails: the engine half runs, then the
	// commit reports the failure.
	insert(51)
	s.mu.Lock()
	recs := s.eng.freeze()
	s.mu.Unlock()
	f, err := s.eng.flush(recs)
	if err == nil && f.wait != nil {
		err = f.wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	f.commit(false)
	if segs := segFiles(t, dir); len(segs) != 2 {
		t.Fatalf("after a failed snapshot: segment files %v, want the committed one and the new one", segs)
	}
	checkpoint("after the failed one")
}

// TestStoreWithoutDirCreatesNoDirectory: a store without a data directory
// writes nothing to the file system under either policy, neither while it
// is open nor by Close.
func TestStoreWithoutDirCreatesNoDirectory(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	assertEmpty := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("%s: store without a data directory left %s in TMPDIR", when, e.Name())
		}
	}
	for _, kind := range storeKinds {
		s, err := NewStoreKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		s.Insert(Item{Key: testKey(1), Value: "v"})
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		assertEmpty(kind + " store open")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		assertEmpty(kind + " store closed")
	}
}

// TestStoreMutationDedupSurvivesRestart pins the exactly-once property the
// overlay's coordinators rely on: an ID marked before a crash is still
// recognised as a duplicate after recovery, and the ring still evicts
// oldest-first.
func TestStoreMutationDedupSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := PersistOptions{SyncAlways: true}
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !s.MarkMutation(7) {
		t.Fatal("first mark should be new")
	}
	if s.MarkMutation(7) {
		t.Fatal("second mark should be a duplicate")
	}
	if !s.MarkMutation(0) {
		t.Fatal("zero ID is never deduplicated")
	}
	s = reopen(t, s, dir, opts)
	if s.MarkMutation(7) {
		t.Error("dedup ring lost across restart")
	}
	// Overflow the ring: the oldest ID is evicted and becomes new again.
	for i := 0; i < mutationDedupWindow; i++ {
		s.MarkMutation(uint64(1000 + i))
	}
	if !s.MarkMutation(7) {
		t.Error("evicted ID should be markable again")
	}
	s = reopen(t, s, dir, opts)
	if s.MarkMutation(uint64(1000 + mutationDedupWindow - 1)) {
		t.Error("newest ring entry lost across restart")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Allocation ceilings of the reads on a checkpointed store of
// readCeilingPairs pairs, per engine: one Lookup, averaged over every pair
// in turn; one ScanRange over 1/16 of the key space, [1/4, 5/16), whose
// bounds share two bits; and one ScanRange over the same number of pairs
// straddling 1/2, whose bounds share none. They are the counts measured
// with range reads seeking to their lower bound, and may only go down.
const (
	readCeilingPairs           = 4096
	memGetAllocCeiling         = 4
	diskGetAllocCeiling        = 76
	memScanAllocCeiling        = 5
	diskScanAllocCeiling       = 656
	memMisalignedAllocCeiling  = 5
	diskMisalignedAllocCeiling = 656
)

// checkpointedStore returns a persistent store of the engine kind holding
// n pairs, keys i/n for i < n, all flushed by a checkpoint, and the keys in
// order. The store is closed when the test ends.
func checkpointedStore(t *testing.T, kind string, n int) (*Store, []keyspace.Key) {
	t.Helper()
	s, err := OpenStore(t.TempDir(), PersistOptions{Engine: kind})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	keys := insertCeilingPairs(s, n)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return s, keys
}

// insertCeilingPairs inserts n pairs, keys i/n for i < n, and returns the
// keys in order.
func insertCeilingPairs(s *Store, n int) []keyspace.Key {
	keys := make([]keyspace.Key, n)
	for i := range keys {
		keys[i] = keyspace.MustFromFloat(float64(i)/float64(n), 32)
		s.Insert(Item{Key: keys[i], Value: fmt.Sprintf("v%d", i)})
	}
	return keys
}

// TestEngineReadAllocCeilings holds each policy's point and range read
// paths to their allocation ceilings: a checkpointed store of either
// policy, and a store without a data directory, which is a memtable alone
// under either and so holds the mem ceilings. A checkpointed resident
// store reads its memtable alone too: it reports no segment.
func TestEngineReadAllocCeilings(t *testing.T) {
	type ceilings struct{ get, scan, misaligned int }
	mem := ceilings{memGetAllocCeiling, memScanAllocCeiling, memMisalignedAllocCeiling}
	disk := ceilings{diskGetAllocCeiling, diskScanAllocCeiling, diskMisalignedAllocCeiling}
	for _, c := range []struct {
		name    string
		kind    string
		persist bool
		ceiling ceilings
	}{
		{EngineMem, EngineMem, true, mem},
		{EngineDisk, EngineDisk, true, disk},
		{"mem without dir", EngineMem, false, mem},
		{"disk without dir", EngineDisk, false, mem},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s *Store
			var keys []keyspace.Key
			if c.persist {
				s, keys = checkpointedStore(t, c.kind, readCeilingPairs)
			} else {
				s = newTestStoreKind(t, c.kind)
				keys = insertCeilingPairs(s, readCeilingPairs)
			}
			if c.kind == EngineMem && (s.Stats().EngineStats.Segments != 0 || !s.eng.single()) {
				t.Fatalf("resident store reads beneath its memtable: %d segments, frozen %v", s.eng.segmentCount(), s.eng.frozen != nil)
			}
			ceiling := c.ceiling
			i := 0
			get := testing.AllocsPerRun(readCeilingPairs, func() {
				if len(s.Lookup(keys[i%readCeilingPairs])) != 1 {
					t.Fatalf("Lookup missed pair %d", i)
				}
				i++
			})
			scanAllocs := func(lo, hi int) float64 {
				r := keyspace.NewRange(keys[lo], keys[hi])
				return testing.AllocsPerRun(20, func() {
					n := 0
					s.ScanRange(r, func(Item) bool { n++; return true })
					if n != hi-lo {
						t.Fatalf("ScanRange yielded %d pairs, want %d", n, hi-lo)
					}
				})
			}
			const sixteenth = readCeilingPairs / 16
			scan := scanAllocs(4*sixteenth, 5*sixteenth)
			misaligned := scanAllocs(readCeilingPairs/2-sixteenth/2, readCeilingPairs/2+sixteenth/2)
			t.Logf("Lookup %.1f, aligned ScanRange %.1f, misaligned ScanRange %.1f allocations", get, scan, misaligned)
			if get > float64(ceiling.get) {
				t.Errorf("Lookup allocates %.1f times, ceiling %d", get, ceiling.get)
			}
			if scan > float64(ceiling.scan) {
				t.Errorf("ScanRange allocates %.1f times, ceiling %d", scan, ceiling.scan)
			}
			if misaligned > float64(ceiling.misaligned) {
				t.Errorf("misaligned ScanRange allocates %.1f times, ceiling %d", misaligned, ceiling.misaligned)
			}
		})
	}
}
