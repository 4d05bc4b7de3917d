package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"pgrid/internal/keyspace"
	"pgrid/internal/replication"
	"pgrid/internal/workload"
	"pgrid/internal/xrand"
)

// workloadSpec is one benchmark workload: the cluster it runs against and
// the traffic it sends.
type workloadSpec struct {
	name string

	// Cluster. topoSeed fixes the loaded data and the construction schedule,
	// so every --seed of a workload meets the same trie and the runs of a
	// workload differ only in the requests sent; it is chosen so that every
	// partition ends with at least two replicas (see README, Findings).
	peers       int
	keys        int
	topoSeed    int64
	engine      string
	dataDirs    bool
	checkpoint  bool // checkpoint every store in set-up: reads hit segments
	cacheSize   int
	writeQuorum int
	maintain    time.Duration

	// Traffic, as shares of 100 operations.
	readPct, writePct, rangePct int
	zipfS                       float64 // 0 = uniform key choice
	rangeWidth                  float64 // share of the key space one range read covers
	freshWriteKeys              bool    // writes go to new uniform keys, not loaded ones
}

// deleteLag is how many of its own puts a client keeps live before it
// deletes the oldest. Deleting a pair right after its put was acked races
// the put's own alpha-raced duplicates, which the overlay then re-stamps
// above the tombstone (README, Findings), and a workload on which the
// program returns wrong answers cannot be a baseline.
const deleteLag = 128

// maxKeys (d_max) is far below a partition's load on every workload, so the
// trie depth is set by the replica estimate alone (MinReplicas 2).
const maxKeys = 400

var workloads = []workloadSpec{
	{
		name: "point_mem_deep", peers: 32, keys: 20000, topoSeed: 3, engine: replication.EngineMem,
		readPct: 100,
	},
	{
		name: "scan_disk_shallow", peers: 8, keys: 60000, topoSeed: 5, engine: replication.EngineDisk,
		dataDirs: true, checkpoint: true,
		readPct: 80, rangePct: 20, rangeWidth: 0.005,
	},
	{
		name: "write_wal_deep", peers: 32, keys: 20000, topoSeed: 3, engine: replication.EngineMem,
		dataDirs: true, writeQuorum: 2, maintain: time.Second,
		writePct: 100, freshWriteKeys: true,
	},
	{
		name: "zipf_mixed_cached", peers: 32, keys: 20000, topoSeed: 3, engine: replication.EngineMem,
		cacheSize: 256, maintain: time.Second,
		readPct: 90, writePct: 5, rangePct: 5, zipfS: 1.2, rangeWidth: 0.002,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// genData makes the loaded data set: uniform keys, one distinct value each.
func genData(spec workloadSpec) []replication.Item {
	rng := xrand.New(spec.topoSeed)
	data := make([]replication.Item, spec.keys)
	for i := range data {
		data[i] = replication.Item{
			Key:   keyspace.MustFromFloat(rng.Float64(), keyDepth),
			Value: "v" + strconv.Itoa(i),
		}
	}
	return data
}

type opKind uint8

const (
	opRead opKind = iota
	opPut
	opDelete
	opRange
	numKinds
)

var kindNames = [numKinds]string{"read", "put", "delete", "range"}

// op is one generated request. Keys are the 32 significant bits, left
// aligned as keyspace.Key.Bits holds them.
type op struct {
	kind  opKind
	key   uint64
	hi    uint64 // range upper bound (exclusive)
	value string
}

func bitsOf(k keyspace.Key) uint64 { return k.Bits }

func keyString(bits uint64) string {
	return keyspace.Key{Bits: bits, Len: keyDepth}.String()
}

// generator produces one client's request stream from its seed alone: the
// stream never depends on responses or timing, so the traced phase can
// replay a measured client's operations exactly.
type generator struct {
	spec workloadSpec
	tag  string // prefix of the values this stream writes
	rng  *rand.Rand
	data []replication.Item
	zipf *workload.Zipf
	puts int
	// pending holds the client's live puts, oldest first.
	pending []op
}

// newGenerator makes client's stream for seed. Streams of one client and
// seed that differ only in tag send the same operations on the same keys
// and write distinct values.
func newGenerator(spec workloadSpec, data []replication.Item, zipf *workload.Zipf, seed int64, client int, tag string) *generator {
	return &generator{
		spec: spec, tag: tag, data: data, zipf: zipf,
		rng: xrand.New(seed*7919 + int64(client)),
	}
}

func (g *generator) pickLoaded() uint64 {
	if g.zipf != nil {
		return bitsOf(g.data[g.zipf.Rank(g.rng)].Key)
	}
	return bitsOf(g.data[g.rng.Intn(len(g.data))].Key)
}

func (g *generator) next() op {
	u := g.rng.Intn(100)
	switch {
	case u < g.spec.readPct:
		return op{kind: opRead, key: g.pickLoaded()}
	case u < g.spec.readPct+g.spec.writePct:
		if len(g.pending) >= deleteLag {
			p := g.pending[0]
			g.pending = g.pending[1:]
			return op{kind: opDelete, key: p.key, value: p.value}
		}
		o := op{kind: opPut, value: fmt.Sprintf("%s-%d", g.tag, g.puts)}
		if g.spec.freshWriteKeys {
			o.key = bitsOf(keyspace.MustFromFloat(g.rng.Float64(), keyDepth))
		} else {
			o.key = g.pickLoaded()
		}
		g.puts++
		g.pending = append(g.pending, o)
		return o
	default:
		lo := g.rng.Float64() * (1 - g.spec.rangeWidth)
		return op{
			kind: opRange,
			key:  bitsOf(keyspace.MustFromFloat(lo, keyDepth)),
			hi:   bitsOf(keyspace.MustFromFloat(lo+g.spec.rangeWidth, keyDepth)),
		}
	}
}

// pair is one (key, value) item as the oracle and the responses hold it.
type pair struct {
	key   uint64
	value string
}

func pairLess(a, b pair) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.value < b.value
}

func sortPairs(ps []pair) { sort.Slice(ps, func(i, j int) bool { return pairLess(ps[i], ps[j]) }) }

// oracle knows what every read must return: the loaded data, which no
// client ever deletes, plus each client's own acked puts and deletes. A
// read that overlapped no write to the keys it covers is compared exactly;
// one that did overlap a write must still return every loaded pair and
// nothing but loaded pairs and client-written values.
type oracle struct {
	base []pair // loaded data, sorted

	mu       sync.Mutex
	written  map[uint64]map[string]bool // live client-written values by key
	deleted  []pair                     // acked deletes
	inflight map[uint64]int             // writes in flight by key
	keySeq   map[uint64]uint64          // bumped when a write to the key starts or ends
	inflAll  int
	seqAll   uint64
}

func newOracle(data []replication.Item) *oracle {
	o := &oracle{
		base:     make([]pair, len(data)),
		written:  make(map[uint64]map[string]bool),
		inflight: make(map[uint64]int),
		keySeq:   make(map[uint64]uint64),
	}
	for i, it := range data {
		o.base[i] = pair{bitsOf(it.Key), it.Value}
	}
	sortPairs(o.base)
	return o
}

// baseRange returns the loaded pairs with lo <= key < hi.
func (o *oracle) baseRange(lo, hi uint64) []pair {
	i := sort.Search(len(o.base), func(i int) bool { return o.base[i].key >= lo })
	j := sort.Search(len(o.base), func(i int) bool { return o.base[i].key >= hi })
	return o.base[i:j]
}

// baseAt returns the loaded pairs under one key.
func (o *oracle) baseAt(key uint64) []pair {
	i := sort.Search(len(o.base), func(i int) bool { return o.base[i].key >= key })
	j := i
	for j < len(o.base) && o.base[j].key == key {
		j++
	}
	return o.base[i:j]
}

// readTicket is what a read remembers from the moment it was sent: a point
// read of key lo, or a range read of [lo, hi).
type readTicket struct {
	lo, hi uint64
	point  bool
	want   []pair // exact expectation, if no write overlaps
	base   []pair // loaded pairs, always required
	seq    uint64
	quiet  bool
}

func (t readTicket) covers(key uint64) bool {
	if t.point {
		return key == t.lo
	}
	return key >= t.lo && key < t.hi
}

// beginRead snapshots the expectation of a read about to be sent.
func (o *oracle) beginRead(r op) readTicket {
	t := readTicket{lo: r.key, hi: r.hi, point: r.kind == opRead}
	lo, hi, point := t.lo, t.hi, t.point
	if point {
		t.base = o.baseAt(lo)
	} else {
		t.base = o.baseRange(lo, hi)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if point {
		t.seq, t.quiet = o.keySeq[lo], o.inflight[lo] == 0
	} else {
		t.seq, t.quiet = o.seqAll, o.inflAll == 0
	}
	t.want = append(t.want, t.base...)
	if point {
		for v := range o.written[lo] {
			t.want = append(t.want, pair{lo, v})
		}
	} else {
		for k, vs := range o.written {
			if k >= lo && k < hi {
				for v := range vs {
					t.want = append(t.want, pair{k, v})
				}
			}
		}
	}
	sortPairs(t.want)
	return t
}

// checkRead validates a read's items against its ticket.
func (o *oracle) checkRead(t readTicket, got []pair) error {
	o.mu.Lock()
	seq := o.seqAll
	if t.point {
		seq = o.keySeq[t.lo]
	}
	o.mu.Unlock()
	sortPairs(got)
	if t.quiet && seq == t.seq {
		if len(got) != len(t.want) {
			return fmt.Errorf("got %d items, want %d", len(got), len(t.want))
		}
		for i := range got {
			if got[i] != t.want[i] {
				return fmt.Errorf("item %d is %x=%q, want %x=%q", i, got[i].key, got[i].value, t.want[i].key, t.want[i].value)
			}
		}
		return nil
	}
	// A write overlapped: every loaded pair must be there, in order, and
	// the rest must be client-written values inside the range.
	bi := 0
	for _, p := range got {
		if !t.covers(p.key) {
			return fmt.Errorf("item %x outside the keys read", p.key)
		}
		if bi < len(t.base) && p == t.base[bi] {
			bi++
			continue
		}
		if len(p.value) == 0 || p.value[0] == 'v' { // loaded values are "v<i>", written ones never
			return fmt.Errorf("unexpected item %x=%q", p.key, p.value)
		}
	}
	if bi != len(t.base) {
		return fmt.Errorf("%d of %d loaded items missing", len(t.base)-bi, len(t.base))
	}
	return nil
}

func (o *oracle) beginWrite(key uint64) {
	o.mu.Lock()
	o.inflight[key]++
	o.keySeq[key]++
	o.inflAll++
	o.seqAll++
	o.mu.Unlock()
}

// endWrite records the outcome of a put or delete; an operation that was
// not acked leaves the expectation as it was.
func (o *oracle) endWrite(w op, acked bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.inflight[w.key]--; o.inflight[w.key] == 0 {
		delete(o.inflight, w.key)
	}
	o.keySeq[w.key]++
	o.inflAll--
	o.seqAll++
	if !acked {
		return
	}
	if w.kind == opPut {
		if o.written[w.key] == nil {
			o.written[w.key] = make(map[string]bool)
		}
		o.written[w.key][w.value] = true
		return
	}
	delete(o.written[w.key], w.value)
	if len(o.written[w.key]) == 0 {
		delete(o.written, w.key)
	}
	o.deleted = append(o.deleted, pair{w.key, w.value})
}

// ackedDeletes returns the pairs whose delete was acked.
func (o *oracle) ackedDeletes() []pair {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]pair(nil), o.deleted...)
}

// livePuts returns the acked puts that were not deleted again.
func (o *oracle) livePuts() []pair {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []pair
	for k, vs := range o.written {
		for v := range vs {
			out = append(out, pair{k, v})
		}
	}
	sortPairs(out)
	return out
}
