package replication

// This file is the merge rule of a replicated (key, value) pair, stated
// once. Every write that decides which version of a pair wins — replica
// pushes, anti-entropy, WAL replay, partition rebuilds, the coordinator's
// stamps and its one retry, cooperative tombstone drops — goes through
// Merge, and nothing else compares generations. Merge is pure and works on
// values only; Store.applyLocked reads a pair's state, merges and writes
// the difference, and the overlay's mutation path calls Restamp. The
// small-scope enumerator (merge_enum_test.go) runs this code, not a model
// of it.
//
// The rules, as a state × event table:
//
//	state \ event    replicate k@g           stamp k (min g)        drop ≤ g
//	absent           k@g                     k@max(g, 1)            absent
//	live@e           k@g if (g,k) > (e,live) k@max(g, e+1)          live@e
//	tombstoned@t     k@g if (g,k) > (t,tomb) k@max(g, t+1)          absent if t ≤ g
//
// where states order by generation first and a tombstone beats a live copy
// of the same generation (deletes win ties). Replicate is therefore the join
// of that order — commutative, associative and idempotent — and a stamp
// always lands strictly above what the replica has seen.

// PairKind is what a replica holds for a pair.
type PairKind uint8

// Pair kinds, in merge order at equal generations.
const (
	Absent PairKind = iota
	Live
	Tombstoned
)

func (k PairKind) String() string {
	switch k {
	case Live:
		return "live"
	case Tombstoned:
		return "tomb"
	}
	return "absent"
}

// PairState is one replica's state of a pair: absent, live at a generation,
// or tombstoned at a generation — never both. An absent pair has Gen 0.
type PairState struct {
	Kind PairKind
	Gen  uint64
}

// newer reports whether a wins over b under the merge order: higher
// generation first, then tombstoned over live over absent.
func (a PairState) newer(b PairState) bool {
	return a.Gen > b.Gen || a.Gen == b.Gen && a.Kind > b.Kind
}

// MergeOp says how an event's state is merged.
type MergeOp uint8

const (
	// Replicate merges a copy stamped elsewhere: Add, AddTombstones, WAL
	// replay, ReplaceWithin and the overlay's Direct fan-out leg.
	Replicate MergeOp = iota
	// Stamp is a local write that must win: Insert, Delete, DeleteStamped
	// and the mutation coordinator. Event.Gen is the lowest acceptable
	// stamp (0 for any).
	Stamp
	// Drop removes a tombstone no newer than Event.Gen: the cooperative
	// prune of DropTombstones.
	Drop
)

// Event is one merge input for a pair. Kind is Live or Tombstoned for
// Replicate and Stamp, and ignored by Drop.
type Event struct {
	Op   MergeOp
	Kind PairKind
	Gen  uint64
}

// Outcome is what a merge reports besides the new state.
type Outcome struct {
	// New is set when the pair changed kind: it became live on a live event
	// (Add's "new pair"), became tombstoned on a tomb event (the
	// AddTombstones count, Delete's "visibly changed"), or was dropped.
	New bool
	// Acked is set when the pair ends in the event's kind — a replica's ack
	// on a Direct leg. A refusal leaves the replica's newer state in place.
	Acked bool
	// Gen is the pair's generation afterwards: the stamp a Stamp event
	// chose, or on a refusal the generation the refusing replica holds.
	Gen uint64
}

// Merge applies one event to a pair's state.
func Merge(s PairState, ev Event) (PairState, Outcome) {
	next := s
	switch ev.Op {
	case Replicate:
		if in := (PairState{Kind: ev.Kind, Gen: ev.Gen}); in.newer(s) {
			next = in
		}
	case Stamp:
		next = PairState{Kind: ev.Kind, Gen: max(ev.Gen, s.Gen+1)}
	case Drop:
		if s.Kind == Tombstoned && s.Gen <= ev.Gen {
			next = PairState{}
		}
	}
	return next, Outcome{
		New:   next.Kind != s.Kind,
		Acked: next.Kind == ev.Kind,
		Gen:   next.Gen,
	}
}

// Restamp is the coordinator's retry rule. A write stamped at stamped was
// fanned out and acked by acks of replicas; refused is the highest
// generation a refusing replica reported (0 when none refused). When a
// refusing replica is at or above the stamp, the write is stamped once more
// above it: Restamp returns that event and true.
func Restamp(ev Event, stamped, refused uint64, acks, replicas int) (Event, bool) {
	if acks >= replicas || refused < stamped {
		return ev, false
	}
	ev.Gen = refused + 1
	return ev, true
}
