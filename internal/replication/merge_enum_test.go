package replication

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// This file checks the merge rule (pair.go) by small-scope exhaustion: every
// interleaving of a few client puts and deletes on one pair across three
// replicas, under the overlay's mutation protocol, with the network allowed
// to deliver each message late, twice or never. The model calls Merge and
// Restamp — the code the store and the overlay run — and models only what
// lies outside them: routing, the fan-out, and the per-replica ID ring.
//
// The model, per client op (ops are issued one after another):
//   - the op is routed to one replica, which coordinates it; the α-race may
//     also send a duplicate that reaches a second replica at any later point;
//   - a coordinator whose ID ring holds the op suppresses it; otherwise it
//     marks the ID, stamps (Merge with a Stamp event), fans the stamp out to
//     the other two replicas and retries once per Restamp;
//   - each Direct leg is applied now (and acks or refuses) or late (at any
//     later point, counted as no answer); a leg or duplicate never delivered
//     is the "never" case, since every world is also checked as if the
//     messages still in flight were lost;
//   - a Direct leg marks the ID at its replica and merges a Replicate event;
//   - the client's op is acked when its first coordination gathers the
//     quorum. The protocol does not depend on the quorum, so one search
//     covers quorum 1 and 2.
//
// Coordinations are atomic: a leg answered in time reflects the replica
// before any other coordination that overlaps it in real time. Every world
// is checked after a full exchange between the replicas (anti-entropy:
// every replica merges every other one's state).
//
// The scope is four ops of which at most two are raced (enumScopes); the
// soak scope is five ops, and four with every op raced. These reductions
// keep it small without losing a behaviour:
//   - A leg in flight is delivered only just before its replica is read,
//     and only if it could change what the read sees (catchUp).
//   - A message that can no longer change anything is dropped (settle).
//     A leg delivered twice is therefore its first delivery plus an inert
//     copy; TestMergeEnumerate checks at two ops that offering "now and
//     again late" as a third fate reaches the same worlds.
//   - Replicas that are interchangeable are offered once as a coordinator,
//     as a duplicate's target, and for the fates of a fan-out.
//   - Worlds equal up to relabelling the replicas or the ops, or up to
//     renumbering the generations in a way no remaining step can observe,
//     are explored once (key).

const enumReplicas = 3

// enumQuorums are the write quorums checked; index q-1 in per-quorum state.
var enumQuorums = [2]int{1, 2}

// Properties the enumerator checks on every world.
const (
	propConverge   = 1 << iota // replicas that exchanged everything are equal
	propPutKept                // an acked put is lost only to a later delete
	propDeleteKept             // an acked delete is never followed by a live pair
	propOnce                   // each mutation ID is coordinated once
)

var propOrder = []int{propConverge, propPutKept, propDeleteKept, propOnce}

var propNames = map[int]string{
	propConverge:   "replicas that exchanged everything are equal",
	propPutKept:    "an acked put is lost only to a later delete",
	propDeleteKept: "an acked delete is never followed by a live pair",
	propOnce:       "each mutation ID is coordinated once",
}

// knownViolation is a property that fails today at a quorum. The
// enumeration must find exactly these; the fix that makes one hold removes
// its entry. pin, when set, is a specific counter-example (one chooser
// script per step) that must still fail, and narration is its story.
type knownViolation struct {
	prop      int
	quorum    int
	pin       [][]uint8
	narration []string
}

// finding2 is the resurrection the repository benchmark hit on
// write_wal_deep: a put's raced duplicate reaches a replica late, after the
// put and a delete were both acked; that replica coordinates the put again,
// the other two refuse it with the delete's generation 2, and the one
// re-stamped retry lifts the put to generation 3, above the delete.
var finding2 = knownViolation{
	prop:   propDeleteKept,
	quorum: 2,
	pin: [][]uint8{
		// Issue a put at r0 with a duplicate to r1; leg r1 late, leg r2 now.
		{0, 0, 0, 1, 1, 0},
		// Issue a delete at r0, no duplicate; leg r1 late, leg r2 now.
		{0, 1, 0, 0, 1, 0},
		// The duplicate reaches r1 before either leg in flight to it; every
		// leg of both rounds now.
		{1, 0, 0, 0, 0, 0, 0},
	},
	narration: []string{
		"put#0 routed to r0, a raced duplicate follows to r1 | r0 stamps live@1 | leg r1 late, leg r2 acks live@1 | 2/3 acks: client acked",
		"delete#1 routed to r0 | r0 stamps tomb@2 | leg r1 late, leg r2 acks tomb@2 | 2/3 acks: client acked",
		"late duplicate of put#0 reaches r1 | r1 stamps live@1 | leg r0 refuses (tomb@2), leg r2 refuses (tomb@2) | 1/3 acks: r1 re-stamps above 2: live@3 | leg r0 acks live@3, leg r2 acks live@3 | 3/3 acks",
		"after exchange: live@3 everywhere",
	},
}

// knownViolations lists every property that fails today, per quorum.
var knownViolations = []knownViolation{
	finding2,
	{prop: propDeleteKept, quorum: 1},
	{prop: propPutKept, quorum: 1},
	{prop: propPutKept, quorum: 2},
	{prop: propOnce, quorum: 1},
	{prop: propOnce, quorum: 2},
}

// enumMsg is one message in flight, encoded so that duplicates sort before
// legs and each replica's legs sort newest state first:
// a raced duplicate is {to, kind, op}, a Direct leg {4 | to, ^rank, op}
// with rank = gen<<1 | tombstoned.
type enumMsg [3]byte

func legMsg(to int, st PairState, op uint8) enumMsg {
	rank := byte(st.Gen << 1)
	if st.Kind == Tombstoned {
		rank |= 1
	}
	return enumMsg{4 | byte(to), ^rank, op}
}

func (m enumMsg) leg() bool { return m[0]&4 != 0 }
func (m enumMsg) to() int   { return int(m[0] & 3) }
func (m enumMsg) op() uint8 { return m[2] }

// kind is the state the op gives the pair.
func (m enumMsg) kind() PairKind {
	if m.leg() && ^m[1]&1 == 1 || !m.leg() && m[1] == 1 {
		return Tombstoned
	}
	return Live
}

// state is the stamped state a leg carries.
func (m enumMsg) state() PairState {
	return PairState{Kind: m.kind(), Gen: uint64(^m[1] >> 1)}
}

func (m enumMsg) less(o enumMsg) bool { return string(m[:]) < string(o[:]) }

// enumMaxMsgs bounds the messages in flight; settle keeps far fewer.
const enumMaxMsgs = 24

// enumWorld is the state of the pair at each replica, the ID rings, the
// messages in flight, and what the client has been promised.
type enumWorld struct {
	pairs  [enumReplicas]PairState
	rings  [enumReplicas]uint8 // bit i: the replica has marked op i's ID
	msgs   [enumMaxMsgs]enumMsg
	nmsgs  int   // messages in flight, sorted
	nroute int   // of which raced duplicates, which sort first
	issued uint8 // client ops issued so far (op i is the i-th)
	dups   uint8 // ops issued with a raced duplicate
	// owed holds, per quorum, what the client has been promised: owedLive
	// when some acked put has no delete issued after it (the pair must end
	// live), owedTomb when some acked delete has no put issued after it
	// (the pair must not end live).
	owed [len(enumQuorums)]uint8
	// twice is set by a step that coordinated an op a second time. It
	// belongs to the step, not the world, so key leaves it out.
	twice bool
}

const (
	owedLive = 1 << iota
	owedTomb
)

func (w *enumWorld) send(m enumMsg) {
	i := 0
	for i < w.nmsgs && w.msgs[i].less(m) {
		i++
	}
	if i < w.nmsgs && w.msgs[i] == m {
		return // a second copy in flight changes nothing; see settle
	}
	copy(w.msgs[i+1:w.nmsgs+1], w.msgs[i:w.nmsgs])
	w.msgs[i] = m
	w.nmsgs++
	if !m.leg() {
		w.nroute++
	}
}

func (w *enumWorld) remove(i int) {
	if !w.msgs[i].leg() {
		w.nroute--
	}
	copy(w.msgs[i:], w.msgs[i+1:w.nmsgs])
	w.nmsgs--
}

// awaited reports whether a raced duplicate of op is in flight to replica
// to and would not be suppressed there.
func (w *enumWorld) awaited(to int, op uint8) bool {
	if w.rings[to]&(1<<op) != 0 {
		return false
	}
	for i := 0; i < w.nroute; i++ {
		if w.msgs[i].to() == to && w.msgs[i].op() == op {
			return true
		}
	}
	return false
}

// inert reports whether delivering the leg would change nothing: it would
// not move its replica's state up the merge order, and no duplicate in
// flight to that replica needs its ID mark.
func (w *enumWorld) inert(m enumMsg) bool {
	return !m.state().newer(w.pairs[m.to()]) && !w.awaited(m.to(), m.op())
}

// settle drops the messages in flight that can no longer change anything,
// and clears the rings:
//   - a duplicate whose replica has marked its ID;
//   - an inert leg;
//   - once every op is issued, a leg to a replica no duplicate is headed
//     for, no newer than every duplicate's target: that replica is only
//     read again by legs stamped above their coordinator, which are at
//     least as new.
//
// Rings only grow and states only move up the merge order, so a dropped
// message would have stayed inert. After it, a ring mark could only matter
// to a duplicate in flight, and none of those meets a marked ring.
func (w *enumWorld) settle(m *enumModel) {
	if m.naive {
		return
	}
	msgs, n, routes := w.msgs, w.nmsgs, w.nroute
	w.nmsgs, w.nroute = 0, 0
	// The duplicates go first: whether a leg is inert depends on them.
	for _, msg := range msgs[:routes] {
		if w.rings[msg.to()]&(1<<msg.op()) == 0 {
			w.msgs[w.nmsgs] = msg
			w.nmsgs++
			w.nroute++
		}
	}
	for _, msg := range msgs[routes:n] {
		if !w.inert(msg) && !(int(w.issued) == m.ops && w.unread(msg)) {
			w.msgs[w.nmsgs] = msg
			w.nmsgs++
		}
	}
	w.rings = [enumReplicas]uint8{}
}

// unread reports, once every op is issued, whether no read can see the
// leg: no duplicate heads for its replica, and it is no newer than every
// duplicate's target.
func (w *enumWorld) unread(leg enumMsg) bool {
	for _, route := range w.msgs[:w.nroute] {
		if route.to() == leg.to() || leg.state().Gen > w.pairs[route.to()].Gen {
			return false
		}
	}
	return true
}

// sig describes replica r into b — its state and the messages in flight to
// it, with their op numbers when ops is set — and returns its length. Two
// replicas with equal signatures including ops are interchangeable.
func (w *enumWorld) sig(b *[2 + 3*enumMaxMsgs]byte, r int, ops bool) int {
	b[0], b[1] = byte(w.pairs[r].Kind), byte(w.pairs[r].Gen)
	n := 2
	for _, m := range w.msgs[:w.nmsgs] {
		if m.to() == r {
			b[n], b[n+1] = m[0]&4, m[1]
			n += 2
			if ops {
				b[n] = m[2]
				n++
			}
		}
	}
	return n
}

// interchangeable reports whether swapping replicas a and b maps w onto
// itself.
func (w *enumWorld) interchangeable(a, b int) bool {
	var x, y [2 + 3*enumMaxMsgs]byte
	nx, ny := w.sig(&x, a, true), w.sig(&y, b, true)
	return string(x[:nx]) == string(y[:ny])
}

var enumPerms = [6][enumReplicas]byte{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// key encodes the world canonically, so equivalent worlds are explored
// once: the smallest encoding over the replica relabellings that order the
// replicas by signature, with
//   - the ops in flight renumbered in order of appearance, and a leg's op
//     forgotten unless a duplicate awaits its mark (two such legs with the
//     same state are one);
//   - the generations renumbered keeping only what Merge, Stamp and Restamp
//     can observe (gens).
//
// The rings are empty after settle.
func (w *enumWorld) key(m *enumModel) string {
	gen := w.gens(m)
	var sigs [enumReplicas][2 + 3*enumMaxMsgs]byte
	var sigLen [enumReplicas]int
	for r := range sigs {
		sigLen[r] = w.sig(&sigs[r], r, false)
	}
	sigAfter := func(a, b int) bool { return string(sigs[a][:sigLen[a]]) > string(sigs[b][:sigLen[b]]) }
	const keyLen = 2*enumReplicas + 2 + 3*enumMaxMsgs
	var best, b [keyLen]byte
	bestLen := -1
	for _, perm := range enumPerms {
		var inv [enumReplicas]int
		for r, j := range perm {
			inv[j] = int(r)
		}
		if sigAfter(inv[0], inv[1]) || sigAfter(inv[1], inv[2]) {
			continue
		}
		n := 0
		for _, r := range inv {
			b[n], b[n+1] = byte(w.pairs[r].Kind), byte(gen.of(w.pairs[r].Gen))
			n += 2
		}
		b[n], b[n+1] = byte(m.ops)-w.issued+byte(m.dupsLeft(w))<<4, w.owed[0]|w.owed[1]<<4
		n += 2
		var msgs [enumMaxMsgs]enumMsg
		for i, msg := range w.msgs[:w.nmsgs] {
			if msg.leg() {
				if !w.awaited(msg.to(), msg.op()) {
					msg[2] = 0xff
				}
				st := msg.state()
				st.Gen = gen.of(st.Gen)
				msg[1] = legMsg(0, st, 0)[1]
			}
			msg[0] = msg[0]&4 | perm[msg.to()]
			msgs[i] = msg
		}
		sortMsgs(msgs[:w.nmsgs])
		var relabel [8]byte
		next := byte(1)
		for i := range msgs[:w.nmsgs] {
			if op := msgs[i][2]; op == 0xff {
				msgs[i][2] = 0
			} else {
				if relabel[op] == 0 {
					relabel[op] = next
					next++
				}
				msgs[i][2] = relabel[op]
			}
		}
		sortMsgs(msgs[:w.nmsgs])
		for i, msg := range msgs[:w.nmsgs] {
			if i == 0 || msg != msgs[i-1] {
				n += copy(b[n:], msg[:])
			}
		}
		if bestLen < 0 || string(b[:n]) < string(best[:bestLen]) {
			best, bestLen = b, n
		}
	}
	return string(best[:bestLen])
}

// raw encodes the world as it is, step flag included.
func (w *enumWorld) raw() string {
	var b [4*enumReplicas + 4 + 3*enumMaxMsgs]byte
	n := 0
	for r, p := range w.pairs {
		b[n], b[n+1], b[n+2] = byte(p.Kind), byte(p.Gen), w.rings[r]
		n += 3
	}
	b[n], b[n+1], b[n+2], b[n+3] = w.issued, w.dups, w.owed[0]|w.owed[1]<<4, b2i(w.twice)
	n += 4
	for _, m := range w.msgs[:w.nmsgs] {
		n += copy(b[n:], m[:])
	}
	return string(b[:n])
}

func b2i(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// genMap renumbers the generations of a world; see gens.
type genMap struct {
	from, to [enumReplicas + enumMaxMsgs + 1]uint64
	n        int
}

func (g *genMap) of(gen uint64) uint64 {
	for i := 0; i < g.n; i++ {
		if g.from[i] == gen {
			return g.to[i]
		}
	}
	return gen
}

// gens renumbers the generations in w keeping everything the rest of the
// search can observe. Merge and Restamp only compare generations, and
// every new one is an old one plus 1 (a stamp lands on the coordinator's
// plus 1 or the refusal's plus 1), at most twice per coordination still to
// come. So once no replica is absent the lowest generation can move to 1,
// and a gap wider than the number of stamps still to come can shrink to
// one more than that. An absent replica pins 0.
func (w *enumWorld) gens(m *enumModel) genMap {
	var g genMap
	absent := false
	add := func(gen uint64) {
		i := 0
		for i < g.n && g.from[i] < gen {
			i++
		}
		if i < g.n && g.from[i] == gen {
			return
		}
		copy(g.from[i+1:g.n+1], g.from[i:g.n])
		g.from[i] = gen
		g.n++
	}
	for _, p := range w.pairs {
		add(p.Gen)
		absent = absent || p.Kind == Absent
	}
	for _, msg := range w.msgs[w.nroute:w.nmsgs] {
		add(msg.state().Gen)
	}
	if absent {
		add(0)
	}
	maxGap := uint64(2*m.coordinations(w) + 1)
	for i := 0; i < g.n; i++ {
		switch {
		case i > 0:
			g.to[i] = g.to[i-1] + min(g.from[i]-g.from[i-1], maxGap)
		case absent:
			g.to[i] = g.from[i]
		default:
			g.to[i] = 1
		}
	}
	return g
}

func sortMsgs(msgs []enumMsg) {
	for i := 1; i < len(msgs); i++ {
		for j := i; j > 0 && msgs[j].less(msgs[j-1]); j-- {
			msgs[j], msgs[j-1] = msgs[j-1], msgs[j]
		}
	}
}

// chooser feeds a step its nondeterministic choices from a script, taking
// choice 0 past the script's end and recording every choice taken and how
// many options it had, so the caller can enumerate the siblings.
type chooser struct {
	script []uint8
	taken  []uint8
	sizes  []uint8
}

func newChooser(script []uint8) *chooser {
	return &chooser{script: script, taken: make([]uint8, 0, 32), sizes: make([]uint8, 0, 32)}
}

func (c *chooser) pick(n int) int {
	var v uint8
	if len(c.taken) < len(c.script) {
		v = c.script[len(c.taken)]
	}
	c.taken = append(c.taken, v)
	c.sizes = append(c.sizes, uint8(n))
	return int(v)
}

// enumModel is a scope of the search and the protocol steps over it.
type enumModel struct {
	ops int
	// maxDups caps the ops issued with a raced duplicate (0: no cap).
	maxDups int
	// naive turns every reduction off: each leg in flight may arrive as a
	// step of its own, "now and again late" is a third fate, no message is
	// dropped, rings are kept, and worlds are told apart as they are. It
	// exists to check the reductions.
	naive bool
	// quorum and say narrate a replay; say is nil while enumerating.
	quorum int
	say    func(string, ...any)
}

// dupsLeft is the number of ops that may still be raced (ops when there is
// no cap, so the count is not part of the world).
func (m *enumModel) dupsLeft(w *enumWorld) int {
	if m.maxDups == 0 {
		return m.ops
	}
	return m.maxDups - int(w.dups)
}

// coordinations is the number of steps that can run next in w: the next
// client op, if any is left, and each raced duplicate in flight (and, in
// naive mode, each leg in flight).
func (m *enumModel) coordinations(w *enumWorld) int {
	n := w.nroute
	if m.naive {
		n = w.nmsgs
	}
	if int(w.issued) < m.ops {
		n++
	}
	return n
}

// step runs one coordination on a copy of w: the next client op, or a raced
// duplicate reaching its second replica (or, in naive mode, delivers a leg).
func (m *enumModel) step(w enumWorld, ch *chooser) enumWorld {
	w.twice = false
	o := ch.pick(m.coordinations(&w))
	if int(w.issued) < m.ops {
		if o == 0 {
			m.issue(&w, ch)
			w.settle(m)
			return w
		}
		o--
	}
	msg := w.msgs[o]
	w.remove(o)
	if msg.leg() {
		w.rings[msg.to()] |= 1 << msg.op()
		w.pairs[msg.to()], _ = Merge(w.pairs[msg.to()], Event{Op: Replicate, Kind: msg.kind(), Gen: msg.state().Gen})
		return w
	}
	if m.say != nil {
		m.say("late duplicate of %s reaches r%d", opName(msg.kind(), msg.op()), msg.to())
	}
	k := coord{op: msg.op(), kind: msg.kind(), c: msg.to()}
	if acks := m.coordinate(&w, &k, ch); acks > 0 {
		// The op's first delivery coordinated it already.
		w.twice = true
		if m.say != nil {
			m.say("%d/%d acks", acks, enumReplicas)
		}
	}
	w.settle(m)
	return w
}

// coord is one coordination: the op, its coordinator c, and what its
// fan-out has gathered.
type coord struct {
	op   uint8
	kind PairKind
	c    int
	acks int
	// refused is the highest generation a refusing replica reported.
	refused uint64
	read    [enumReplicas]bool // replicas already read (caught up)
}

// catchUp delivers any of the legs in flight to replica r, just before r is
// read. Legs commute, a late leg never changes the exchanged state (its
// coordinator holds that stamp or a newer one), and what it does to r only
// matters when r is read — so this covers every delivery order. r's legs
// come newest first. A leg is offered only if it can change what the read
// sees: it is newer than floor — r's state, or for a Direct leg the state
// it carries, since r ends at the same state with the same answer either
// way — or it carries the ID of op (whose duplicate r is coordinating) or
// of a duplicate in flight to r.
func (m *enumModel) catchUp(w *enumWorld, r int, floor PairState, op int, ch *chooser) {
	for i := w.nroute; i < w.nmsgs; {
		msg := w.msgs[i]
		if w.pairs[r].newer(floor) {
			floor = w.pairs[r]
		}
		offer := msg.to() == r && (msg.state().newer(floor) ||
			int(msg.op()) == op && w.rings[r]&(1<<op) == 0 || w.awaited(r, msg.op()))
		if !offer || ch.pick(2) == 0 {
			i++
			continue
		}
		w.remove(i)
		w.rings[r] |= 1 << msg.op()
		var out Outcome
		w.pairs[r], out = Merge(w.pairs[r], Event{Op: Replicate, Kind: msg.kind(), Gen: msg.state().Gen})
		if m.say != nil {
			m.say("late leg of %s reaches r%d: %s", opName(msg.kind(), msg.op()), r, legResult(msg.kind(), out))
		}
	}
}

func opName(kind PairKind, op uint8) string {
	if kind == Tombstoned {
		return fmt.Sprintf("delete#%d", op)
	}
	return fmt.Sprintf("put#%d", op)
}

func legResult(kind PairKind, out Outcome) string {
	if out.Acked {
		return fmt.Sprintf("acks %s@%d", kind, out.Gen)
	}
	if kind == Live {
		kind = Tombstoned
	} else {
		kind = Live
	}
	return fmt.Sprintf("refuses (%s@%d)", kind, out.Gen)
}

func others(c int) [2]int {
	switch c {
	case 0:
		return [2]int{1, 2}
	case 1:
		return [2]int{0, 2}
	}
	return [2]int{0, 1}
}

// issue starts the next client op: its kind, the replica it is routed to,
// and whether a raced duplicate will reach a second replica. Replicas
// interchangeable with an earlier one are not offered.
func (m *enumModel) issue(w *enumWorld, ch *chooser) {
	op := w.issued
	w.issued++
	kind := Live
	if ch.pick(2) == 1 {
		kind = Tombstoned
	}
	cs, n := [enumReplicas]int{0}, 1
	for _, r := range [...]int{1, 2} {
		if m.naive || !w.interchangeable(r, 0) && (r == 1 || !w.interchangeable(2, 1)) {
			cs[n] = r
			n++
		}
	}
	c := cs[ch.pick(n)]
	o := others(c)
	dups := o[:]
	if !m.naive && w.interchangeable(o[0], o[1]) {
		dups = o[:1]
	}
	if m.dupsLeft(w) == 0 {
		dups = nil
	}
	if d := ch.pick(1 + len(dups)); d > 0 {
		w.dups++
		w.send(enumMsg{byte(dups[d-1]), byte(kind - Live), op})
		if m.say != nil {
			m.say("%s routed to r%d, a raced duplicate follows to r%d", opName(kind, op), c, dups[d-1])
		}
	} else {
		if m.say != nil {
			m.say("%s routed to r%d", opName(kind, op), c)
		}
	}
	k := coord{op: op, kind: kind, c: c}
	acks := m.coordinate(w, &k, ch)
	for i, q := range enumQuorums {
		acked := acks >= q
		if kind == Live {
			w.owed[i] &^= owedTomb
			if acked {
				w.owed[i] |= owedLive
			}
		} else {
			w.owed[i] &^= owedLive
			if acked {
				w.owed[i] |= owedTomb
			}
		}
	}
	if acks >= m.quorum {
		if m.say != nil {
			m.say("%d/%d acks: client acked", acks, enumReplicas)
		}
	} else {
		if m.say != nil {
			m.say("%d/%d acks: below quorum", acks, enumReplicas)
		}
	}
}

// coordinate runs the overlay's coordinator (overlay.Peer.coordinate) for
// the op at replica k.c and returns its ack count, 0 when it suppresses a
// duplicate.
func (m *enumModel) coordinate(w *enumWorld, k *coord, ch *chooser) int {
	if !m.naive {
		m.catchUp(w, k.c, PairState{Kind: Tombstoned, Gen: w.pairs[k.c].Gen}, int(k.op), ch)
	}
	if w.rings[k.c]&(1<<k.op) != 0 {
		if m.say != nil {
			m.say("r%d suppresses it (ID marked)", k.c)
		}
		return 0
	}
	w.rings[k.c] |= 1 << k.op
	k.read[k.c] = true
	ev := Event{Op: Stamp, Kind: k.kind}
	var out Outcome
	w.pairs[k.c], out = Merge(w.pairs[k.c], ev)
	if m.say != nil {
		m.say("r%d stamps %s@%d", k.c, k.kind, out.Gen)
	}
	m.fanOut(w, k, ch)
	if retry, ok := Restamp(ev, out.Gen, k.refused, k.acks, enumReplicas); ok {
		w.pairs[k.c], out = Merge(w.pairs[k.c], retry)
		if m.say != nil {
			m.say("%d/%d acks: r%d re-stamps above %d: %s@%d", k.acks, enumReplicas, k.c, k.refused, k.kind, out.Gen)
		}
		m.fanOut(w, k, ch)
	}
	return k.acks
}

// fanOut sends coordinator k.c's stamped state to the two other replicas,
// as overlay.Peer.fanOutMutation and applyDirect do, counting acks and
// refusals into k. Each leg is applied now or late (or, in naive mode, now
// and again late). A replica read for the first time in this coordination
// catches up first. When the two replicas are interchangeable, the
// second's fate is no earlier than the first's.
func (m *enumModel) fanOut(w *enumWorld, k *coord, ch *chooser) {
	k.acks, k.refused = 1, 0
	st := w.pairs[k.c]
	fates := 2
	if m.naive {
		fates = 3
	}
	o := others(k.c)
	sym := !m.naive && w.interchangeable(o[0], o[1])
	var legs []string
	first := 0
	for i, r := range o {
		var fate int
		if i == 1 && sym {
			fate = first + ch.pick(fates-first)
		} else {
			fate = ch.pick(fates)
		}
		if fate != 1 { // 0 now, 1 late, 2 now and again late
			if !k.read[r] && !m.naive {
				k.read[r] = true
				m.catchUp(w, r, st, -1, ch)
			}
			w.rings[r] |= 1 << k.op
			var out Outcome
			w.pairs[r], out = Merge(w.pairs[r], Event{Op: Replicate, Kind: st.Kind, Gen: st.Gen})
			if out.Acked {
				k.acks++
			} else {
				k.refused = max(k.refused, out.Gen)
			}
			if m.say != nil {
				legs = append(legs, fmt.Sprintf("leg r%d %s", r, legResult(st.Kind, out)))
			}
		}
		if fate != 0 {
			w.send(legMsg(r, st, k.op))
			if m.say != nil {
				legs = append(legs, fmt.Sprintf("leg r%d late", r))
			}
		}
		if i == 0 {
			first = fate
		}
	}
	if m.say != nil {
		m.say("%s", strings.Join(legs, ", "))
	}
}

// exchanged returns the replicas' states after a full exchange.
func (w *enumWorld) exchanged() [enumReplicas]PairState {
	p := w.pairs
	for changed := true; changed; {
		changed = false
		for a := range p {
			for b := range p {
				if n, _ := Merge(p[b], Event{Op: Replicate, Kind: p[a].Kind, Gen: p[a].Gen}); n != p[b] {
					p[b], changed = n, true
				}
			}
		}
	}
	return p
}

// violations returns, per quorum, the properties w — or the step that made
// it — violates.
func (w *enumWorld) violations() (v [len(enumQuorums)]int) {
	p := w.exchanged()
	live := p[0].Kind == Live
	for i := range v {
		if p[0] != p[1] || p[1] != p[2] {
			v[i] |= propConverge
		}
		if w.owed[i]&owedLive != 0 && !live {
			v[i] |= propPutKept
		}
		if w.owed[i]&owedTomb != 0 && live {
			v[i] |= propDeleteKept
		}
		if w.twice {
			v[i] |= propOnce
		}
	}
	return v
}

// successors calls visit with every world one step from w, and the script
// of choices that leads there.
func (m *enumModel) successors(w enumWorld, visit func(enumWorld, []uint8)) {
	if m.coordinations(&w) == 0 {
		return
	}
	var run func(script []uint8)
	run = func(script []uint8) {
		ch := newChooser(script)
		visit(m.step(w, ch), ch.taken)
		for k := len(ch.taken) - 1; k >= len(script); k-- {
			for v := uint8(1); v < ch.sizes[k]; v++ {
				run(append(ch.taken[:k:k], v))
			}
		}
	}
	run(nil)
}

type enumResult struct {
	states, transitions int
	// outcomes holds what the properties read of every world reached: the
	// exchanged state's kind, the promises per quorum and the ops issued.
	// (Whether a step coordinated twice is in shortest.)
	outcomes map[[4]byte]bool
	// shortest holds, per quorum and violated property, the first
	// counter-example the breadth-first search met: one script per step.
	shortest [len(enumQuorums)]map[int][][]uint8
}

// explore enumerates every world reachable from the empty one, breadth
// first, and records a shortest counter-example of each property.
func (m *enumModel) explore() enumResult {
	type node struct {
		parent int32
		script string
	}
	type frontier struct {
		w  enumWorld
		id int32
	}
	res := enumResult{outcomes: map[[4]byte]bool{}}
	for i := range res.shortest {
		res.shortest[i] = map[int][][]uint8{}
	}
	nodes := []node{{parent: -1}}
	path := func(id int32) [][]uint8 {
		var out [][]uint8
		for ; nodes[id].parent >= 0; id = nodes[id].parent {
			out = append([][]uint8{[]uint8(nodes[id].script)}, out...)
		}
		return out
	}
	start := enumWorld{}
	seen := map[string]struct{}{start.key(m): {}}
	level := []frontier{{start, 0}}
	for len(level) > 0 {
		var next []frontier
		// Most steps land on a world met before in the very same form; only
		// a new one is worth checking and canonicalising. Worlds met on an
		// earlier level are found in seen instead.
		met := map[string]struct{}{}
		for _, cur := range level {
			m.successors(cur.w, func(w enumWorld, script []uint8) {
				res.transitions++
				raw := w.raw()
				if _, ok := met[raw]; ok {
					return
				}
				met[raw] = struct{}{}
				res.outcomes[[4]byte{byte(w.exchanged()[0].Kind), w.owed[0], w.owed[1], w.issued}] = true
				for i, v := range w.violations() {
					for _, p := range propOrder {
						if v&p != 0 && res.shortest[i][p] == nil {
							res.shortest[i][p] = append(path(cur.id), script)
						}
					}
				}
				k := raw
				if !m.naive {
					k = w.key(m)
				}
				if _, ok := seen[k]; ok {
					return
				}
				seen[k] = struct{}{}
				nodes = append(nodes, node{parent: cur.id, script: string(script)})
				next = append(next, frontier{w, int32(len(nodes) - 1)})
			})
		}
		level = next
	}
	res.states = len(seen)
	return res
}

// replay runs a history of scripts from the empty world, narrating each
// step at the given quorum, and returns the final world and the narration.
func (m enumModel) replay(quorum int, hist [][]uint8) (enumWorld, []string) {
	var lines, parts []string
	m.quorum = quorum
	m.say = func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	w := enumWorld{}
	for _, script := range hist {
		parts = parts[:0]
		w = m.step(w, newChooser(script))
		lines = append(lines, strings.Join(parts, " | "))
	}
	p := w.exchanged()
	end := fmt.Sprintf("after exchange: %s@%d everywhere", p[0].Kind, p[0].Gen)
	if p[0] != p[1] || p[1] != p[2] {
		end = fmt.Sprintf("after exchange: r0 %s@%d, r1 %s@%d, r2 %s@%d", p[0].Kind, p[0].Gen, p[1].Kind, p[1].Gen, p[2].Kind, p[2].Gen)
	}
	return w, append(lines, end)
}

// TestMergeLaws checks that Merge on Replicate events is a join:
// commutative, associative and idempotent over every state of a small
// generation range.
func TestMergeLaws(t *testing.T) {
	states := []PairState{{}}
	for g := uint64(0); g < 4; g++ {
		states = append(states, PairState{Kind: Live, Gen: g}, PairState{Kind: Tombstoned, Gen: g})
	}
	join := func(a, b PairState) PairState {
		s, _ := Merge(a, Event{Op: Replicate, Kind: b.Kind, Gen: b.Gen})
		return s
	}
	for _, a := range states {
		for _, b := range states {
			if join(a, b) != join(b, a) {
				t.Errorf("not commutative: %v, %v", a, b)
			}
			if join(join(a, b), b) != join(a, b) {
				t.Errorf("not idempotent: %v, %v", a, b)
			}
			for _, c := range states {
				if join(join(a, b), c) != join(a, join(b, c)) {
					t.Errorf("not associative: %v, %v, %v", a, b, c)
				}
			}
		}
	}
}

// enumScopes are the scopes TestMergeEnumerate explores, and naiveScopes
// those it also explores with every reduction off, to check that the
// reductions reach the same outcomes. Under PGRID_SOAK both are larger.
var (
	enumScopes      = []enumModel{{ops: 4, maxDups: 2}}
	naiveScopes     = []enumModel{{ops: 2, maxDups: 1}}
	enumSoakScopes  = []enumModel{{ops: 5, maxDups: 2}, {ops: 4}}
	naiveSoakScopes = []enumModel{{ops: 2}}
)

// TestMergeEnumerate explores every interleaving of up to four client ops
// (five under PGRID_SOAK) at quorum 1 and 2, asserts every property not in
// knownViolations, requires each known violation to still occur, and logs
// a shortest counter-example of each, plus finding 2's pinned history.
func TestMergeEnumerate(t *testing.T) {
	scopes, naives := enumScopes, naiveScopes
	if os.Getenv("PGRID_SOAK") != "" {
		scopes, naives = enumSoakScopes, naiveSoakScopes
	}
	total := 0
	for _, m := range scopes {
		res := m.explore()
		total += res.states
		t.Logf("%d ops, at most %d raced: %d states explored, %d transitions", m.ops, m.dupsLeft(&enumWorld{}), res.states, res.transitions)
		for i, quorum := range enumQuorums {
			for _, p := range propOrder {
				hist, violated := res.shortest[i][p]
				known := false
				for _, kv := range knownViolations {
					known = known || kv.prop == p && kv.quorum == quorum
				}
				switch {
				case violated && !known:
					_, story := m.replay(quorum, hist)
					t.Errorf("quorum %d: new violation of %q:\n\t%s", quorum, propNames[p], strings.Join(story, "\n\t"))
				case !violated && known:
					t.Errorf("quorum %d: %q now holds; remove it from knownViolations", quorum, propNames[p])
				case violated:
					_, story := m.replay(quorum, hist)
					t.Logf("quorum %d: known violation of %q, shortest history:\n\t%s", quorum, propNames[p], strings.Join(story, "\n\t"))
				}
			}
		}
	}
	t.Logf("states explored: %d", total)

	w, story := enumScopes[0].replay(finding2.quorum, finding2.pin)
	if w.violations()[finding2.quorum-1]&finding2.prop == 0 {
		t.Errorf("finding 2's history no longer violates %q", propNames[finding2.prop])
	}
	if got, want := strings.Join(story, "\n"), strings.Join(finding2.narration, "\n"); got != want {
		t.Errorf("finding 2's history reads\n%s\nwant\n%s", got, want)
	}
	t.Logf("finding 2 (pinned counter-example to %q at quorum %d):\n\t%s", propNames[finding2.prop], finding2.quorum, strings.Join(story, "\n\t"))

	// The reductions lose no behaviour: with every one of them off, small
	// scopes reach exactly the same outcomes.
	for _, m := range naives {
		naive := m
		naive.naive = true
		a, b := m.explore(), naive.explore()
		if fmt.Sprint(a.outcomes) != fmt.Sprint(b.outcomes) || violatedSet(a) != violatedSet(b) {
			t.Errorf("%d ops, at most %d raced: the reduced search reaches %d outcomes (%s), the naive one %d (%s)",
				m.ops, m.dupsLeft(&enumWorld{}), len(a.outcomes), violatedSet(a), len(b.outcomes), violatedSet(b))
		}
		t.Logf("%d ops, at most %d raced: %d states reduced, %d naive, same %d outcomes",
			m.ops, m.dupsLeft(&enumWorld{}), a.states, b.states, len(a.outcomes))
	}
}

// violatedSet lists the violated properties per quorum.
func violatedSet(res enumResult) string {
	var b strings.Builder
	for i, q := range enumQuorums {
		for _, p := range propOrder {
			if res.shortest[i][p] != nil {
				fmt.Fprintf(&b, "q%d:%d ", q, p)
			}
		}
	}
	return b.String()
}
