package sim

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"pgrid/internal/churn"
	"pgrid/internal/keyspace"
	"pgrid/internal/overlay"
	"pgrid/internal/replication"
	"pgrid/internal/stats"
	"pgrid/internal/workload"
)

// This file replays the PlanetLab experiment timeline of Section 5.1 with a
// virtual clock, producing the three time-series figures:
//
//	Figure 7 — number of participating peers over time,
//	Figure 8 — aggregate bandwidth (maintenance vs. queries),
//	Figure 9 — query latency mean and standard deviation.
//
// The phases follow the paper: peers join and form the unstructured overlay,
// replicate their data, construct the structured overlay, answer queries,
// and finally experience churn.

// TimelineConfig parameterises a timeline run.
type TimelineConfig struct {
	// Experiment is the underlying deployment configuration.
	Experiment Config
	// JoinEnd, ReplicateEnd, ConstructEnd, QueryEnd and ChurnEnd are the
	// phase boundaries (offsets from the experiment start). The paper uses
	// 100, 100, 300, 430 and 530 minutes; replication happens inside the
	// join phase (75–100 min).
	JoinEnd      time.Duration
	ConstructEnd time.Duration
	QueryEnd     time.Duration
	ChurnEnd     time.Duration
	// QueryInterval is the mean time between queries per peer (paper: a
	// query every 1–2 minutes per peer).
	QueryInterval time.Duration
	// WriteInterval is the mean time between routed live writes (Insert and
	// Delete) per peer during the operational phases. Zero disables the
	// write workload, reproducing the paper's read-only experiment.
	WriteInterval time.Duration
	// MaintenanceInterval is the virtual-time pause between background
	// maintenance ticks per peer (anti-entropy with a random replica plus
	// routing-reference probing) once the overlay is constructed. Zero
	// disables maintenance.
	MaintenanceInterval time.Duration
	// Churn is the churn model applied during the final phase.
	Churn churn.Model
	// RestartAt, when positive, runs the restart scenario: at this virtual
	// time a RestartFraction of the currently online peers crashes and
	// immediately restarts. With persistence configured on the experiment
	// (Config.DataDir) the restarted peers recover their durable state and
	// rejoin through the exact-delta sync path; without it they rejoin
	// empty and must be rebuilt by their replicas.
	RestartAt time.Duration
	// RestartFraction is the fraction of online peers restarted at
	// RestartAt (0 means 0.25).
	RestartFraction float64
	// HopLatency is the mean one-way latency per routing hop used to model
	// query response times (PlanetLab's shared nodes made this several
	// seconds).
	HopLatency time.Duration
	// Step is the virtual-clock resolution.
	Step time.Duration
}

// DefaultTimelineConfig returns the paper's timeline.
func DefaultTimelineConfig() TimelineConfig {
	cfg := DefaultConfig()
	cfg.Peers = 296 // the PlanetLab experiment ran with 296 peers
	cfg.Distribution = workload.NewTextCorpus(workload.DefaultCorpusConfig())
	return TimelineConfig{
		Experiment:    cfg,
		JoinEnd:       100 * time.Minute,
		ConstructEnd:  300 * time.Minute,
		QueryEnd:      430 * time.Minute,
		ChurnEnd:      530 * time.Minute,
		QueryInterval: 90 * time.Second,
		Churn:         churn.PaperModel(),
		HopLatency:    4 * time.Second,
		Step:          time.Minute,
	}
}

// TimelineResult holds the three time series plus the summary metrics the
// paper reports in the text of Section 5.2.
type TimelineResult struct {
	// Peers is the number of online peers per minute (Figure 7).
	Peers *stats.TimeSeries
	// MaintenanceBandwidth and QueryBandwidth are aggregate bytes/second
	// per minute (Figure 8).
	MaintenanceBandwidth *stats.TimeSeries
	QueryBandwidth       *stats.TimeSeries
	// QueryLatency collects per-query latencies in seconds (Figure 9).
	QueryLatency *stats.TimeSeries
	// Construction holds the quality metrics measured right after the
	// construction phase.
	Construction *Result
	// SuccessBeforeChurn and SuccessDuringChurn are query success rates in
	// the two operational phases.
	SuccessBeforeChurn, SuccessDuringChurn float64
	// WriteSuccessBeforeChurn and WriteSuccessDuringChurn are routed-write
	// (Insert/Delete) success rates in the two operational phases; both are
	// zero when the write workload is disabled.
	WriteSuccessBeforeChurn, WriteSuccessDuringChurn float64
	// ReadYourWrites is the fraction of sampled earlier inserts that a later
	// query read back — the timeline's convergence signal for live writes
	// under churn.
	ReadYourWrites float64
	// Counts sums every peer's protocol counters over the run, restarted
	// peers' predecessors included. With the digest protocol the vast
	// majority of anti-entropy rounds land in SyncsInSync.
	Counts overlay.Counts
	// TombstonesHeld is the number of tombstones held at the end of the run
	// (bounded when GC is on, growing with lifetime deletes otherwise).
	TombstonesHeld int
	// RestartedPeers is the number of peers the restart scenario bounced
	// (zero when RestartAt is unset).
	RestartedPeers int
	// PostRestart sums the counters of the restarted peers since they came
	// back: with persistence their anti-entropy rejoins run through the
	// in-sync/delta paths and SyncsFull stays at zero.
	PostRestart overlay.Counts
}

// RunTimeline replays the full experiment timeline.
func RunTimeline(cfg TimelineConfig) (*TimelineResult, error) {
	ctx := context.Background()
	if cfg.Step <= 0 {
		cfg.Step = time.Minute
	}
	e, err := New(cfg.Experiment)
	if err != nil {
		return nil, err
	}
	// The experiment is private to this run: flush and release every
	// peer's persistence (WAL fds, final fsync window) before returning.
	defer func() { _ = e.Close() }()
	rng := rand.New(rand.NewSource(cfg.Experiment.Seed + 99))
	res := &TimelineResult{
		Peers:                stats.NewTimeSeries("peers", cfg.Step),
		MaintenanceBandwidth: stats.NewTimeSeries("maintenance Bps", cfg.Step),
		QueryBandwidth:       stats.NewTimeSeries("query Bps", cfg.Step),
		QueryLatency:         stats.NewTimeSeries("query latency s", cfg.Step),
	}

	// Peers join uniformly during the join phase; data is replicated in its
	// final quarter.
	joinAt := make([]time.Duration, len(e.Peers))
	for i := range e.Peers {
		joinAt[i] = time.Duration(float64(cfg.JoinEnd) * 0.7 * rng.Float64())
	}
	replicateAt := cfg.JoinEnd * 3 / 4

	// Churn schedules for the final phase.
	schedules := make([]churn.Schedule, len(e.Peers))
	for i := range schedules {
		schedules[i] = cfg.Churn.Generate(cfg.QueryEnd, cfg.ChurnEnd, rng)
	}

	// Construction work is spread over the construction phase: each round
	// of the round-based construction driver is executed at evenly spaced
	// virtual times.
	constructTicks := int((cfg.ConstructEnd - cfg.JoinEnd) / cfg.Step)
	if constructTicks <= 0 {
		constructTicks = 1
	}
	roundsPerTick := float64(cfg.Experiment.maxRounds()) / float64(constructTicks)
	roundsDone := 0
	roundBudget := 0.0
	constructionFinished := false
	replicated := false

	var lastMaintenance, lastQuery float64
	queriesPerTick := 0.0
	if cfg.QueryInterval > 0 {
		queriesPerTick = float64(cfg.Step) / float64(cfg.QueryInterval)
	}
	writesPerTick := 0.0
	if cfg.WriteInterval > 0 {
		writesPerTick = float64(cfg.Step) / float64(cfg.WriteInterval)
	}
	maintEvery := 0
	if cfg.MaintenanceInterval > 0 {
		maintEvery = int(cfg.MaintenanceInterval / cfg.Step)
		if maintEvery < 1 {
			maintEvery = 1
		}
	}

	var successBefore, attemptsBefore, successDuring, attemptsDuring float64
	var wSuccessBefore, wAttemptsBefore, wSuccessDuring, wAttemptsDuring float64
	var readbackOK, readbackN float64
	var liveWrites []replication.Item
	var restartedIdx []int
	restartsDone := false
	writeSeq := 0
	tick := 0

	for now := time.Duration(0); now < cfg.ChurnEnd; now += cfg.Step {
		// Figure 7: online peers. Before their join time peers are not part
		// of the network; during the churn phase their schedule decides.
		online := 0
		for i, p := range e.Peers {
			isOnline := now >= joinAt[i]
			if isOnline && now >= cfg.QueryEnd && cfg.Churn.Enabled() {
				isOnline = schedules[i].OnlineAt(now)
			}
			e.Sim.SetOnline(p.Addr(), isOnline)
			if isOnline {
				online++
			}
		}
		res.Peers.Add(now, float64(online))

		// Replication kicks in towards the end of the join phase.
		if !replicated && now >= replicateAt {
			if err := e.Replicate(ctx); err != nil {
				return nil, err
			}
			replicated = true
		}

		// Construction phase.
		if replicated && now < cfg.ConstructEnd && !constructionFinished {
			roundBudget += roundsPerTick
			for roundBudget >= 1 && !constructionFinished {
				roundBudget--
				if e.ConstructRound(ctx) == 0 {
					constructionFinished = true
				}
				roundsDone++
			}
		}
		if now >= cfg.ConstructEnd && res.Construction == nil {
			m, err := e.Measure(roundsDone)
			if err != nil {
				return nil, err
			}
			res.Construction = m
		}

		// Query phase (continues through the churn phase).
		if now >= cfg.ConstructEnd {
			nQueries := int(queriesPerTick * float64(online))
			for q := 0; q < nQueries; q++ {
				origin := e.randomOnlinePeer()
				if origin == nil {
					break
				}
				ownerIdx := rng.Intn(len(e.OriginalItems))
				it := e.OriginalItems[ownerIdx][rng.Intn(len(e.OriginalItems[ownerIdx]))]
				qres, err := origin.Query(ctx, it.Key)
				inChurn := now >= cfg.QueryEnd
				if inChurn {
					attemptsDuring++
				} else {
					attemptsBefore++
				}
				if err == nil && len(qres.Items) > 0 {
					if inChurn {
						successDuring++
					} else {
						successBefore++
					}
					// Model the response time: one round trip per hop plus
					// the local processing, with PlanetLab-style jitter.
					// Failed reference attempts under churn add timeouts.
					latency := float64(qres.Hops+1) * cfg.HopLatency.Seconds() * (0.5 + rng.ExpFloat64())
					if inChurn {
						latency += rng.Float64() * 2 * cfg.HopLatency.Seconds()
					}
					res.QueryLatency.Add(now, latency)
				}
			}
		}

		// Live write workload: routed Inserts (and occasional Deletes of
		// earlier live writes) from random online origins, continuing
		// through the churn phase.
		if now >= cfg.ConstructEnd && writesPerTick > 0 {
			inChurn := now >= cfg.QueryEnd
			nWrites := int(writesPerTick * float64(online))
			for w := 0; w < nWrites; w++ {
				origin := e.randomOnlinePeer()
				if origin == nil {
					break
				}
				var err error
				if writeSeq%4 == 3 && len(liveWrites) > 0 {
					idx := rng.Intn(len(liveWrites))
					it := liveWrites[idx]
					_, err = origin.Delete(ctx, it.Key, it.Value)
					liveWrites = append(liveWrites[:idx], liveWrites[idx+1:]...)
				} else {
					it := replication.Item{
						Key:   keyspace.MustFromFloat(cfg.Experiment.Distribution.Sample(rng), keyspace.DefaultDepth),
						Value: fmt.Sprintf("live-%d", writeSeq),
					}
					_, err = origin.Insert(ctx, it)
					if err == nil {
						liveWrites = append(liveWrites, it)
					}
				}
				writeSeq++
				if inChurn {
					wAttemptsDuring++
					if err == nil {
						wSuccessDuring++
					}
				} else {
					wAttemptsBefore++
					if err == nil {
						wSuccessBefore++
					}
				}
			}
			// Read-your-writes probe: sample earlier inserts and check a
			// query from a random origin reads them back.
			for s := 0; s < 3 && len(liveWrites) > 0; s++ {
				it := liveWrites[rng.Intn(len(liveWrites))]
				origin := e.randomOnlinePeer()
				if origin == nil {
					break
				}
				readbackN++
				if qres, err := origin.Query(ctx, it.Key); err == nil {
					for _, got := range qres.Items {
						if got.Value == it.Value {
							readbackOK++
							break
						}
					}
				}
			}
		}

		// Restart scenario: a slice of the online population crashes and
		// comes back, recovering durable state when the experiment is
		// persistent. The subsequent maintenance ticks show whether the
		// rejoin takes the cheap delta path or degrades to rebuilds.
		if cfg.RestartAt > 0 && !restartsDone && now >= cfg.RestartAt {
			restartsDone = true
			frac := cfg.RestartFraction
			if frac <= 0 {
				frac = 0.25
			}
			for i, p := range e.Peers {
				if now < joinAt[i] {
					continue
				}
				if ep := e.Sim.Lookup(p.Addr()); ep == nil || !ep.Online() {
					continue
				}
				if rng.Float64() >= frac {
					continue
				}
				if err := e.RestartPeer(i); err != nil {
					return nil, err
				}
				restartedIdx = append(restartedIdx, i)
			}
			res.RestartedPeers = len(restartedIdx)
		}

		// Background maintenance: anti-entropy plus routing probes on every
		// online peer at the configured virtual-time cadence, which is what
		// lets writes converge and churned peers catch up without a manual
		// re-Build.
		if maintEvery > 0 && now >= cfg.ConstructEnd && tick%maintEvery == 0 {
			for _, p := range e.onlinePeers() {
				p.MaintainTick(ctx, overlay.MaintenanceOptions{})
			}
		}
		tick++

		// Figure 8: bandwidth per second, split by purpose, from the bytes
		// the peers' endpoints counted (an endpoint outlives a restart, so
		// the cumulative series never jumps backwards).
		var maintenance, query float64
		for _, p := range e.Peers {
			q, m := p.Bandwidth()
			maintenance += m
			query += q
		}
		res.MaintenanceBandwidth.Add(now, (maintenance-lastMaintenance)/cfg.Step.Seconds())
		res.QueryBandwidth.Add(now, (query-lastQuery)/cfg.Step.Seconds())
		lastMaintenance, lastQuery = maintenance, query
	}

	if res.Construction == nil {
		m, err := e.Measure(roundsDone)
		if err != nil {
			return nil, err
		}
		res.Construction = m
	}
	if attemptsBefore > 0 {
		res.SuccessBeforeChurn = successBefore / attemptsBefore
	}
	if attemptsDuring > 0 {
		res.SuccessDuringChurn = successDuring / attemptsDuring
	}
	if wAttemptsBefore > 0 {
		res.WriteSuccessBeforeChurn = wSuccessBefore / wAttemptsBefore
	}
	if wAttemptsDuring > 0 {
		res.WriteSuccessDuringChurn = wSuccessDuring / wAttemptsDuring
	}
	if readbackN > 0 {
		res.ReadYourWrites = readbackOK / readbackN
	}
	res.Counts = e.Counts()
	for _, p := range e.Peers {
		res.TombstonesHeld += p.Store().TombstoneCount()
	}
	// Restarted peers' counters were zeroed at the restart, so what they
	// show now is exactly their post-restart behaviour.
	for _, i := range restartedIdx {
		res.PostRestart.Add(e.Peers[i].Counts())
	}
	return res, nil
}

// randomOnlinePeer returns a random online peer or nil.
func (e *Experiment) randomOnlinePeer() *overlay.Peer {
	online := e.onlinePeers()
	if len(online) == 0 {
		return nil
	}
	return online[e.rng.Intn(len(online))]
}

// Summary renders the headline numbers of a timeline run.
func (r *TimelineResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "construction: %s\n", r.Construction)
	fmt.Fprintf(&b, "query success before churn: %.2f during churn: %.2f\n", r.SuccessBeforeChurn, r.SuccessDuringChurn)
	if r.WriteSuccessBeforeChurn > 0 || r.WriteSuccessDuringChurn > 0 {
		fmt.Fprintf(&b, "write success before churn: %.2f during churn: %.2f read-your-writes: %.2f\n",
			r.WriteSuccessBeforeChurn, r.WriteSuccessDuringChurn, r.ReadYourWrites)
	}
	c := r.Counts
	if c[overlay.SyncsInSync]+c[overlay.SyncsDelta]+c[overlay.SyncsFull] > 0 {
		fmt.Fprintf(&b, "anti-entropy rounds: %.0f in-sync, %.0f delta, %.0f full; tombstones pruned: %.0f held: %d\n",
			c[overlay.SyncsInSync], c[overlay.SyncsDelta], c[overlay.SyncsFull], c[overlay.TombstonesPruned], r.TombstonesHeld)
	}
	if r.RestartedPeers > 0 {
		pr := r.PostRestart
		fmt.Fprintf(&b, "restarted peers: %d (post-restart syncs: %.0f in-sync, %.0f delta, %.0f full)\n",
			r.RestartedPeers, pr[overlay.SyncsInSync], pr[overlay.SyncsDelta], pr[overlay.SyncsFull])
	}
	lat := r.QueryLatency.Buckets()
	if len(lat) > 0 {
		var means []float64
		for _, bs := range lat {
			means = append(means, bs.Mean)
		}
		fmt.Fprintf(&b, "mean query latency: %.1fs\n", stats.Mean(means))
	}
	return b.String()
}
