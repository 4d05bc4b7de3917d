// Command pgridsim runs a single construction experiment of the P-Grid
// overlay and reports its load-balancing and query-performance metrics.
//
// Example:
//
//	pgridsim -peers 256 -keys 10 -dist P1.0 -nmin 5 -dmax 50 -queries 200
package main

import (
	"flag"
	"fmt"
	"os"

	"pgrid/internal/overlay"
	"pgrid/internal/sim"
	"pgrid/internal/workload"
)

func main() {
	var (
		peers    = flag.Int("peers", 256, "number of peers")
		keys     = flag.Int("keys", 10, "data items per peer")
		dist     = flag.String("dist", "U", "key distribution: U, P0.5, P1.0, P1.5, N, A")
		nmin     = flag.Int("nmin", 5, "minimal replication factor n_min")
		dmax     = flag.Int("dmax", 0, "maximal storage load d_max (0 = 10*nmin)")
		samples  = flag.Int("samples", 0, "sample size for load estimation (0 = all local keys)")
		corr     = flag.Bool("corrected", false, "use bias-corrected decision probabilities")
		heur     = flag.Bool("heuristic", false, "use naive heuristic probabilities (ablation)")
		rounds   = flag.Int("rounds", 100, "maximum construction rounds")
		queries  = flag.Int("queries", 200, "number of exact-match queries to evaluate")
		offline  = flag.Float64("offline", 0, "fraction of peers taken offline before the query phase")
		seed     = flag.Int64("seed", 1, "random seed")
		refs     = flag.Int("refs", 3, "routing references per level")
		showHelp = flag.Bool("help", false, "show usage")
	)
	flag.Parse()
	if *showHelp {
		flag.Usage()
		return
	}
	d, err := workload.ByName(*dist)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgridsim:", err)
		os.Exit(1)
	}
	maxKeys := *dmax
	if maxKeys <= 0 {
		maxKeys = 10 * *nmin
	}
	cfg := sim.Config{
		Peers:        *peers,
		KeysPerPeer:  *keys,
		Distribution: d,
		Overlay: overlay.Config{
			MaxKeys:       maxKeys,
			MinReplicas:   *nmin,
			Samples:       *samples,
			UseCorrection: *corr,
			UseHeuristic:  *heur,
			MaxRefs:       *refs,
		},
		MaxRounds:       *rounds,
		Queries:         *queries,
		OfflineFraction: *offline,
		Seed:            *seed,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgridsim:", err)
		os.Exit(1)
	}
	fmt.Printf("peers=%d keys/peer=%d distribution=%s nmin=%d dmax=%d\n", *peers, *keys, d.Name(), *nmin, maxKeys)
	fmt.Println(res)
	fmt.Printf("rounds=%d converged=%.0f%% max-path=%d replication-cv=%.3f below-min=%.1f%%\n",
		res.Rounds, res.ConvergedFraction*100, res.MaxPathLength, res.Replication.CoefVariation, res.Replication.FractionBelowMin*100)
}
