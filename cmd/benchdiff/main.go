// Command benchdiff compares two `go test -bench` outputs (typically the PR
// head and the merge base) and fails when a gated benchmark regressed by
// more than the threshold. It is the CI benchmark-regression gate: benchstat
// renders the human-readable diff, benchdiff makes the pass/fail decision
// with no dependencies outside the standard library, so the gate also runs
// locally:
//
//	go test -run '^$' -bench . -benchmem -count=5 . > head.txt
//	git stash && go test -run '^$' -bench . -benchmem -count=5 . > base.txt && git stash pop
//	go run ./cmd/benchdiff -base base.txt -head head.txt
//
// Benchmarks are aggregated by name (the -cpu suffix is stripped) using the
// median ns/op across repetitions, which is robust against one noisy run.
// Only benchmarks matching -match gate the build; everything else is
// reported informationally. The comparison is written as JSON (for the CI
// artifact) and as a GitHub-flavored markdown table (for the step summary).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// sampleSet collects the per-repetition measurements of one benchmark.
type sampleSet struct {
	nsPerOp     []float64
	bytesPerOp  []float64
	allocsPerOp []float64
}

// result is one benchmark's comparison, serialised into the JSON artifact.
type result struct {
	Name        string  `json:"name"`
	BaseNsOp    float64 `json:"base_ns_op"`
	HeadNsOp    float64 `json:"head_ns_op"`
	DeltaPct    float64 `json:"delta_pct"`
	BaseSamples int     `json:"base_samples"`
	HeadSamples int     `json:"head_samples"`
	Gated       bool    `json:"gated"`
	Regressed   bool    `json:"regressed"`
	Note        string  `json:"note,omitempty"`
}

// report is the top-level JSON artifact.
type report struct {
	ThresholdPct float64  `json:"threshold_pct"`
	GatePattern  string   `json:"gate_pattern"`
	Regressions  []string `json:"regressions"`
	Results      []result `json:"results"`
}

func main() {
	base := flag.String("base", "", "bench output of the comparison base (required)")
	head := flag.String("head", "", "bench output of the candidate (required)")
	threshold := flag.Float64("threshold", 15, "maximal tolerated ns/op regression in percent on gated benchmarks")
	match := flag.String("match", "Query|Search|Batch|Lookup|Insert|Delete|Mutation|AntiEntropy|Store|Wire|TCPCall|Engine|Cache",
		"regexp selecting the gated hot-path benchmarks")
	jsonOut := flag.String("json", "", "write the comparison as JSON to this file")
	mdOut := flag.String("markdown", "", "write the comparison as a markdown table to this file (- for stdout)")
	flag.Parse()
	if *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -base and -head are required")
		flag.Usage()
		os.Exit(2)
	}
	gate, err := regexp.Compile(*match)
	if err != nil {
		fatal("bad -match pattern: %v", err)
	}
	baseSamples, err := parseFile(*base)
	if err != nil {
		fatal("parse %s: %v", *base, err)
	}
	headSamples, err := parseFile(*head)
	if err != nil {
		fatal("parse %s: %v", *head, err)
	}

	rep := compare(baseSamples, headSamples, gate, *threshold)
	rep.GatePattern = *match

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal("marshal: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatal("write %s: %v", *jsonOut, err)
		}
	}
	md := markdown(rep)
	switch *mdOut {
	case "":
	case "-":
		fmt.Print(md)
	default:
		if err := os.WriteFile(*mdOut, []byte(md), 0o644); err != nil {
			fatal("write %s: %v", *mdOut, err)
		}
	}

	for _, r := range rep.Results {
		mark := " "
		if r.Regressed {
			mark = "!"
		}
		fmt.Printf("%s %-44s %12.0f -> %10.0f ns/op  %+7.1f%%  %s\n",
			mark, r.Name, r.BaseNsOp, r.HeadNsOp, r.DeltaPct, r.Note)
	}
	if len(rep.Regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d hot-path benchmark(s) regressed more than %.0f%%: %s\n",
			len(rep.Regressions), rep.ThresholdPct, strings.Join(rep.Regressions, ", "))
		os.Exit(1)
	}
	fmt.Printf("benchdiff: no gated benchmark regressed more than %.0f%%\n", rep.ThresholdPct)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(2)
}

// benchLine matches one benchmark result line of `go test -bench` output.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

// parseFile reads a bench output file into per-benchmark sample sets.
func parseFile(path string) (map[string]*sampleSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

func parse(r io.Reader) (map[string]*sampleSet, error) {
	out := make(map[string]*sampleSet)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := stripCPUSuffix(m[1])
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		s := out[name]
		if s == nil {
			s = &sampleSet{}
			out[name] = s
		}
		s.nsPerOp = append(s.nsPerOp, ns)
		if m[4] != "" {
			if b, err := strconv.ParseFloat(m[4], 64); err == nil {
				s.bytesPerOp = append(s.bytesPerOp, b)
			}
		}
		if m[5] != "" {
			if a, err := strconv.ParseFloat(m[5], 64); err == nil {
				s.allocsPerOp = append(s.allocsPerOp, a)
			}
		}
	}
	return out, sc.Err()
}

// stripCPUSuffix removes the -<GOMAXPROCS> suffix from a benchmark name.
func stripCPUSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// median returns the median of the samples (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// compare builds the comparison report.
func compare(base, head map[string]*sampleSet, gate *regexp.Regexp, threshold float64) report {
	rep := report{ThresholdPct: threshold, Regressions: []string{}}
	names := make([]string, 0, len(head))
	for name := range head {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := head[name]
		r := result{Name: name, HeadNsOp: median(h.nsPerOp), HeadSamples: len(h.nsPerOp)}
		b, ok := base[name]
		if !ok {
			r.Note = "new benchmark (no base)"
			rep.Results = append(rep.Results, r)
			continue
		}
		r.BaseNsOp = median(b.nsPerOp)
		r.BaseSamples = len(b.nsPerOp)
		if r.BaseNsOp > 0 {
			r.DeltaPct = (r.HeadNsOp - r.BaseNsOp) / r.BaseNsOp * 100
		}
		r.Gated = gate.MatchString(name)
		if r.Gated && r.DeltaPct > threshold {
			r.Regressed = true
			rep.Regressions = append(rep.Regressions, name)
		}
		if r.BaseSamples < 3 || r.HeadSamples < 3 {
			r.Note = "few samples; noisy"
		}
		rep.Results = append(rep.Results, r)
	}
	for name := range base {
		if _, ok := head[name]; !ok {
			rep.Results = append(rep.Results, result{
				Name: name, BaseNsOp: median(base[name].nsPerOp),
				BaseSamples: len(base[name].nsPerOp), Note: "removed benchmark (no head)",
			})
		}
	}
	return rep
}

// markdown renders the report as a GitHub-flavored table.
func markdown(rep report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Benchmark comparison (gate: >%.0f%% on `%s`)\n\n", rep.ThresholdPct, rep.GatePattern)
	if len(rep.Regressions) == 0 {
		b.WriteString("No gated hot-path benchmark regressed.\n\n")
	} else {
		fmt.Fprintf(&b, "**%d regression(s): %s**\n\n", len(rep.Regressions), strings.Join(rep.Regressions, ", "))
	}
	b.WriteString("| benchmark | base ns/op | head ns/op | delta | gated | |\n")
	b.WriteString("|---|---:|---:|---:|:-:|---|\n")
	for _, r := range rep.Results {
		status := ""
		if r.Regressed {
			status = "❌ regressed"
		} else if r.Note != "" {
			status = r.Note
		}
		gated := ""
		if r.Gated {
			gated = "✓"
		}
		fmt.Fprintf(&b, "| %s | %.0f | %.0f | %+.1f%% | %s | %s |\n",
			strings.TrimPrefix(r.Name, "Benchmark"), r.BaseNsOp, r.HeadNsOp, r.DeltaPct, gated, status)
	}
	return b.String()
}
