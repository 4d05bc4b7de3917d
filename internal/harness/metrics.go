package harness

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Metrics is one parsed Prometheus-text /metrics scrape: sample name plus
// raw label block ("" for unlabelled samples) to value. Tests read it by
// series name through Value and Sum.
type Metrics map[string]map[string]float64

// Value returns the sample with the exact label block (e.g.
// `{kind="delta"}`, or "" for an unlabelled metric).
func (m Metrics) Value(name, labels string) float64 {
	return m[name][labels]
}

// Sum adds every sample of name whose label block contains all the given
// substrings (e.g. Sum("pgrid_gate_requests_total", `route="search"`)).
func (m Metrics) Sum(name string, labelContains ...string) float64 {
	total := 0.0
	for labels, v := range m[name] {
		ok := true
		for _, want := range labelContains {
			if !strings.Contains(labels, want) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// parseMetrics reads Prometheus text exposition into a Metrics map. It
// understands exactly what the repo's stdlib-only exporter emits: `name
// value` and `name{labels} value` lines, with # comments.
func parseMetrics(r io.Reader) (Metrics, error) {
	m := make(Metrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			continue // histogram "+Inf" etc. never hits this; be lenient
		}
		name, labels := series, ""
		if br := strings.IndexByte(series, '{'); br >= 0 {
			name, labels = series[:br], series[br:]
		}
		if m[name] == nil {
			m[name] = make(map[string]float64)
		}
		m[name][labels] = val
	}
	return m, sc.Err()
}

// ScrapeMetrics fetches and parses url's /metrics exposition.
func ScrapeMetrics(url string) (Metrics, error) {
	resp, err := httpClient.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("harness: scrape %s: status %d", url, resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// Metrics scrapes the node's /metrics. The node must serve the HTTP API.
func (n *Node) Metrics() (Metrics, error) {
	if n.HTTPAddr == "" {
		return nil, fmt.Errorf("harness: %s serves no HTTP API to scrape", n.proc.name)
	}
	return ScrapeMetrics("http://" + n.HTTPAddr)
}

// Metrics scrapes the gateway's /metrics.
func (g *Gate) Metrics() (Metrics, error) {
	return ScrapeMetrics(g.URL)
}
