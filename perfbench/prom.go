package main

// Before/after deltas of the counters and histograms the program
// exports on GET /metrics (Prometheus text format). The parser is the
// benchmark's own, so a change to the program's parser cannot move
// the numbers.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSnap maps a sample name to its value summed over label sets
// (histogram buckets are skipped: the ledger uses _sum and _count).
type promSnap map[string]float64

func parseProm(r io.Reader) (promSnap, error) {
	snap := promSnap{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 && i < len(name) {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics: unterminated labels in %q", line)
			}
			name, rest, ok = line[:i], strings.TrimSpace(line[j+1:]), true
		}
		if !ok {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		val, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		snap[name] += v
	}
	return snap, sc.Err()
}

// scrape fetches and parses base+"/metrics".
func scrape(client *http.Client, base string) (promSnap, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseProm(bytes.NewReader(body))
}

// promName is the exposition name of a registry instrument
// ("core.classify.screen_ns" → "core_classify_screen_ns").
func promName(registry string) string { return strings.ReplaceAll(registry, ".", "_") }

// delta is the growth of a counter between two snapshots.
func (after promSnap) delta(before promSnap, instrument string) float64 {
	n := promName(instrument)
	return after[n] - before[n]
}

// histMean is the mean observation a histogram recorded between two
// snapshots, and how many observations that was.
func (after promSnap) histMean(before promSnap, instrument string) (mean float64, count float64) {
	count = after.delta(before, instrument+"_count")
	if count == 0 {
		return 0, 0
	}
	return after.delta(before, instrument+"_sum") / count, count
}
