// Command perfbench is the repository's benchmark: it runs one
// workload against the enmc code in this checkout, checks every answer
// against a reference it computes itself, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer ledger) as one JSON object
// on the last line of standard output.
//
// Run it through run.sh, which builds the program from source first:
//
//	bash perfbench/run.sh --workload classify-268k --seed 1 --seconds 10 --trace 0
//
// Workloads are described in README.md; BENCHMARK.json at the
// repository root lists them with their metrics and bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them on an untraced run. "op" is a query
// (classify-268k), a request (cluster-3shard) or a token (decode-33k).
// Throughput and the tail latency are in the ledger instead: on a
// shared host, a spell of contention from other tenants moves them by
// more than any bound allows (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
	{"success_pct", "%"},
}

// perLayer is the ledger a traced run prints. Every traced run reports
// every entry; a layer a workload does not run through reports 0.
var perLayer = []metricDef{
	{"trace.overhead_pct", "%"},
	{"throughput_per_s", "1/s"},
	{"latency_tail_ms", "ms"},
	{"top1_agree_pct", "%"},
	{"ttft_p50_ms", "ms"},
	{"ttft_tail_ms", "ms"},

	{"core.screen_ms", "ms"},
	{"core.select_ms", "ms"},
	{"core.exact_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"core.screen_gb_per_s", "GB/s"},
	{"core.exact_gb_per_s", "GB/s"},
	{"core.alloc_mb_per_op", "MB"},
	{"core.load_s", "s"},

	{"router.cpu_ms_per_op", "ms"},
	{"worker.cpu_ms_per_op", "ms"},
	{"router.rss_mb", "MB"},
	{"worker.rss_mb", "MB"},
	{"server.queue_wait_ms", "ms"},
	{"server.flush_ms", "ms"},
	{"server.batch_size", "count"},
	{"server.degraded_pct", "%"},
	{"cluster.shard_rpc_ms", "ms"},
	{"cluster.rpcs_per_request", "ratio"},
	{"worker.screen_ms", "ms"},
	{"worker.select_ms", "ms"},
	{"worker.exact_ms", "ms"},
	{"cluster.encode_us", "us"},
	{"cluster.decode_us", "us"},
	{"cluster.merge_us", "us"},
	{"loadgen.send_lag_p99_ms", "ms"},

	{"decode.score_step_ms", "ms"},
	{"decode.state_step_ms", "ms"},
	{"decode.token_ms", "ms"},
	{"decode.cache_hit_pct", "%"},
	{"server.stream_overhead_ms", "ms"},
	{"decode.m_mean", "count"},
	{"decode.degraded_pct", "%"},
}

// runConfig is what a workload needs to run once.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	bin     string // directory holding the built enmc-serve and enmc-shard
	self    string // this executable, for helper processes
	dir     string // scratch directory for models and logs, removed afterwards
	traceTo string // Chrome trace output path (traced runs)
}

// outcome is one run's result before it is printed.
type outcome struct {
	attempted, failed int
	valid             bool // false when the run itself was not sound (see notes)
	metrics           map[string]float64
	notes             []string // human-readable lines (sample counts, percentiles used)
}

func newOutcome() *outcome { return &outcome{valid: true, metrics: map[string]float64{}} }

func (o *outcome) note(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// invalid marks the run unsound: its answers may be right, but the
// measurement does not mean what it claims.
func (o *outcome) invalid(format string, args ...interface{}) {
	o.valid = false
	o.note("INVALID: "+format, args...)
}

var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"classify-268k":  runClassify,
	"cluster-3shard": runCluster,
	"decode-33k":     runDecode,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: classify-268k, cluster-3shard or decode-33k")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same models and inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1: print the per-layer ledger instead of the end-to-end metrics")
	bin := flag.String("bin", "", "directory holding the built enmc-serve and enmc-shard binaries")
	out := flag.String("out", ".bench_build", "directory for scratch files and traces")
	role := flag.String("role", "", "internal: run as a helper process")
	dir := flag.String("dir", "", "internal: helper's model directory")
	mode := flag.String("mode", "", "internal: classify runner mode (facade or layers)")
	loads := flag.Int("loads", 1, "internal: classify runner model loads")
	traceTo := flag.String("trace-to", "", "internal: classify runner trace output")
	flag.Parse()

	switch *role {
	case "":
	case roleGenClassify:
		return helperExit(genClassify268k(*dir, *seed))
	case roleClassifyRunner:
		return helperExit(classifyRunner(os.Stdout, runnerArgs{
			dir: *dir, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
			mode: *mode, loads: *loads, traceTo: *traceTo,
		}))
	default:
		fmt.Fprintf(os.Stderr, "unknown role %q\n", *role)
		return 2
	}

	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {classify-268k|cluster-3shard|decode-33k} --seed N --seconds S --trace {0|1}\n")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	absOut, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(absOut, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	scratch, err := os.MkdirTemp(absOut, "run-"+*workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(scratch)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		bin:     *bin,
		self:    self,
		dir:     scratch,
	}
	if cfg.trace {
		cfg.traceTo = filepath.Join(absOut, "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := os.MkdirAll(filepath.Dir(cfg.traceTo), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	o, err := fn(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *workload, err)
		return 1
	}
	return report(*workload, cfg, o)
}

// helperExit maps a helper process's error to its exit status.
func helperExit(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// report prints the human-readable table and, last, the JSON result.
func report(workload string, cfg runConfig, o *outcome) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("# %s seed=%d seconds=%g trace=%v\n", workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	for _, n := range o.notes {
		fmt.Println("# " + n)
	}
	res := jsonResult{
		Correct:   o.valid && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		v := o.metrics[d.name]
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Printf("%-28s %14.4f %s\n", d.name, v, d.unit)
	}
	if extra := unknownMetrics(o.metrics); len(extra) > 0 {
		fmt.Fprintf(os.Stderr, "internal error: unlisted metrics %v\n", extra)
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "no operation completed in the measured window")
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// unknownMetrics lists computed metrics that neither table declares.
func unknownMetrics(m map[string]float64) []string {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	var out []string
	for k := range m {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
