package main

// cluster-3shard: an enmc-serve -cluster router in front of three
// enmc-shard workers (one replica each), as separate processes, under
// an open loop of single-item /v1/classify requests at a fixed rate
// low enough that the queue never grows and no batch degrades. The
// slices are cache-resident, so HTTP, the router's micro-batcher, the
// ENM2 codec, the scatter and the merge do most of the work.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"enmc/internal/cluster"
	"enmc/internal/distributed"
	"enmc/internal/telemetry"
	"enmc/internal/xrand"
)

const (
	// clusterRate keeps the two senders' connections under half busy
	// when the host is slow: at 150 req/s a run that met a contended
	// host saturated both and its backlog grew for the whole window.
	clusterRate   = 100.0 // requests per second, open loop
	clusterM      = clusterL / 64
	clusterWarmup = time.Second
	clusterSetups = 5
	clusterPool   = 256 // distinct query vectors
)

// clusterSystem is one running router + workers.
type clusterSystem struct {
	router  *proc
	workers group
	base    string   // router URL
	shards  []string // worker URLs
}

func (s *clusterSystem) all() group { return append(group{s.router}, s.workers...) }

func (s *clusterSystem) stop() { s.all().stop() }

// startCluster starts the workers (each loads the global classifier
// and trains its slice's screener), then the router, and returns once
// the router is ready.
func startCluster(ctx context.Context, c runConfig, client *http.Client, n int) (*clusterSystem, error) {
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	sys := &clusterSystem{}
	for i := 0; i < clusterShards; i++ {
		p, err := startProc(c.dir, fmt.Sprintf("worker%d-%d", i, n), filepath.Join(c.bin, "enmc-shard"),
			"-addr", "127.0.0.1:0", "-port-file", filepath.Join(c.dir, fmt.Sprintf("worker%d-%d.port", i, n)),
			"-shard-index", fmt.Sprint(i), "-shard-count", fmt.Sprint(clusterShards),
			"-classifier", filepath.Join(c.dir, fileClassifier), "-features", filepath.Join(c.dir, fileFeatures),
			"-epochs", fmt.Sprint(clusterEpochs), "-demo-seed", fmt.Sprint(c.seed))
		if err != nil {
			sys.stop()
			return nil, err
		}
		sys.workers = append(sys.workers, p)
	}
	var spec []string
	for i, p := range sys.workers {
		port, err := p.waitPort(ctx, filepath.Join(c.dir, fmt.Sprintf("worker%d-%d.port", i, n)))
		if err != nil {
			sys.stop()
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		spec = append(spec, addr)
		sys.shards = append(sys.shards, "http://"+addr)
	}
	for i, p := range sys.workers {
		if err := p.waitReady(ctx, client, sys.shards[i]); err != nil {
			sys.stop()
			return nil, err
		}
	}
	router, err := startProc(c.dir, fmt.Sprintf("router-%d", n), filepath.Join(c.bin, "enmc-serve"),
		"-addr", "127.0.0.1:0", "-port-file", filepath.Join(c.dir, fmt.Sprintf("router-%d.port", n)),
		"-cluster", spec[0]+";"+spec[1]+";"+spec[2])
	if err != nil {
		sys.stop()
		return nil, err
	}
	sys.router = router
	port, err := router.waitPort(ctx, filepath.Join(c.dir, fmt.Sprintf("router-%d.port", n)))
	if err != nil {
		sys.stop()
		return nil, err
	}
	sys.base = fmt.Sprintf("http://127.0.0.1:%d", port)
	if err := router.waitReady(ctx, client, sys.base); err != nil {
		sys.stop()
		return nil, err
	}
	return sys, nil
}

type classifyAnswer struct {
	Class int `json:"class"`
	TopK  []struct {
		Class int     `json:"class"`
		Logit float32 `json:"logit"`
	} `json:"topk"`
	M        int  `json:"m"`
	Degraded bool `json:"degraded"`
	Partial  bool `json:"partial"`
}

// clusterResult is one request's outcome.
type clusterResult struct {
	query  int
	status int
	err    error
	ans    classifyAnswer
}

func runCluster(ctx context.Context, c runConfig) (*outcome, error) {
	inst, err := genCluster(c.dir, c.seed)
	if err != nil {
		return nil, err
	}
	pool := inst.Test
	bodies := make([][]byte, len(pool))
	for i, h := range pool {
		if bodies[i], err = json.Marshal(map[string]interface{}{"h": h, "top_k": clusterTopK}); err != nil {
			return nil, err
		}
	}
	client := newClient()
	defer client.CloseIdleConnections()

	// Set up clusterSetups times; the last system serves the run.
	var setups []float64
	var sys *clusterSystem
	for i := 0; i < clusterSetups; i++ {
		if sys != nil {
			sys.stop()
		}
		t0 := time.Now()
		if sys, err = startCluster(ctx, c, client, i); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.stop()

	// Seeded schedule and inputs; the first clusterWarmup of the
	// schedule is not measured.
	sched := poissonSchedule(c.seed, clusterRate, clusterWarmup+c.seconds)
	pick := xrand.New(c.seed ^ 0x9b1)
	queries := make([]int, len(sched))
	for i := range queries {
		queries[i] = pick.Intn(len(pool))
	}
	results := make([]clusterResult, len(sched))
	do := func(ctx context.Context, client *http.Client, i int) {
		results[i] = postClassify(ctx, client, sys.base, bodies[queries[i]])
		results[i].query = queries[i]
	}

	start := time.Now().Add(50 * time.Millisecond)
	windowStart := start.Add(clusterWarmup)
	var before struct {
		cpuRouter, cpuWorkers float64
		router                promSnap
		workers               []promSnap
		err                   error
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // snapshot the system as the measured window opens
		defer wg.Done()
		time.Sleep(time.Until(windowStart))
		before.cpuRouter, before.err = group{sys.router}.cpuSeconds()
		if before.err == nil {
			before.cpuWorkers, before.err = sys.workers.cpuSeconds()
		}
		if c.trace && before.err == nil {
			before.router, before.workers, before.err = scrapeCluster(client, sys)
		}
	}()
	var tr *telemetry.Tracer
	if c.trace {
		tr = telemetry.NewTracer()
		tr.SetProcessName(0, "cluster-3shard load generator")
	}
	// The traced run records a span per request during the second half
	// of the window; trace.overhead_pct compares the halves.
	traceEpoch := time.Now()
	mid := windowStart.Add(c.seconds / 2)
	var onDone func(int, shot)
	if tr != nil {
		onDone = func(_ int, s shot) {
			if !s.due.Before(mid) {
				tr.Add(telemetry.Span{Name: "classify", Cat: "perfbench", TID: 0,
					Start: s.due.Sub(traceEpoch).Nanoseconds(), Dur: s.latency().Nanoseconds()})
			}
		}
	}
	shots := openLoop(ctx, start, sched, do, onDone)
	end := time.Now()
	wg.Wait()
	if before.err != nil {
		return nil, before.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpuRouter, err := group{sys.router}.cpuSeconds()
	if err != nil {
		return nil, err
	}
	cpuWorkers, err := sys.workers.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rssRouter, err := group{sys.router}.peakRSSMB()
	if err != nil {
		return nil, err
	}
	rssWorkers, err := sys.workers.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Reference: the exact argmax of every pool vector under the
	// regenerated global classifier.
	ref := newExactRef(inst.Classifier.W.Data, inst.Classifier.B, clusterD)
	best := ref.argmaxAll(pool)

	o := newOutcome()
	var lat, lag, latA, latB []float64
	agree, n := 0, 0
	for i, s := range shots {
		if s.due.Before(windowStart) {
			continue
		}
		n++
		r := results[i]
		if msg := checkClusterAnswer(r, ref, pool[r.query]); msg != "" {
			o.failed++
			if o.failed <= 5 {
				o.note("FAIL request %d: %s", i, msg)
			}
			continue
		}
		if r.ans.Class == best[r.query] {
			agree++
		}
		l := ms(s.latency())
		lat = append(lat, l)
		lag = append(lag, ms(s.lag()))
		if s.due.Before(mid) {
			latA = append(latA, l)
		} else {
			latB = append(latB, l)
		}
	}
	o.attempted = n
	if n == 0 {
		return nil, fmt.Errorf("no request was due in the measured window")
	}
	window := end.Sub(windowStart).Seconds()
	d, lagD := newDist(lat), newDist(lag)
	tail := tailPercentile(len(lat), tailWant)
	m := o.metrics
	m["throughput_per_s"] = float64(len(lat)) / window
	m["latency_tail_ms"] = d.pct(tail)
	if !c.trace {
		m["setup_s"] = median(setups)
		m["latency_p50_ms"] = d.pct(50)
		m["cpu_ms_per_op"] = 1000 * (cpuRouter - before.cpuRouter + cpuWorkers - before.cpuWorkers) / float64(n)
		m["rss_peak_mb"] = rssRouter + rssWorkers
		m["success_pct"] = 100 * float64(n-o.failed) / float64(n)
		o.note("open loop %.0f req/s (Poisson), %d senders; latency from due time, p50 and p%g over n=%d", clusterRate, senders, tail, len(lat))
		o.note("setup (3 workers load+train, router dial) x%d: %v s", len(setups), setups)
	}
	o.note("latency p95 %.3f ms, p99 %.3f ms", d.pct(95), d.pct(99))
	o.note("generator lag p50 %.3f ms, p99 %.3f ms (n=%d)", lagD.pct(50), lagD.pct(99), len(lag))
	if lagD.pct(50) > 5 {
		o.invalid("generator ran late: send lag p50 %.3f ms", lagD.pct(50))
	}
	o.note("screened top-1 = exact argmax on %d of %d answers", agree, len(lat))
	if !c.trace {
		return o, nil
	}

	after, afterW, err := scrapeCluster(client, sys)
	if err != nil {
		return nil, err
	}
	m["trace.overhead_pct"] = 100 * (mean(latB)/mean(latA) - 1)
	m["top1_agree_pct"] = 100 * float64(agree) / float64(len(lat))
	m["router.cpu_ms_per_op"] = 1000 * (cpuRouter - before.cpuRouter) / float64(n)
	m["worker.cpu_ms_per_op"] = 1000 * (cpuWorkers - before.cpuWorkers) / float64(n)
	m["router.rss_mb"] = rssRouter
	m["worker.rss_mb"] = rssWorkers
	qw, _ := after.histMean(before.router, "server.queue.wait_ns")
	fl, _ := after.histMean(before.router, "server.batch.flush_ns")
	bs, batches := after.histMean(before.router, "server.batch.size")
	rpc, _ := after.histMean(before.router, "cluster.shard_rpc_ns")
	m["server.queue_wait_ms"] = qw / 1e6
	m["server.flush_ms"] = fl / 1e6
	m["server.batch_size"] = bs
	if batches > 0 {
		m["server.degraded_pct"] = 100 * after.delta(before.router, "server.batch.degraded") / batches
	}
	m["cluster.shard_rpc_ms"] = rpc / 1e6
	m["cluster.rpcs_per_request"] = after.delta(before.router, "cluster.shard_rpc_total") / float64(n*clusterShards)
	for _, st := range []struct{ metric, hist string }{
		{"worker.screen_ms", "core.classify.screen_ns"},
		{"worker.select_ms", "core.classify.select_ns"},
		{"worker.exact_ms", "core.classify.exact_ns"},
	} {
		sum, cnt := 0.0, 0.0
		for w := range afterW {
			sum += afterW[w].delta(before.workers[w], st.hist+"_sum")
			cnt += afterW[w].delta(before.workers[w], st.hist+"_count")
		}
		if cnt > 0 {
			m[st.metric] = sum / cnt / 1e6
		}
	}
	m["loadgen.send_lag_p99_ms"] = lagD.pct(99)
	if err := timeWire(ctx, client, sys, pool, m, tr, traceEpoch); err != nil {
		return nil, err
	}
	if err := writeTrace(tr, c.traceTo); err != nil {
		return nil, err
	}
	o.note("trace written to %s", c.traceTo)
	return o, nil
}

func postClassify(ctx context.Context, client *http.Client, base string, body []byte) clusterResult {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/classify", bytes.NewReader(body))
	if err != nil {
		return clusterResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return clusterResult{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	r := clusterResult{status: resp.StatusCode, err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		r.err = json.Unmarshal(raw, &r.ans)
	}
	return r
}

func scrapeCluster(client *http.Client, sys *clusterSystem) (promSnap, []promSnap, error) {
	router, err := scrape(client, sys.base)
	if err != nil {
		return nil, nil, err
	}
	var workers []promSnap
	for _, s := range sys.shards {
		w, err := scrape(client, s)
		if err != nil {
			return nil, nil, err
		}
		workers = append(workers, w)
	}
	return router, workers, nil
}

// timeWire times, on the benchmark's own calls, the router-side wire
// work of one single-item request: encoding the scatter frame,
// decoding each worker's reply (recorded from the live workers) and
// merging the replies.
func timeWire(ctx context.Context, client *http.Client, sys *clusterSystem, pool [][]float32, m map[string]float64, tr *telemetry.Tracer, traceEpoch time.Time) error {
	per := (clusterM + clusterShards - 1) / clusterShards
	const reps = 200
	var enc, dec, merge time.Duration
	buf := make([]byte, 0, 4096)
	for q := 0; q < 8; q++ {
		batch := [][]float32{pool[q]}
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			var err error
			if buf, err = cluster.AppendScreenRequest(buf[:0], per, batch); err != nil {
				return err
			}
		}
		enc += time.Since(t0)
		spanSince(tr, "encode x200", t0, traceEpoch)
		var replies [][]byte
		for _, s := range sys.shards {
			b, err := postFrame(ctx, client, s, buf)
			if err != nil {
				return err
			}
			replies = append(replies, b)
		}
		var cands []distributed.Candidate
		t1 := time.Now()
		for r := 0; r < reps; r++ {
			cands = cands[:0]
			for _, b := range replies {
				sc := cluster.GetWireScratch()
				resp, err := cluster.DecodeScreenResponse(b, sc)
				if err != nil {
					sc.Release()
					return fmt.Errorf("decode recorded reply: %w", err)
				}
				for _, wc := range resp.Items[0] {
					cands = append(cands, distributed.Candidate{Class: wc.Class, Logit: wc.Logit})
				}
				sc.Release()
			}
		}
		dec += time.Since(t1)
		spanSince(tr, "decode x200", t1, traceEpoch)
		work := make([]distributed.Candidate, len(cands))
		t2 := time.Now()
		for r := 0; r < reps; r++ {
			copy(work, cands)
			distributed.MergeDedup(work, clusterTopK)
		}
		merge += time.Since(t2)
		spanSince(tr, "merge x200", t2, traceEpoch)
	}
	n := float64(8 * reps)
	m["cluster.encode_us"] = float64(enc.Microseconds()) / n
	m["cluster.decode_us"] = float64(dec.Microseconds()) / n
	m["cluster.merge_us"] = float64(merge.Microseconds()) / n
	return nil
}

// postFrame sends one binary screen request to a worker and returns
// its binary reply.
func postFrame(ctx context.Context, client *http.Client, base string, frame []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/shard/screen", bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", cluster.ContentTypeScreenV2)
	req.Header.Set("Accept", cluster.ContentTypeScreenV2)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != cluster.ContentTypeScreenV2 {
		return nil, fmt.Errorf("worker %s: %s (%s)", base, resp.Status, resp.Header.Get("Content-Type"))
	}
	return b, nil
}

// spanSince records a span from t0 to now on the tracer's lane 1.
func spanSince(tr *telemetry.Tracer, name string, t0, epoch time.Time) {
	if tr != nil {
		tr.Add(telemetry.Span{Name: name, Cat: "perfbench", TID: 1, Start: t0.Sub(epoch).Nanoseconds(), Dur: time.Since(t0).Nanoseconds()})
	}
}

func writeTrace(tr *telemetry.Tracer, path string) error {
	if tr == nil || path == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return err
	}
	return writeArtifact(path, func(w io.Writer) (int64, error) { return buf.WriteTo(w) })
}
