package main

// decode-33k: enmc-serve -decode at the paper's Wikitext-LSTM shape
// (l=33278, d=1500) with no per-token deadline, so the screening budget
// m never degrades. Two closed-loop greedy NDJSON sessions each decode
// the full max length. It is the only workload through the decode
// session and candidate-cache layer, and it uses the server with
// long-lived streams instead of short requests.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"enmc/internal/decode"
	"enmc/internal/telemetry"
	"enmc/internal/workload"
	"enmc/internal/xrand"
)

const (
	decodeSetups = 5
	// decodeCallers is 1 so that one token is in flight: the server
	// already spreads each token's screen over the host's cores, and a
	// second stream would make the token gap measure how the two
	// sessions interleave on the CPUs instead of the decode path.
	decodeCallers = 1
)

type decodeFrame struct {
	T        int    `json:"t"`
	Token    int    `json:"token"`
	M        int    `json:"m"`
	Degraded bool   `json:"degraded"`
	Done     bool   `json:"done"`
	Tokens   []int  `json:"tokens"`
	Finished bool   `json:"finished"`
	Error    string `json:"error"`
}

// session is one decode stream as the client saw it.
type session struct {
	start    int // index of the start state
	sent     time.Time
	arrivals []time.Time
	frames   []decodeFrame
	done     *decodeFrame
	status   int
	err      error
}

func startDecodeServer(ctx context.Context, c runConfig, client *http.Client, n int) (*proc, string, error) {
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	portFile := filepath.Join(c.dir, fmt.Sprintf("serve-%d.port", n))
	p, err := startProc(c.dir, fmt.Sprintf("serve-%d", n), filepath.Join(c.bin, "enmc-serve"),
		"-addr", "127.0.0.1:0", "-port-file", portFile,
		"-classifier", filepath.Join(c.dir, fileClassifier), "-screener", filepath.Join(c.dir, fileScreener),
		"-decode", "-decode-deadline", "0", "-decode-maxlen", fmt.Sprint(decodeMaxLen),
		"-decode-seed", fmt.Sprint(c.seed), "-m", fmt.Sprint(decodeM))
	if err != nil {
		return nil, "", err
	}
	port, err := p.waitPort(ctx, portFile)
	if err == nil {
		base := fmt.Sprintf("http://127.0.0.1:%d", port)
		if err = p.waitReady(ctx, client, base); err == nil {
			return p, base, nil
		}
	}
	p.stop(10 * time.Second)
	return nil, "", err
}

// runSession opens a greedy NDJSON session from h0 and reads it to
// the end, timestamping each frame as it arrives.
func runSession(ctx context.Context, client *http.Client, base string, body []byte, onFrame func(t time.Time)) session {
	var s session
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/decode", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	s.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		return s
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		now := time.Now()
		if len(bytes.TrimSpace(line)) > 0 {
			var f decodeFrame
			if jerr := json.Unmarshal(line, &f); jerr != nil {
				s.err = fmt.Errorf("frame %d: %w", len(s.frames), jerr)
				return s
			}
			if f.Done {
				s.done = &f
				return s
			}
			s.frames = append(s.frames, f)
			s.arrivals = append(s.arrivals, now)
			if onFrame != nil {
				onFrame(now)
			}
		}
		if err != nil {
			s.err = fmt.Errorf("stream cut after %d frames: %w", len(s.frames), err)
			return s
		}
	}
}

func runDecode(ctx context.Context, c runConfig) (*outcome, error) {
	model, err := genDecode(c.dir, c.seed)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(model.starts))
	for i, h0 := range model.starts {
		if bodies[i], err = json.Marshal(map[string]interface{}{"h0": h0, "stream": "ndjson"}); err != nil {
			return nil, err
		}
	}
	client := newClient()
	defer client.CloseIdleConnections()

	// Set up decodeSetups times; the last server serves the run.
	var setups []float64
	var srv *proc
	var base string
	for i := 0; i < decodeSetups; i++ {
		if srv != nil {
			srv.stop(10 * time.Second)
		}
		t0 := time.Now()
		if srv, base, err = startDecodeServer(ctx, c, client, i); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop(10 * time.Second)

	// Warm-up: one unmeasured session per caller.
	var wg sync.WaitGroup
	for s := 0; s < decodeCallers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			runSession(ctx, client, base, bodies[s%len(bodies)], nil)
		}(s)
	}
	wg.Wait()

	sys := group{srv}
	cpu0, err := sys.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var before promSnap
	if c.trace {
		if before, err = scrape(client, base); err != nil {
			return nil, err
		}
	}
	var tr *telemetry.Tracer
	if c.trace {
		tr = telemetry.NewTracer()
		tr.SetProcessName(0, "decode-33k client")
	}
	windowStart := time.Now()
	mid, windowEnd := windowStart.Add(c.seconds/2), windowStart.Add(c.seconds)
	perCaller := make([][]session, decodeCallers)
	for s := 0; s < decodeCallers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			pick := xrand.New(c.seed*31 + uint64(s) + 0xdec)
			for time.Now().Before(windowEnd) && ctx.Err() == nil {
				st := pick.Intn(len(bodies))
				var onFrame func(time.Time)
				if tr != nil && !time.Now().Before(mid) {
					last := time.Now()
					onFrame = func(t time.Time) {
						tr.Add(telemetry.Span{Name: "token", Cat: "perfbench", TID: s,
							Start: last.Sub(windowStart).Nanoseconds(), Dur: t.Sub(last).Nanoseconds()})
						last = t
					}
				}
				sess := runSession(ctx, client, base, bodies[st], onFrame)
				sess.start = st
				perCaller[s] = append(perCaller[s], sess)
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(windowStart).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := sys.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := sys.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var after promSnap
	if c.trace {
		if after, err = scrape(client, base); err != nil {
			return nil, err
		}
	}

	// References, per start state used: the screened greedy decode of
	// the library path (the served stream must equal it token for
	// token) and, on traced runs, the full-classifier greedy decode.
	used := map[int]bool{}
	var sessions []session
	for _, ss := range perCaller {
		for _, s := range ss {
			used[s.start] = true
			sessions = append(sessions, s)
		}
	}
	dec := workload.NewDecoderFor(model.inst.Classifier, c.seed, decodeMaxLen)
	screened, stepTimes := screenedReference(model, dec, used)

	o := newOutcome()
	o.attempted = len(sessions)
	var gaps, ttft, gapsA, gapsB []float64
	tokens, mSum, degraded, frames := 0, 0, 0, 0
	for i, s := range sessions {
		for _, f := range s.frames {
			frames++
			mSum += f.M
			if f.Degraded {
				degraded++
			}
		}
		if msg := checkSession(s, screened[s.start]); msg != "" {
			o.failed++
			if o.failed <= 5 {
				o.note("FAIL session %d (start %d): %s", i, s.start, msg)
			}
			continue
		}
		tokens += len(s.frames)
		ttft = append(ttft, ms(s.arrivals[0].Sub(s.sent)))
		for t := 1; t < len(s.arrivals); t++ {
			g := ms(s.arrivals[t].Sub(s.arrivals[t-1]))
			gaps = append(gaps, g)
			if s.sent.Before(mid) {
				gapsA = append(gapsA, g)
			} else {
				gapsB = append(gapsB, g)
			}
		}
	}
	if tokens == 0 {
		return nil, fmt.Errorf("no session passed its checks (%d attempted)", len(sessions))
	}
	gd, td := newDist(gaps), newDist(ttft)
	tail, ttail := tailPercentile(len(gaps), tailWant), tailPercentile(len(ttft), tailWant)
	m := o.metrics
	o.note("%d sessions x %d tokens from %d callers; token gap p50 and p%g over n=%d gaps", len(sessions), decodeMaxLen, decodeCallers, tail, len(gaps))
	o.note("token gap p95 %.3f ms, p99 %.3f ms", gd.pct(95), gd.pct(99))
	o.note("time to first token p50 %.3f ms, p%g %.3f ms (n=%d)", td.pct(50), ttail, td.pct(ttail), len(ttft))
	m["throughput_per_s"] = float64(tokens) / elapsed
	m["latency_tail_ms"] = gd.pct(tail)
	if !c.trace {
		m["setup_s"] = median(setups)
		m["latency_p50_ms"] = gd.pct(50)
		m["cpu_ms_per_op"] = 1000 * (cpu1 - cpu0) / float64(tokens)
		m["rss_peak_mb"] = rss
		m["success_pct"] = 100 * float64(o.attempted-o.failed) / float64(o.attempted)
		o.note("setup (load classifier+screener, build decoder) x%d: %v s", len(setups), setups)
		return o, nil
	}

	full := fullReference(model, dec, used)
	agree, total := 0, 0
	for _, s := range sessions {
		for t, f := range s.frames {
			if t < len(full[s.start]) {
				total++
				if f.Token == full[s.start][t] {
					agree++
				}
			}
		}
	}
	m["trace.overhead_pct"] = 100 * (mean(gapsB)/mean(gapsA) - 1)
	m["top1_agree_pct"] = 100 * float64(agree) / float64(total)
	m["ttft_p50_ms"] = td.pct(50)
	m["ttft_tail_ms"] = td.pct(ttail)
	m["decode.score_step_ms"] = mean(stepTimes.score)
	m["decode.state_step_ms"] = mean(stepTimes.state)
	tok, _ := after.histMean(before, "decode.token_ns")
	m["decode.token_ms"] = tok / 1e6
	hits, misses := after.delta(before, "decode.cache_hit"), after.delta(before, "decode.cache_miss")
	if hits+misses > 0 {
		m["decode.cache_hit_pct"] = 100 * hits / (hits + misses)
	}
	// Means on both sides: the server's histogram gives a mean only.
	m["server.stream_overhead_ms"] = mean(gaps) - m["decode.token_ms"]
	m["decode.m_mean"] = float64(mSum) / float64(frames)
	m["decode.degraded_pct"] = 100 * float64(degraded) / float64(frames)
	if err := writeTrace(tr, c.traceTo); err != nil {
		return nil, err
	}
	o.note("trace written to %s", c.traceTo)
	return o, nil
}

type stepTimes struct{ score, state []float64 }

// screenedReference decodes each used start state through the library
// path (decode.LocalScorer, configured as enmc-serve configures it),
// timing the scorer and the state update per step.
func screenedReference(model *decodeModel, dec *workload.Decoder, used map[int]bool) (map[int][]int, stepTimes) {
	out := map[int][]int{}
	var st stepTimes
	ctx := context.Background()
	h := make([]float32, decodeD)
	next := make([]float32, decodeD)
	for start := range used {
		scorer := decode.NewLocalScorer(model.inst.Classifier, model.scr, decode.LocalScorerConfig{})
		dec.NormalizeStartInto(h, model.starts[start])
		var toks []int
		for t := 0; t < decodeMaxLen; t++ {
			t0 := time.Now()
			score, err := scorer.ScoreStep(ctx, h, decodeM, 1)
			t1 := time.Now()
			if err != nil {
				break // a missing reference token fails every session from this start
			}
			y := score.Classes[0]
			toks = append(toks, y)
			dec.StepInto(next, h, y, t)
			st.score = append(st.score, ms(t1.Sub(t0)))
			st.state = append(st.state, ms(time.Since(t1)))
			h, next = next, h
		}
		scorer.Close()
		out[start] = toks
	}
	return out, st
}

// fullReference greedily decodes each used start state with the exact
// classifier, two start states at a time.
func fullReference(model *decodeModel, dec *workload.Decoder, used map[int]bool) map[int][]int {
	var starts []int
	for s := range used {
		starts = append(starts, s)
	}
	res := make([][]int, len(starts))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(starts); i += 2 {
				res[i] = dec.Decode(model.starts[starts[i]], decodeMaxLen, model.inst.Classifier.Predict)
			}
		}(g)
	}
	wg.Wait()
	out := map[int][]int{}
	for i, s := range starts {
		out[s] = res[i]
	}
	return out
}

// checkSession checks one served stream: HTTP 200, maxLen frames in
// order at the full budget m, a finished terminal event repeating the
// tokens, and the tokens of the screened reference decode.
func checkSession(s session, want []int) string {
	switch {
	case s.err != nil:
		return s.err.Error()
	case s.status != http.StatusOK:
		return fmt.Sprintf("HTTP %d", s.status)
	case s.done == nil:
		return "no terminal event"
	case s.done.Error != "":
		return "stream error: " + s.done.Error
	case !s.done.Finished:
		return "session not finished"
	case len(s.frames) != decodeMaxLen:
		return fmt.Sprintf("%d frames, want %d", len(s.frames), decodeMaxLen)
	}
	for t, f := range s.frames {
		switch {
		case f.T != t:
			return fmt.Sprintf("frame %d has t=%d", t, f.T)
		case f.M != decodeM || f.Degraded:
			return fmt.Sprintf("frame %d degraded (m=%d, want %d)", t, f.M, decodeM)
		case t >= len(want) || f.Token != want[t]:
			return fmt.Sprintf("token %d is %d, screened reference says %v", t, f.Token, tokenAt(want, t))
		case t >= len(s.done.Tokens) || s.done.Tokens[t] != f.Token:
			return fmt.Sprintf("terminal event disagrees with frame %d", t)
		}
	}
	return ""
}

func tokenAt(toks []int, t int) interface{} {
	if t < len(toks) {
		return toks[t]
	}
	return "none"
}
