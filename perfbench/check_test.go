package main

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"testing"

	"enmc"
	"enmc/internal/core"
	"enmc/internal/projection"
	"enmc/internal/quant"
	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

// writeSmallModel writes a random l×d classifier and an INT4 screener
// into dir.
func writeSmallModel(t *testing.T, dir string, l, d, k int) {
	t.Helper()
	wt := tensor.NewMatrix(l, k)
	fillUniform(wt.Data, 1)
	bt := make([]float32, l)
	fillUniform(bt, 2)
	scr := &core.Screener{
		Cfg: core.Config{Categories: l, Hidden: d, Reduced: k, Precision: quant.INT4, Seed: 3},
		P:   projection.New(k, d, 3), Wt: wt, Bt: bt,
	}
	w := tensor.NewMatrix(l, d)
	fillUniform(w.Data, 4)
	b := make([]float32, l)
	fillUniform(b, 5)
	cls, err := core.NewClassifier(w, b)
	if err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(io.Writer) (int64, error){fileScreener: scr.WriteTo, fileClassifier: cls.WriteTo} {
		if err := writeArtifact(filepath.Join(dir, name), write); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckClassifyCountsCorruption(t *testing.T) {
	const l, d, k, m = 300, 16, 4, 20
	dir := t.TempDir()
	writeSmallModel(t, dir, l, d, k)
	cls, scr, err := loadFacade(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := make([]float32, d)
	fillUniform(h, 6)
	res := enmc.Classify(cls, scr, h, enmc.TopM(m))
	if msg := checkShape(res.Candidates, res.Logits, l, m, newBitset(l)); msg != "" {
		t.Fatalf("checkShape rejected a correct answer: %s", msg)
	}
	fresh := func() sample { return recordSample(0, res.Candidates, res.Logits, xrand.New(1)) }
	if msg := checkClassify(dir, scr.Screen(h), h, fresh()); msg != "" {
		t.Fatalf("checkClassify rejected a correct answer: %s", msg)
	}

	corrupt := map[string]func(s *sample){
		"candidate logit off by 1e-3": func(s *sample) { s.exact[3] += 1e-3 },
		"candidate swapped for a non-candidate": func(s *sample) {
			s.cands[0], s.exact[0] = s.probes[0], s.mixed[0]
		},
		"non-candidate logit changed": func(s *sample) { s.mixed[5] += 1e-3 },
	}
	for name, f := range corrupt {
		s := fresh()
		f(&s)
		if msg := checkClassify(dir, scr.Screen(h), h, s); msg == "" {
			t.Errorf("%s: checkClassify passed it", name)
		}
	}

	shape := map[string]func(c []int, lg []float32) ([]int, []float32){
		"repeated candidate": func(c []int, lg []float32) ([]int, []float32) { c[1] = c[0]; return c, lg },
		"out of range":       func(c []int, lg []float32) ([]int, []float32) { c[2] = l; return c, lg },
		"one candidate short": func(c []int, lg []float32) ([]int, []float32) {
			return c[:m-1], lg
		},
	}
	seen := newBitset(l)
	for name, f := range shape {
		c, lg := f(append([]int(nil), res.Candidates...), res.Logits)
		if msg := checkShape(c, lg, l, m, seen); msg == "" {
			t.Errorf("%s: checkShape passed it", name)
		}
		if msg := checkShape(res.Candidates, res.Logits, l, m, seen); msg != "" {
			t.Fatalf("bitset not cleared after %s: %s", name, msg)
		}
	}
}

func TestCheckClusterAnswerCountsCorruption(t *testing.T) {
	const l, d = 40, 8
	w := make([]float32, l*d)
	fillUniform(w, 1)
	b := make([]float32, l)
	fillUniform(b, 2)
	ref := newExactRef(w, b, d)
	h := make([]float32, d)
	fillUniform(h, 3)
	logits := make([]float32, l)
	for c := range logits {
		logits[c] = tensor.Dot(w[c*d:(c+1)*d], h) + b[c]
	}
	good := func() clusterResult {
		r := clusterResult{status: http.StatusOK}
		r.ans.M = clusterM
		for _, c := range tensor.TopK(logits, clusterTopK) {
			r.ans.TopK = append(r.ans.TopK, struct {
				Class int     `json:"class"`
				Logit float32 `json:"logit"`
			}{c, logits[c]})
		}
		r.ans.Class = r.ans.TopK[0].Class
		return r
	}
	if msg := checkClusterAnswer(good(), ref, h); msg != "" {
		t.Fatalf("rejected a correct answer: %s", msg)
	}
	if best := ref.argmaxAll([][]float32{h}); best[0] != good().ans.Class {
		t.Fatalf("reference argmax %d, answer %d", best[0], good().ans.Class)
	}
	corrupt := map[string]func(r *clusterResult){
		"HTTP 503":           func(r *clusterResult) { r.status = 503 },
		"transport error":    func(r *clusterResult) { r.err = fmt.Errorf("reset") },
		"partial":            func(r *clusterResult) { r.ans.Partial = true },
		"degraded":           func(r *clusterResult) { r.ans.Degraded = true },
		"smaller m":          func(r *clusterResult) { r.ans.M = clusterM / 2 },
		"short top-k":        func(r *clusterResult) { r.ans.TopK = r.ans.TopK[:2] },
		"class not first":    func(r *clusterResult) { r.ans.Class = r.ans.TopK[1].Class },
		"repeated class":     func(r *clusterResult) { r.ans.TopK[2] = r.ans.TopK[1] },
		"out-of-range class": func(r *clusterResult) { r.ans.TopK[4].Class = l },
		"wrong logit":        func(r *clusterResult) { r.ans.TopK[3].Logit += 1e-3 },
		"not descending": func(r *clusterResult) {
			r.ans.TopK[3], r.ans.TopK[4] = r.ans.TopK[4], r.ans.TopK[3]
		},
	}
	for name, f := range corrupt {
		r := good()
		f(&r)
		if msg := checkClusterAnswer(r, ref, h); msg == "" {
			t.Errorf("%s: passed", name)
		}
	}
}

func TestCheckSessionCountsCorruption(t *testing.T) {
	want := make([]int, decodeMaxLen)
	for i := range want {
		want[i] = (i * 7) % 50
	}
	good := func() session {
		s := session{status: http.StatusOK, done: &decodeFrame{Done: true, Finished: true, Tokens: append([]int(nil), want...)}}
		for t, y := range want {
			s.frames = append(s.frames, decodeFrame{T: t, Token: y, M: decodeM})
		}
		return s
	}
	if msg := checkSession(good(), want); msg != "" {
		t.Fatalf("rejected a correct session: %s", msg)
	}
	corrupt := map[string]func(s *session){
		"refused":        func(s *session) { s.status = http.StatusTooManyRequests },
		"cut stream":     func(s *session) { s.frames, s.done = s.frames[:40], nil },
		"short stream":   func(s *session) { s.frames = s.frames[:decodeMaxLen-1] },
		"unfinished":     func(s *session) { s.done.Finished = false },
		"wrong token":    func(s *session) { s.frames[10].Token++ },
		"degraded frame": func(s *session) { s.frames[20].Degraded = true },
		"smaller m":      func(s *session) { s.frames[30].M = decodeM / 2 },
		"frame out of order": func(s *session) {
			s.frames[5], s.frames[6] = s.frames[6], s.frames[5]
		},
		"terminal tokens differ": func(s *session) { s.done.Tokens[63]++ },
		"stream error":           func(s *session) { s.done.Error = "evicted" },
	}
	for name, f := range corrupt {
		s := good()
		f(&s)
		if msg := checkSession(s, want); msg == "" {
			t.Errorf("%s: passed", name)
		}
	}
}
