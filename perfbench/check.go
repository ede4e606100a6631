package main

// Correctness checkers. Each compares the program's answer with a
// reference the benchmark computes itself and returns "" when the
// answer passes, or what is wrong with it.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// bitset marks class indices; it is cleared after each use.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// checkShape is the cheap check every classify op gets: exactly m
// distinct in-range candidates and finite logits at each.
func checkShape(cands []int, logits []float32, l, m int, seen bitset) string {
	defer func() {
		for _, c := range cands {
			if c >= 0 && c < l {
				seen[c/64] &^= 1 << (c % 64)
			}
		}
	}()
	if len(logits) != l {
		return fmt.Sprintf("%d logits, want %d", len(logits), l)
	}
	if len(cands) != m {
		return fmt.Sprintf("%d candidates, want %d", len(cands), m)
	}
	for _, c := range cands {
		if c < 0 || c >= l {
			return fmt.Sprintf("candidate %d out of range", c)
		}
		if seen[c/64]&(1<<(c%64)) != 0 {
			return fmt.Sprintf("candidate %d repeated", c)
		}
		seen[c/64] |= 1 << (c % 64)
		if f := float64(logits[c]); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Sprintf("candidate %d logit %v", c, f)
		}
	}
	return ""
}

// topM is the reference selection: the m highest scores, ties broken
// by the lower index, returned in ascending index order.
func topM(scores []float32, m int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if scores[a] != scores[b] {
			return cmp.Compare(scores[b], scores[a])
		}
		return a - b
	})
	out := idx[:m]
	slices.Sort(out)
	return out
}

// exactTol bounds the float32 rounding error of a d-term dot product
// plus bias, relative to the sum of the terms' magnitudes: d·2⁻²³ is
// twice the classic γ_d = d·u worst case for recursive summation.
func exactTol(d int, magnitude float64) float64 {
	return float64(d) * math.Ldexp(1, -23) * magnitude
}

// classifierFile reads rows of a classifier written by
// enmc.SaveClassifier straight from disk: "ENMCCLS1", rows and cols
// (u32), then two length-prefixed little-endian float32 blocks — the
// l×d weights and the l biases.
type classifierFile struct {
	f          *os.File
	rows, cols int
}

const classifierHeader = 8 + 4 + 4

func openClassifierFile(path string) (*classifierFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [classifierHeader + 4]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, err
	}
	cf := &classifierFile{f: f,
		rows: int(binary.LittleEndian.Uint32(hdr[8:])),
		cols: int(binary.LittleEndian.Uint32(hdr[12:]))}
	if string(hdr[:8]) != "ENMCCLS1" || int(binary.LittleEndian.Uint32(hdr[16:])) != cf.rows*cf.cols {
		f.Close()
		return nil, fmt.Errorf("%s: not a classifier file", path)
	}
	return cf, nil
}

func (cf *classifierFile) readFloats(dst []float32, off int64) error {
	buf := make([]byte, 4*len(dst))
	if _, err := cf.f.ReadAt(buf, off); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

// logit is the exact logit of class c at h, computed in float64, and
// the magnitude its rounding error scales with.
func (cf *classifierFile) logit(c int, h []float32, row []float32) (float64, float64, error) {
	if err := cf.readFloats(row, classifierHeader+4+4*int64(c)*int64(cf.cols)); err != nil {
		return 0, 0, err
	}
	var b [1]float32
	if err := cf.readFloats(b[:], classifierHeader+4+4*int64(cf.rows)*int64(cf.cols)+4+4*int64(c)); err != nil {
		return 0, 0, err
	}
	sum, mag := float64(b[0]), math.Abs(float64(b[0]))
	for j, w := range row {
		p := float64(w) * float64(h[j])
		sum += p
		mag += math.Abs(p)
	}
	return sum, mag, nil
}

// checkClassify checks one recorded classify-268k op in full: its
// candidates are the reference top-m of the screen scores, each
// candidate's logit is the exact dot product plus bias within
// exactTol, and every probed non-candidate keeps its screen score.
func checkClassify(dir string, screen, h []float32, s sample) string {
	want := topM(screen, len(s.cands))
	if !slices.Equal(want, s.cands) {
		return "candidates differ from the top-m of Screener.Screen"
	}
	cf, err := openClassifierFile(filepath.Join(dir, fileClassifier))
	if err != nil {
		return err.Error()
	}
	defer cf.f.Close()
	row := make([]float32, cf.cols)
	for j, c := range s.cands {
		want, mag, err := cf.logit(c, h, row)
		if err != nil {
			return err.Error()
		}
		if diff := math.Abs(float64(s.exact[j]) - want); !(diff <= exactTol(cf.cols, mag)) {
			return fmt.Sprintf("class %d logit %v, exact %v (|diff| %.3g > tol %.3g)", c, s.exact[j], want, diff, exactTol(cf.cols, mag))
		}
	}
	for j, pos := range s.probes {
		if math.Float32bits(s.mixed[j]) != math.Float32bits(screen[pos]) {
			return fmt.Sprintf("non-candidate %d logit %v, screen score %v", pos, s.mixed[j], screen[pos])
		}
	}
	return ""
}

// exactRef computes exact logits in float64 from a classifier's
// weights held in memory (the benchmark's regenerated model).
type exactRef struct {
	w, b []float32
	d    int
}

func newExactRef(w, b []float32, d int) *exactRef { return &exactRef{w: w, b: b, d: d} }

func (r *exactRef) classes() int { return len(r.b) }

// logit is class c's exact logit at h and the magnitude its float32
// rounding error scales with.
func (r *exactRef) logit(c int, h []float32) (float64, float64) {
	row := r.w[c*r.d : (c+1)*r.d]
	sum, mag := float64(r.b[c]), math.Abs(float64(r.b[c]))
	for j, w := range row {
		p := float64(w) * float64(h[j])
		sum += p
		mag += math.Abs(p)
	}
	return sum, mag
}

// argmaxAll is the exact argmax of each vector, two vectors at a time.
func (r *exactRef) argmaxAll(hs [][]float32) []int {
	out := make([]int, len(hs))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(hs); i += 2 {
				best, bestV := 0, math.Inf(-1)
				for c := 0; c < r.classes(); c++ {
					if v, _ := r.logit(c, hs[i]); v > bestV {
						best, bestV = c, v
					}
				}
				out[i] = best
			}
		}(g)
	}
	wg.Wait()
	return out
}

// checkClusterAnswer checks one /v1/classify answer: HTTP 200, a full
// (not partial, not degraded) merge at the configured budget, top_k
// distinct in-range classes in descending logit order headed by the
// answered class, each logit the exact one within exactTol.
func checkClusterAnswer(r clusterResult, ref *exactRef, h []float32) string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.status != 200:
		return fmt.Sprintf("HTTP %d", r.status)
	case r.ans.Partial:
		return "partial answer"
	case r.ans.Degraded || r.ans.M != clusterM:
		return fmt.Sprintf("degraded answer (m=%d, want %d)", r.ans.M, clusterM)
	case len(r.ans.TopK) != clusterTopK:
		return fmt.Sprintf("%d top-k entries, want %d", len(r.ans.TopK), clusterTopK)
	case r.ans.TopK[0].Class != r.ans.Class:
		return fmt.Sprintf("class %d is not the first top-k entry %d", r.ans.Class, r.ans.TopK[0].Class)
	}
	seen := map[int]bool{}
	for i, e := range r.ans.TopK {
		if e.Class < 0 || e.Class >= ref.classes() || seen[e.Class] {
			return fmt.Sprintf("top-k class %d repeated or out of range", e.Class)
		}
		seen[e.Class] = true
		if i > 0 && e.Logit > r.ans.TopK[i-1].Logit {
			return "top-k not in descending logit order"
		}
		want, mag := ref.logit(e.Class, h)
		if diff := math.Abs(float64(e.Logit) - want); !(diff <= exactTol(len(h), mag)) {
			return fmt.Sprintf("class %d logit %v, exact %v", e.Class, e.Logit, want)
		}
	}
	return ""
}
