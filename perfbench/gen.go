package main

// Model and input generation. Every workload's model and inputs are a
// pure function of the workload seed, built before any clock starts
// and handed to the system under test only as files, so setup_s times
// the program's own load, freeze and start-up training and never the
// benchmark's RNG.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"enmc/internal/core"
	"enmc/internal/projection"
	"enmc/internal/quant"
	"enmc/internal/tensor"
	"enmc/internal/workload"
	"enmc/internal/xrand"
)

// Shapes. classify-268k is the paper's Transformer-W268K point
// (Wikitext-103, workload.Table2) with k=128 INT4 and a 2% screening
// budget, as cmd/enmc-bench/perf.go builds its shapes; its 548 MB
// classifier keeps the run's memory near 1 GB where the Amazon-670K
// point needs 2.6 GB. decode-33k is the Wikitext-LSTM point with the 2%
// screening budget of that file's wiki-lstm-33k shape.
const (
	c268L, c268D, c268K, c268M = 267744, 512, 128, 5355
	c268Queries                = 64

	clusterL, clusterD = 32768, 256
	clusterShards      = 3
	clusterTrain       = 256 // start-up training samples per worker
	clusterEpochs      = 2
	clusterTopK        = 5

	decodeL, decodeD, decodeM = 33278, 1500, 666
	decodeMaxLen              = 64
	decodeTrain               = 64
	decodeEpochs              = 1
	decodeStarts              = 8 // distinct session start states
)

// Model files inside a run directory.
const (
	fileClassifier = "classifier.bin"
	fileScreener   = "screener.bin"
	fileFeatures   = "features.bin"
	fileQueries    = "queries.bin"
)

// fillUniform fills xs with U[-1,1) noise. The slice is cut into
// fixed chunks, each from its own stream derived from (seed, chunk),
// so two goroutines fill it in half the time and the bytes do not
// depend on scheduling.
func fillUniform(xs []float32, seed uint64) {
	const chunk = 1 << 20
	n := (len(xs) + chunk - 1) / chunk
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				r := xrand.New(seed*0x9e3779b97f4a7c15 + uint64(c) + 1)
				end := (c + 1) * chunk
				if end > len(xs) {
					end = len(xs)
				}
				for i := c * chunk; i < end; i++ {
					xs[i] = r.Float32()*2 - 1
				}
			}
		}()
	}
	wg.Wait()
}

// genClassify268k writes the random-weight 268k model and the query
// set. Weights are uniform noise — this workload measures the screen
// → select → exact path, not quality — so the screener is not a
// distillation of the classifier.
func genClassify268k(dir string, seed uint64) error {
	wt := tensor.NewMatrix(c268L, c268K)
	fillUniform(wt.Data, seed^0x5c1)
	bt := make([]float32, c268L)
	fillUniform(bt, seed^0x5c2)
	scr := &core.Screener{
		Cfg: core.Config{Categories: c268L, Hidden: c268D, Reduced: c268K, Precision: quant.INT4, Seed: seed},
		P:   projection.New(c268K, c268D, seed),
		Wt:  wt,
		Bt:  bt,
	}
	if err := writeArtifact(filepath.Join(dir, fileScreener), scr.WriteTo); err != nil {
		return err
	}
	scr = nil
	w := tensor.NewMatrix(c268L, c268D)
	fillUniform(w.Data, seed^0xc1)
	bias := make([]float32, c268L)
	fillUniform(bias, seed^0xc2)
	cls, err := core.NewClassifier(w, bias)
	if err != nil {
		return err
	}
	if err := writeArtifact(filepath.Join(dir, fileClassifier), cls.WriteTo); err != nil {
		return err
	}
	qs := make([][]float32, c268Queries)
	for i := range qs {
		qs[i] = make([]float32, c268D)
		fillUniform(qs[i], seed^uint64(0x9000+i))
	}
	return writeFeatures(filepath.Join(dir, fileQueries), qs)
}

// genCluster writes the global classifier and the workers' start-up
// training features, and returns the instance: the benchmark's
// reference model, whose Test split supplies the queries.
func genCluster(dir string, seed uint64) (*workload.Instance, error) {
	inst := workload.Generate(
		workload.Spec{Name: "cluster-3shard", Categories: clusterL, Hidden: clusterD, LatentRank: 32, ZipfS: 1.05},
		workload.GenOptions{Seed: seed, Train: clusterTrain, Valid: 1, Test: clusterPool})
	if err := writeArtifact(filepath.Join(dir, fileClassifier), inst.Classifier.WriteTo); err != nil {
		return nil, err
	}
	if err := writeFeatures(filepath.Join(dir, fileFeatures), inst.Train); err != nil {
		return nil, err
	}
	return inst, nil
}

// decodeModel is the decode workload's model as the benchmark holds
// it for its references: the classifier, the trained screener the
// server loads, and the session start states.
type decodeModel struct {
	inst   *workload.Instance
	scr    *core.Screener
	starts [][]float32
}

// genDecode builds the 33k×1500 instance, trains its screener (k =
// d/4, INT4) and writes both for the server.
func genDecode(dir string, seed uint64) (*decodeModel, error) {
	inst := workload.Generate(
		workload.Spec{Name: "decode-33k", Categories: decodeL, Hidden: decodeD, LatentRank: 32, ZipfS: 1.05},
		workload.GenOptions{Seed: seed, Train: decodeTrain, Valid: 1, Test: decodeStarts})
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: decodeL, Hidden: decodeD, Reduced: decodeD / 4, Precision: quant.INT4, Seed: seed,
	}, core.TrainOptions{Epochs: decodeEpochs, Seed: seed + 1})
	if err != nil {
		return nil, fmt.Errorf("train decode screener: %w", err)
	}
	if err := writeArtifact(filepath.Join(dir, fileClassifier), inst.Classifier.WriteTo); err != nil {
		return nil, err
	}
	if err := writeArtifact(filepath.Join(dir, fileScreener), scr.WriteTo); err != nil {
		return nil, err
	}
	return &decodeModel{inst: inst, scr: scr, starts: inst.Test}, nil
}

func writeFeatures(path string, fs [][]float32) error {
	return writeArtifact(path, func(w io.Writer) (int64, error) { return core.WriteFeatures(w, fs) })
}

func readFeatures(path string) ([][]float32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadFeatures(f)
}

// writeArtifact creates path and serializes into it with write.
func writeArtifact(path string, write func(io.Writer) (int64, error)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
