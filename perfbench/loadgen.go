package main

// The benchmark's own load generator, kept here rather than in
// cmd/enmc-loadgen so that an edit to that tool cannot move the
// numbers.

import (
	"context"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"enmc/internal/xrand"
)

// senders bounds the generator's concurrency: one connection each, no
// more than the host's 2 vCPUs.
const senders = 2

// poissonSchedule returns the send offsets of rate·span arrivals at
// independent uniform times in [0, span), drawn from seed: a Poisson
// arrival process conditioned on its count, so every run offers the
// same number of requests and only their timing varies with the seed.
func poissonSchedule(seed uint64, rate float64, span time.Duration) []time.Duration {
	r := xrand.New(seed ^ 0xa331)
	out := make([]time.Duration, int(rate*span.Seconds()))
	for i := range out {
		out[i] = time.Duration(r.Float64() * float64(span))
	}
	slices.Sort(out)
	return out
}

// shot is one open-loop request's timing.
type shot struct {
	due, sent, done time.Time
}

func (s shot) latency() time.Duration { return s.done.Sub(s.due) }
func (s shot) lag() time.Duration     { return s.sent.Sub(s.due) }

// openLoop sends request i at start+sched[i] through senders workers,
// each owning one connection. A request whose due time passes while
// both workers are busy is sent late, and its latency — timed from
// the due time — includes that wait. do runs request i and returns
// when its answer has been read; it must honour ctx. done, if not
// nil, is called with each request's timing as it completes.
func openLoop(ctx context.Context, start time.Time, sched []time.Duration, do func(ctx context.Context, client *http.Client, i int), done func(i int, s shot)) []shot {
	shots := make([]shot, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		client := newClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				if wait := time.Until(due); wait > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(wait):
					}
				}
				sent := time.Now()
				do(ctx, client, i)
				shots[i] = shot{due: due, sent: sent, done: time.Now()}
				if done != nil {
					done(i, shots[i])
				}
			}
		}()
	}
	wg.Wait()
	return shots
}

// newClient is an HTTP client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}
