package main

import (
	"context"
	"net/http"
	"slices"
	"testing"
	"time"
)

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(7, 200, 20*time.Second)
	b := poissonSchedule(7, 200, 20*time.Second)
	c := poissonSchedule(8, 200, 20*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 20*time.Second {
		t.Fatal("schedule not increasing within its span")
	}
	if len(a) != 4000 || len(c) != 4000 {
		t.Fatalf("%d and %d arrivals in 20 s at 200/s, want 4000", len(a), len(c))
	}
	// Arrivals are spread evenly: each 1 s bin holds ~200 (sd ~14).
	bins := make([]int, 20)
	for _, d := range a {
		bins[int(d/time.Second)]++
	}
	for i, n := range bins {
		if n < 130 || n > 270 {
			t.Errorf("second %d holds %d arrivals", i, n)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// Three requests due at once, each taking 30 ms, two senders: the
	// third waits for a sender, and its latency counts that wait.
	sched := []time.Duration{0, 0, 0}
	start := time.Now().Add(10 * time.Millisecond)
	shots := openLoop(context.Background(), start, sched, func(context.Context, *http.Client, int) {
		time.Sleep(30 * time.Millisecond)
	}, nil)
	var lats []time.Duration
	for i, s := range shots {
		if s.sent.Before(s.due) {
			t.Errorf("request %d sent %v before due", i, s.due.Sub(s.sent))
		}
		if !s.due.Equal(start) {
			t.Errorf("request %d due %v, want the schedule's time", i, s.due)
		}
		lats = append(lats, s.latency())
	}
	slices.Sort(lats)
	if lats[2] < 60*time.Millisecond {
		t.Errorf("slowest latency %v: the wait for a free sender was not counted", lats[2])
	}
	if lag := shots[0].lag(); lag > 20*time.Millisecond && shots[1].lag() > 20*time.Millisecond {
		t.Errorf("both free senders started late (%v)", lag)
	}
}
