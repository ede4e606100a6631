package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// The command name holds spaces and a ')' of its own.
	stat := "4242 (enmc serve) x)) S 1 4242 4242 0 -1 4194560 5000 0 0 0 1234 567 0 0 20 0 9 0 100 2000000 3000 18446744073709551615\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil || got != 1234+567 {
		t.Fatalf("parseStatCPU = %d, %v; want %d", got, err, 1234+567)
	}
	for _, bad := range []string{"", "4242 enmc S 1", "4242 (x) S 1 2 3", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 abc 5 6"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted malformed input", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tenmc-serve\nVmPeak:\t  900000 kB\nVmHWM:\t   204800 kB\nVmRSS:\t  102400 kB\nThreads:\t9\n"
	if got, err := parseStatusKB([]byte(status), "VmHWM"); err != nil || got != 204800 {
		t.Fatalf("VmHWM = %d, %v; want 204800", got, err)
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("unit other than kB accepted")
	}
}

func TestReadOwnProc(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	cpu, err := cpuSeconds(os.Getpid())
	if err != nil || cpu < 0 {
		t.Fatalf("cpuSeconds = %v, %v", cpu, err)
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil || rss <= 0 {
		t.Fatalf("peakRSSMB = %v, %v", rss, err)
	}
}
