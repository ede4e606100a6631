package main

// Resource accounting for the system under test, read from /proc so
// that it covers every process of the system (router, workers, or the
// serving process) and none of the load generator's.

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
)

// userHZ is the unit of utime/stime in /proc/<pid>/stat. Linux fixes
// USER_HZ at 100 for user space on every architecture it supports.
const userHZ = 100

// parseStatCPU returns utime+stime (in USER_HZ ticks) from the
// contents of /proc/<pid>/stat. The command name (field 2) is in
// parentheses and may itself hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(b []byte) (uint64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := bytes.Fields(b[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command, want at least 13", len(f))
	}
	var sum uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(string(s), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat: %w", err)
		}
		sum += v
	}
	return sum, nil
}

// parseStatusKB returns the value of a "Key:   N kB" line of
// /proc/<pid>/status, in kB.
func parseStatusKB(b []byte, key string) (int64, error) {
	for _, line := range bytes.Split(b, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", key)
}

// cpuSeconds is the CPU time process pid has used so far.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	t, err := parseStatCPU(b)
	return float64(t) / userHZ, err
}

// peakRSSMB is process pid's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, "VmHWM")
	return float64(kb) / 1024, err
}
