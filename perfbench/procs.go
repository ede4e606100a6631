package main

// Child processes of the system under test: spawned from the built
// binaries, logged to files in the run directory, and always stopped
// and waited for before the benchmark exits.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	done    chan struct{} // closed once the process has been waited for
	err     error
}

// startProc runs bin with args, sending its stdout and stderr to
// <dir>/<name>.log.
func startProc(dir, name, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM (the program's drain signal), and SIGKILL if the
// process has not exited after grace; it returns once it has exited.
func (p *proc) stop(grace time.Duration) {
	if p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// logTail is the end of the process's log, for error messages.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// failure describes why p is not serving.
func (p *proc) failure(what string) error {
	if p.exited() {
		return fmt.Errorf("%s exited (%v) %s; log:\n%s", p.name, p.err, what, p.logTail())
	}
	return fmt.Errorf("%s: %s; log:\n%s", p.name, what, p.logTail())
}

// pollEvery is the readiness polling period; it bounds how much
// polling adds to a measured set-up time.
const pollEvery = 2 * time.Millisecond

// waitPort waits for the port file the process writes once it listens.
func (p *proc) waitPort(ctx context.Context, portFile string) (int, error) {
	for {
		if b, err := os.ReadFile(portFile); err == nil && strings.HasSuffix(string(b), "\n") {
			return strconv.Atoi(strings.TrimSpace(string(b)))
		}
		if p.exited() {
			return 0, p.failure("before listening")
		}
		select {
		case <-ctx.Done():
			return 0, p.failure("no port file: " + ctx.Err().Error())
		case <-time.After(pollEvery):
		}
	}
}

// waitReady waits until GET base/readyz answers 200.
func (p *proc) waitReady(ctx context.Context, client *http.Client, base string) error {
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return p.failure("before ready")
		}
		select {
		case <-ctx.Done():
			return p.failure("not ready: " + ctx.Err().Error())
		case <-time.After(pollEvery):
		}
	}
}

// group is the set of processes making up one system under test.
type group []*proc

func (g group) stop() {
	for _, p := range g {
		p.stop(10 * time.Second)
	}
}

// cpuSeconds sums CPU time over the group.
func (g group) cpuSeconds() (float64, error) {
	sum := 0.0
	for _, p := range g {
		s, err := cpuSeconds(p.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		sum += s
	}
	return sum, nil
}

// peakRSSMB sums VmHWM over the group.
func (g group) peakRSSMB() (float64, error) {
	sum := 0.0
	for _, p := range g {
		s, err := peakRSSMB(p.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		sum += s
	}
	return sum, nil
}
