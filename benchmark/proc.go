package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one spawned kserve or kcached process.
type daemon struct {
	name string
	pid  int
	addr string // host:port it listens on
	log  string // file holding its stdout+stderr
	// exited is closed once the process has been reaped.
	exited chan struct{}
}

func (d *daemon) url() string { return "http://" + d.addr }

// waitExit reports whether the daemon was reaped within dur.
func (d *daemon) waitExit(dur time.Duration) bool {
	select {
	case <-d.exited:
		return true
	case <-time.After(dur):
		return false
	}
}

// stopGrace is how long a daemon gets to act on SIGTERM, and then on
// SIGKILL, before it is counted as left over.
const stopGrace = 5 * time.Second

// supervisor owns every process and temp directory the runner creates,
// so that each exit path — normal, failed verification, panic, watchdog,
// signal — tears down through the one stopAll.
type supervisor struct {
	base  string        // parent of every temp dir
	grace time.Duration // stopGrace, shortened by tests

	mu   sync.Mutex
	live []*daemon
	dirs []string
}

func newSupervisor(base string) *supervisor { return &supervisor{base: base, grace: stopGrace} }

// tempDir creates a directory under base that stopAll removes.
func (s *supervisor) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(s.base, 0o755); err != nil {
		return "", fmt.Errorf("temp base: %w", err)
	}
	dir, err := os.MkdirTemp(s.base, prefix)
	if err != nil {
		return "", fmt.Errorf("temp dir: %w", err)
	}
	s.mu.Lock()
	s.dirs = append(s.dirs, dir)
	s.mu.Unlock()
	return dir, nil
}

// freeAddr picks a loopback port nobody is listening on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick free port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", fmt.Errorf("pick free port: %w", err)
	}
	return addr, nil
}

// spawn execs bin directly (never through `go run`, whose child would
// outlive a killed parent) in its own process group, with SIGKILL
// delivered by the kernel if the runner dies first. Pdeathsig is tied to
// the OS thread that forked, so the fork and the Wait run on a goroutine
// locked to its thread for the child's whole life.
func (s *supervisor) spawn(name, bin, addr, logDir string, args ...string) (*daemon, error) {
	logPath := filepath.Join(logDir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d := &daemon{name: name, addr: addr, log: logPath, exited: make(chan struct{})}
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		err := cmd.Start()
		started <- err
		if err != nil {
			return
		}
		_ = cmd.Wait() // the exit status of a daemon we signal is not news
		logf.Close()
		close(d.exited)
	}()
	if err := <-started; err != nil {
		logf.Close()
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	d.pid = cmd.Process.Pid
	s.mu.Lock()
	s.live = append(s.live, d)
	s.mu.Unlock()
	return d, nil
}

// stopAll stops every live daemon (SIGTERM to the process group, five
// seconds of grace, then SIGKILL), waits until each is reaped, checks
// that each pid is gone and each port refuses connections, and removes
// the temp dirs. It returns how many processes or ports survived; it is
// safe to call repeatedly and from any goroutine.
func (s *supervisor) stopAll() int {
	s.mu.Lock()
	live, dirs := s.live, s.dirs
	s.live, s.dirs = nil, nil
	s.mu.Unlock()

	for _, d := range live {
		_ = syscall.Kill(-d.pid, syscall.SIGTERM) // ESRCH: already gone
	}
	deadline := time.Now().Add(s.grace)
	leftover := 0
	for _, d := range live {
		if !d.waitExit(time.Until(deadline)) {
			_ = syscall.Kill(-d.pid, syscall.SIGKILL)
			if !d.waitExit(s.grace) {
				leftover++
				continue
			}
		}
		if err := syscall.Kill(d.pid, 0); !errors.Is(err, syscall.ESRCH) {
			leftover++
			continue
		}
		if c, err := net.DialTimeout("tcp", d.addr, 200*time.Millisecond); err == nil {
			c.Close()
			leftover++
		}
	}
	for _, dir := range dirs {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "kbench: remove temp dir:", err)
			leftover++
		}
	}
	return leftover
}

// waitReady polls /healthz until the daemon answers 200, it exits, or
// the timeout passes.
func waitReady(d *daemon, timeout time.Duration) error {
	cl := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := cl.Get(d.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before becoming ready:\n%s", d.name, logTail(d.log, 15))
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s:\n%s", d.name, timeout, logTail(d.log, 15))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// logTail returns the last n lines of a daemon log, for error reports.
func logTail(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM for pid %d", pid)
}
