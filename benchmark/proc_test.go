package main

import (
	"errors"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"testing"
	"time"
)

// spawnSleeper starts a dummy child that would outlive the test.
func spawnSleeper(t *testing.T, sup *supervisor) *daemon {
	t.Helper()
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary:", err)
	}
	dir, err := sup.tempDir("sleeper-")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	d, err := sup.spawn("sleeper", sleep, addr, dir, "600")
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(d.pid, 0); err != nil {
		t.Fatalf("child %d not running after spawn: %v", d.pid, err)
	}
	return d
}

func assertReaped(t *testing.T, sup *supervisor, d *daemon, dir string) {
	t.Helper()
	select {
	case <-d.exited:
	default:
		t.Fatalf("child %d was not reaped", d.pid)
	}
	if err := syscall.Kill(d.pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("pid %d still exists: %v", d.pid, err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp dir %s not removed: %v", dir, err)
	}
	if left := sup.stopAll(); left != 0 {
		t.Errorf("second stopAll reported %d leftovers", left)
	}
}

// The error path: a failed run calls exit, which must reap the child
// and remove the temp dir before leaving with the failure code.
func TestExitReapsChildOnError(t *testing.T) {
	sup := newSupervisor(t.TempDir())
	d := spawnSleeper(t, sup)
	dir := sup.dirs[0]
	codes := make(chan int, 1)
	sd := &shutdown{sup: sup, leave: func(code int) { codes <- code }}
	go sd.exit(exitIncorrect)
	select {
	case code := <-codes:
		if code != exitIncorrect {
			t.Errorf("exit code %d, want %d", code, exitIncorrect)
		}
	case <-time.After(2 * stopGrace):
		t.Fatal("exit did not finish")
	}
	assertReaped(t, sup, d, dir)
}

// The signal path: SIGHUP to the runner tears down the same way.
func TestSignalReapsChild(t *testing.T) {
	sup := newSupervisor(t.TempDir())
	d := spawnSleeper(t, sup)
	dir := sup.dirs[0]
	codes := make(chan int, 1)
	sd := &shutdown{sup: sup, leave: func(code int) { codes <- code }}
	sd.onSignal()
	t.Cleanup(func() { signal.Reset(syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP) })
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-codes:
		if code != exitSignal {
			t.Errorf("exit code %d, want %d", code, exitSignal)
		}
	case <-time.After(2 * stopGrace):
		t.Fatal("signal did not lead to exit")
	}
	assertReaped(t, sup, d, dir)
}

// A child that ignores SIGTERM is killed after the grace period rather
// than left behind.
func TestStopAllEscalatesToKill(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh:", err)
	}
	sup := newSupervisor(t.TempDir())
	sup.grace = 300 * time.Millisecond
	dir, err := sup.tempDir("stubborn-")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	d, err := sup.spawn("stubborn", sh, addr, dir, "-c", `trap "" TERM; while :; do sleep 1; done`)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the shell install its trap
	if left := sup.stopAll(); left != 0 {
		t.Errorf("stopAll left %d behind", left)
	}
	assertReaped(t, sup, d, dir)
}
