package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when asMain is set, so tests can
// drive the real binary, self-spawned workers included (they inherit
// the environment).
func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const asMain = "STENCIL_TEST_AS_MAIN"

// TestKillRankOutsideWorldExits2 pins the kill-range rule on the
// command: a victim rank the started world does not have is a bad
// configuration (exit 2, the daemon's admission message), not a run
// that silently kills nothing.
func TestKillRankOutsideWorldExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-backend=net", "-net.world=2", "-pes=2", "-domain=8x8x4",
		"-vr=1", "-iters=1", "-warmup=0", "-chaos.kill=5@1")
	cmd.Env = append(os.Environ(), asMain+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2\nstderr: %s", err, stderr.String())
	}
	if want := "kill rank 5 out of worker range [1, 2)"; !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr %q, want %q", stderr.String(), want)
	}
}
