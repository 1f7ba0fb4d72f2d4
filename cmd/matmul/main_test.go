package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when asMain is set.
func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const asMain = "MATMUL_TEST_AS_MAIN"

// TestBadGeometryExits2 pins that a product the PE grid cannot split is
// rejected as a configuration (exit 2, one line naming the grid) before
// anything runs, rather than crashing mid-setup.
func TestBadGeometryExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-pes=8", "-n=30")
	cmd.Env = append(os.Environ(), asMain+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2\nstderr: %s", err, stderr.String())
	}
	out := strings.TrimSpace(stderr.String())
	if strings.Contains(out, "\n") || !strings.Contains(out, "grid [2 2 2]") {
		t.Fatalf("stderr %q, want one line naming the grid [2 2 2]", out)
	}
}
