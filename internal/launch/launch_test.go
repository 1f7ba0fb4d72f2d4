package launch_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/charm"
	"repro/internal/launch"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/serve"
)

var all = []charm.Backend{charm.SimBackend, charm.RealBackend, charm.NetBackend}

// binaries stand in for the commands' own declarations: one per
// distinct launch surface.
var binaries = map[string]launch.Binary{
	"stencil":  {Name: "stencil", Backends: all, Groups: launch.SimChaos | launch.Kill | launch.Ckpt | launch.LB},
	"openatom": {Name: "openatom", Backends: all, Groups: launch.SimChaos},
	"cktrace":  {Name: "cktrace", Backends: all[:2], Groups: launch.SimChaos | launch.LB},
	"ckserve":  {Name: "ckserve", Backends: all[1:], Serving: true},
}

// standInEnv names the binary the test executable impersonates.
const standInEnv = "LAUNCH_TEST_BINARY"

// TestMain turns the test executable into a stand-in command when
// standInEnv is set: it launches its own arguments through the launch
// path exactly as a cmd's main does, so the table test observes real
// exit codes, and net-backend rows self-spawn real worker processes
// (which inherit the environment and so impersonate the same binary).
func TestMain(m *testing.M) {
	if name := os.Getenv(standInEnv); name != "" {
		standIn(binaries[name], os.Args[1:])
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func standIn(b launch.Binary, args []string) {
	fs := flag.NewFlagSet(b.Name, flag.ExitOnError)
	lf := b.Register(fs)
	compare := fs.Bool("compare", false, "run both modes")
	fs.Parse(args)
	r := lf.Launch(*compare, nil)
	r.Finish(nil)
}

// TestRejections runs every configuration the launch path rejects as a
// real process: each must exit 2 with the named error on stderr.
func TestRejections(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		bin  string
		args []string
		want string
	}{
		{"stencil", []string{"-platform=cray"}, `unknown platform "cray"`},
		{"stencil", []string{"-backend=gpu"}, `unknown backend "gpu"`},
		{"cktrace", []string{"-backend=net"}, "-backend=net is not supported"},
		{"ckserve", []string{"-backend=sim"}, "-backend=sim is not supported"},
		{"stencil", []string{"-backend=real", "-faults=drop:rate=0.1"}, "sim-only"},
		{"stencil", []string{"-backend=real", "-noise"}, "sim-only"},
		{"stencil", []string{"-backend=net", "-watchdog=report"}, "sim-only"},
		{"stencil", []string{"-watchdog=sometimes"}, "bad -watchdog mode"},
		{"stencil", []string{"-faults=drop:rate"}, "bad -faults spec"},
		{"stencil", []string{"-chaos.kill=1"}, "not RANK@STEP"},
		{"stencil", []string{"-backend=net", "-chaos.kill=0@1"}, "kill rank must be a worker"},
		{"stencil", []string{"-backend=net", "-chaos.kill=1@0"}, "kill step must be >= 1"},
		{"stencil", []string{"-ckpt.every=2"}, "-ckpt.every and -ckpt.dir go together"},
		{"stencil", []string{"-backend=net", "-ckpt.dir=" + t.TempDir()}, "-ckpt.every and -ckpt.dir go together"},
		{"stencil", []string{"-backend=real", "-chaos.kill=1@1"}, "need -backend=net"},
		{"stencil", []string{"-ckpt.every=2", "-ckpt.dir=" + t.TempDir()}, "need -backend=net"},
		{"stencil", []string{"-backend=net", "-net.world=3", "-chaos.kill=1@1", "-compare"}, "cannot combine with recovery"},
		{"stencil", []string{"-lb.every=2", "-lb.strategy=none"}, "needs a strategy"},
		{"stencil", []string{"-lb.strategy=bogus"}, `unknown strategy "bogus"`},
		{"stencil", []string{"-lb.every=-1"}, "negative"},
		{"openatom", []string{"-chaos.kill=1@1"}, "flag provided but not defined: -chaos.kill"},
		{"openatom", []string{"-ckpt.every=2"}, "flag provided but not defined: -ckpt.every"},
		{"cktrace", []string{"-net.world=2"}, "flag provided but not defined: -net.world"},
		{"ckserve", []string{"-faults=drop:rate=0.1"}, "flag provided but not defined: -faults"},
		// Range-checked against the started world: rank 0 and the
		// self-spawned worker both reject and exit 2.
		{"stencil", []string{"-backend=net", "-net.world=2", "-chaos.kill=5@1"}, "kill rank 5 out of worker range [1, 2)"},
	} {
		t.Run(c.bin+strings.Join(c.args, ""), func(t *testing.T) {
			cmd := exec.Command(exe, c.args...)
			cmd.Env = append(os.Environ(), standInEnv+"="+c.bin)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%s %v: %v, want exit status 2\nstderr: %s", c.bin, c.args, err, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Fatalf("%s %v: stderr %q, want it to contain %q", c.bin, c.args, stderr.String(), c.want)
			}
		})
	}
}

// TestCLIAgreesWithDaemon feeds the same kill and load-balancing inputs
// to the CLI's launch validator and to the daemon's admission gate, on
// the real backend and on a started 3-rank net world: both must accept
// or both reject each input. Only the daemon's resource ceilings
// (maxIters, maxKillAt) are daemon-only, and no input here reaches them.
func TestCLIAgreesWithDaemon(t *testing.T) {
	nodes, err := netrt.StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	envs := []serve.Env{
		{Backend: charm.RealBackend, Platform: netmodel.AbeIB},
		{Backend: charm.NetBackend, Platform: netmodel.AbeIB, Net: nodes[0]},
	}
	// cli runs the launch path's validation of args as Launch would,
	// with the kill range checked against the given world.
	cli := func(env serve.Env, args ...string) error {
		fs := flag.NewFlagSet("stencil", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		lf := binaries["stencil"].Register(fs)
		if err := fs.Parse(append(args, "-backend="+env.Backend.String())); err != nil {
			return err
		}
		r, err := lf.Check(false)
		if err != nil {
			return err
		}
		return launch.CheckKill(r.Kill, r.Backend, env.World())
	}
	agree := func(env serve.Env, input string, cliErr, daemonErr error) {
		t.Helper()
		if (cliErr == nil) != (daemonErr == nil) {
			t.Errorf("%v world %d, %s: CLI says %v, daemon says %v", env.Backend, env.World(), input, cliErr, daemonErr)
		}
	}
	for _, env := range envs {
		for _, kill := range []string{"1@2", "2@1", "3@1", "5@1", "0@1", "1@0", "-1@2", "x", "2", "1@x"} {
			spec := serve.Spec{Kind: "stencil", Kill: kill}
			agree(env, "kill "+kill, cli(env, "-chaos.kill="+kill), serve.Normalize(env, &spec))
		}
		strategies := []string{"", "greedy", "none", "bogus"}
		for _, every := range []int{-1, 0, 2} {
			for _, strat := range strategies {
				args := []string{fmt.Sprintf("-lb.every=%d", every)}
				if strat != "" { // unset: the flag default and the daemon default are both greedy
					args = append(args, "-lb.strategy="+strat)
				}
				spec := serve.Spec{Kind: "stencil", LBEvery: every, LBStrategy: strat}
				agree(env, fmt.Sprintf("lb every=%d strategy=%q", every, strat), cli(env, args...), serve.Normalize(env, &spec))
			}
		}
	}
}
