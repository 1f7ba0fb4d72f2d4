// Package launch is the one launch path every command-line binary
// shares. It registers the common flags (-platform, -backend, the
// sim-only chaos set, -chaos.kill, -ckpt.*, -lb.* and -net.*),
// validates them under the same rules the job daemon applies at
// admission, starts the net-backend world, wraps the run in the
// rank-death recovery loop, and tears it down with one exit-code
// convention: 2 for a configuration the binary rejects, 1 for a run
// that reported runtime violations.
//
// A binary declares what it supports in a Binary value, keeps only its
// own app flags, and drives a run as
//
//	lf := binary.Register(flag.CommandLine)
//	flag.Parse()
//	r := lf.Launch(*compare, nil)
//	res.Errors = r.Do(func() []error { res = app.Run(cfg); return res.Errors })
//	r.Finish(res.Errors)
package launch

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/lb"
	"repro/internal/netmodel"
	"repro/internal/netrt"
)

// Group is a set of shared flags a binary registers. A binary that
// cannot act on a group does not register it, so passing one of its
// flags is an unknown-flag error.
type Group uint

// Flag groups.
const (
	// SimChaos is the simulated-failure set: -faults, -fault-seed,
	// -noise, -reliable and -watchdog (sim backend only).
	SimChaos Group = 1 << iota
	// Kill is -chaos.kill, the kill -9 recovery tier (net only).
	Kill
	// Ckpt is -ckpt.every and -ckpt.dir (net only).
	Ckpt
	// LB is -lb.every and -lb.strategy.
	LB
)

// Binary declares one command's launch surface. Every field is fixed by
// the command's code; none is user-settable.
type Binary struct {
	// Name prefixes every diagnostic line.
	Name string
	// Backends lists the supported backends, default first. The -net.*
	// flags exist only when NetBackend is listed.
	Backends []charm.Backend
	// Groups are the shared flag groups the binary acts on.
	Groups Group
	// Serving keeps the net mesh rejoinable for the whole process
	// lifetime, whatever the flags say: any job a daemon serves may
	// carry a kill.
	Serving bool
}

// Flags holds one binary's shared flag values until Check turns them
// into a Run; the values that need no parsing are bound into run.
type Flags struct {
	run      Run
	platform string
	backend  string
	chaos    chaos.Options
	kill     string
	ckpt     charm.CkptOptions
}

var backendUsage = map[charm.Backend]string{
	charm.SimBackend:  "sim (modelled network)",
	charm.RealBackend: "real (goroutines + shared memory)",
	charm.NetBackend:  "net (multiple OS processes over TCP)",
}

// Register binds the binary's shared flags on fs. Call before fs.Parse.
func (b Binary) Register(fs *flag.FlagSet) *Flags {
	f := &Flags{run: Run{bin: b}}
	fs.StringVar(&f.platform, "platform", "abe", "modelled platform: abe | bgp")
	var usage []string
	for _, be := range b.Backends {
		usage = append(usage, backendUsage[be])
	}
	fs.StringVar(&f.backend, "backend", b.Backends[0].String(), strings.Join(usage, " | "))
	if b.Groups&SimChaos != 0 {
		fs.StringVar(&f.chaos.Faults, "faults", "", `fault-plan spec, e.g. "drop:rate=0.01" (see internal/faults)`)
		fs.Uint64Var(&f.chaos.Seed, "fault-seed", 1, "seed for noise and fault randomness")
		fs.BoolVar(&f.chaos.Noise, "noise", false, "inject CPU-noise bursts")
		fs.BoolVar(&f.chaos.Reliable, "reliable", false, "enable ack/retransmit message reliability")
		fs.StringVar(&f.chaos.Watchdog, "watchdog", "off", "CkDirect stall watchdog: off | report | recover")
	}
	if b.Groups&Kill != 0 {
		fs.StringVar(&f.kill, "chaos.kill", "", `kill -9 a worker rank mid-run: "RANK@STEP" (net backend only; the world recovers and reruns)`)
	}
	if b.Groups&Ckpt != 0 {
		fs.IntVar(&f.ckpt.Every, "ckpt.every", 0, "checkpoint every N reduction barriers, 0 disables (net backend only)")
		fs.StringVar(&f.ckpt.Dir, "ckpt.dir", "", "checkpoint directory, shared by every rank (net backend only)")
	}
	if b.Groups&LB != 0 {
		fs.IntVar(&f.run.LBEvery, "lb.every", 0, "run a load-balancing round every N reduction barriers, 0 disables")
		fs.StringVar(&f.run.LBStrategy, "lb.strategy", "greedy", "rebalancing strategy: greedy | none")
	}
	if slices.Contains(b.Backends, charm.NetBackend) {
		f.run.net = netrt.RegisterFlags(fs)
	}
	return f
}

// Run is one validated run: the parsed shared configuration and, once
// Launch has started it, the net-backend node.
type Run struct {
	bin      Binary
	net      *netrt.Config
	Platform *netmodel.Platform
	Backend  charm.Backend
	// Chaos is the simulated-failure scenario; nil when every
	// ingredient is off, so quiet runs take the unchaotic code path.
	Chaos *chaos.Scenario
	// Kill is the parsed -chaos.kill trigger, nil when unset.
	Kill *chaos.Kill
	// Ckpt is the checkpoint schedule, nil when checkpointing is off.
	Ckpt       *charm.CkptOptions
	LBEvery    int
	LBStrategy string
	// Node is the started net-backend node (nil on sim and real).
	Node *netrt.Node
	// Quiet is set on worker ranks: they compute and validate their
	// share, while the report and the world's exit status belong to
	// rank 0.
	Quiet bool
}

// Check validates the parsed flags without starting anything. compare
// is the binary's -compare setting (false for binaries without one).
// The kill range needs the started world and is checked by Launch.
func (f *Flags) Check(compare bool) (*Run, error) {
	r := f.run
	var err error
	if r.Platform, err = netmodel.ParsePlatform(f.platform); err != nil {
		return nil, err
	}
	if r.Backend, err = charm.ParseBackend(f.backend); err != nil {
		return nil, err
	}
	if !slices.Contains(r.bin.Backends, r.Backend) {
		return nil, fmt.Errorf("-backend=%v is not supported here (supported: %v)", r.Backend, r.bin.Backends)
	}
	if r.Chaos, err = f.chaos.Build(); err != nil {
		return nil, err
	}
	if r.Chaos != nil && r.Backend != charm.SimBackend {
		return nil, fmt.Errorf("-faults/-noise/-reliable/-watchdog model simulated failures and are sim-only (drop them or use -backend=sim)")
	}
	if r.Kill, err = chaos.ParseKill(f.kill); err != nil {
		return nil, err
	}
	if (f.ckpt.Every > 0) != (f.ckpt.Dir != "") {
		return nil, fmt.Errorf("-ckpt.every and -ckpt.dir go together (got every=%d, dir=%q)", f.ckpt.Every, f.ckpt.Dir)
	}
	if f.ckpt.Every > 0 {
		r.Ckpt = &charm.CkptOptions{Dir: f.ckpt.Dir, Every: f.ckpt.Every}
	}
	if r.recovery() {
		if r.Backend != charm.NetBackend {
			return nil, fmt.Errorf("-ckpt.* and -chaos.kill exercise rank-death recovery and need -backend=net")
		}
		if compare {
			return nil, fmt.Errorf("-compare reruns both modes on one mesh and cannot combine with recovery flags (pick one -mode)")
		}
	}
	if err := CheckLB(r.LBEvery, r.LBStrategy); err != nil {
		return nil, err
	}
	return &r, nil
}

// CheckKill validates a kill trigger against the world it would fire
// in: the victim must be a worker rank of a net-backend world. The CLI
// applies it to the started world and the job daemon at admission, so
// both reject the same kills with the same message.
func CheckKill(k *chaos.Kill, be charm.Backend, world int) error {
	if k == nil {
		return nil
	}
	if be != charm.NetBackend {
		return fmt.Errorf("kill needs the net backend (got %v)", be)
	}
	if k.Rank >= world {
		return fmt.Errorf("kill rank %d out of worker range [1, %d)", k.Rank, world)
	}
	return nil
}

// CheckLB validates a load-balancing period and strategy name: the rule
// behind both the CLI's -lb.* flags and the daemon's lb_every and
// lb_strategy fields.
func CheckLB(every int, strategy string) error {
	if every < 0 {
		return fmt.Errorf("lb period %d is negative", every)
	}
	s, err := lb.ParseStrategy(strategy)
	if err != nil {
		return err
	}
	if every > 0 && s == nil {
		return fmt.Errorf("lb period %d needs a strategy (got %q; have: greedy)", every, strategy)
	}
	return nil
}

// Launch validates the parsed flags, runs the binary's own
// backend-dependent check (nil for none), and starts the net-backend
// world. A rejected configuration exits 2, before any rank computes.
func (f *Flags) Launch(compare bool, check func(*Run) error) *Run {
	r, err := f.Check(compare)
	if err == nil && check != nil {
		err = check(r)
	}
	if err != nil {
		f.run.bin.Fatal(err)
	}
	if r.Backend == charm.NetBackend {
		cfg := *r.net
		// Keep every rank's listener open past bootstrap so Rejoin can
		// rebuild the mesh around a respawned rank.
		cfg.Recover = r.bin.Serving || r.recovery()
		if r.Node, err = netrt.Start(cfg); err != nil {
			r.bin.Fatal(err)
		}
		r.Quiet = r.Node.IsWorker()
		if err := CheckKill(r.Kill, r.Backend, r.Node.World()); err != nil {
			r.Fatal(err)
		}
	}
	return r
}

// recovery reports whether rank-death recovery is on.
func (r *Run) recovery() bool { return r.Kill != nil || r.Ckpt != nil }

// Do executes one complete SPMD run. With recovery on, every rank's
// driver retries through the same loop: on a recoverable rank death the
// mesh rebuilds (respawning the victim), and the rerun resumes from the
// newest committed checkpoint, or from scratch when none was taken.
func (r *Run) Do(run func() []error) []error {
	if !r.recovery() {
		return run()
	}
	return charm.RunWithRecovery(r.Node, charm.DefaultRecoveryAttempts, run)
}

// Finish tears the run down and settles the exit status. It closes the
// net-backend mesh, reaping self-spawned workers, and folds a teardown
// failure (a worker whose local validation exited non-zero) into errs.
// Any error is printed on stderr as a runtime violation and exits 1, so
// a scripted run cannot mistake a broken run for a result.
func (r *Run) Finish(errs []error) {
	if r.Node != nil {
		if err := r.Node.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) == 0 {
		return
	}
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "%s: runtime violation: %v\n", r.bin.Name, e)
	}
	os.Exit(1)
}

// Fatal rejects a configuration: one line on stderr, exit status 2.
func (b Binary) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", b.Name, err)
	os.Exit(2)
}

// Fatal closes the started world, then rejects like Binary.Fatal.
func (r *Run) Fatal(err error) {
	if r.Node != nil {
		r.Node.Close()
	}
	r.bin.Fatal(err)
}
