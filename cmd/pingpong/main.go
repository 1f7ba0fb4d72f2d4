// Command pingpong runs the §3 microbenchmark for one stack at one or
// more message sizes.
//
//	pingpong -platform abe -mode ckdirect -sizes 100,1000,100000 -iters 1000
package main

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/apps/pingpong"
	"repro/internal/charm"
	"repro/internal/launch"
)

var binary = launch.Binary{
	Name:     "pingpong",
	Backends: []charm.Backend{charm.SimBackend, charm.RealBackend, charm.NetBackend},
	Groups:   launch.SimChaos | launch.Kill,
}

func main() {
	var (
		modeName = flag.String("mode", "ckdirect", "charm-msg | ckdirect | mpi | mpi-put | mpi-alt")
		sizesArg = flag.String("sizes", "100,1000,5000,10000,20000,30000,40000,70000,100000,500000", "comma-separated payload sizes in bytes")
		iters    = flag.Int("iters", 1000, "round trips to average over")
	)
	lf := binary.Register(flag.CommandLine)
	flag.Parse()

	mode, err := mode(*modeName)
	if err != nil {
		binary.Fatal(err)
	}
	var sizes []int
	for _, field := range strings.Split(*sizesArg, ",") {
		size, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			binary.Fatal(fmt.Errorf("bad size %q: %v", field, err))
		}
		sizes = append(sizes, size)
	}
	r := lf.Launch(false, func(r *launch.Run) error {
		if r.Backend != charm.SimBackend && mode != pingpong.CharmMsg && mode != pingpong.CkDirect {
			return fmt.Errorf("mode %v models a foreign MPI stack and is sim-only (use charm-msg or ckdirect with -backend=%v)", mode, r.Backend)
		}
		if r.Kill != nil && len(sizes) > 1 {
			return errors.New("-chaos.kill fires once per process; run it with a single -sizes value")
		}
		return nil
	})
	if !r.Quiet {
		fmt.Printf("pingpong on %s, mode %v, %d iterations\n", r.Platform.Name, mode, *iters)
		fmt.Printf("%12s %14s\n", "size (B)", "RTT (us)")
	}
	var errs []error
	for _, size := range sizes {
		cfg := pingpong.Config{
			Platform: r.Platform,
			Mode:     mode,
			Size:     size,
			Iters:    *iters,
			Virtual:  size > 65536,
			Backend:  r.Backend,
			Net:      r.Node,
			Chaos:    r.Chaos,
			Kill:     r.Kill,
		}
		// Pingpong takes no checkpoints: after the mesh rebuilds around
		// a respawned rank, the benchmark restarts from iteration zero.
		var res pingpong.Result
		res.Errors = r.Do(func() []error {
			res = pingpong.Run(cfg)
			return res.Errors
		})
		if !r.Quiet {
			fmt.Printf("%12d %14.3f\n", size, res.RTTMicros())
		}
		for _, e := range res.Errors {
			errs = append(errs, fmt.Errorf("size %d: %w", size, e))
		}
	}
	r.Finish(errs)
}

func mode(name string) (pingpong.Mode, error) {
	switch name {
	case "charm-msg", "msg":
		return pingpong.CharmMsg, nil
	case "ckdirect", "ckd":
		return pingpong.CkDirect, nil
	case "mpi":
		return pingpong.MPI, nil
	case "mpi-put":
		return pingpong.MPIPut, nil
	case "mpi-alt", "mpich-vmi":
		return pingpong.MPIAlt, nil
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}
