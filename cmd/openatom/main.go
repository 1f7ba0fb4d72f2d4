// Command openatom runs the §5 production-code proxy: the OpenAtom
// PairCalculator phase with message or CkDirect point transfers.
//
//	openatom -platform abe -pes 256 -cores-per-node 2 -scope pc-only -compare
package main

import (
	"flag"
	"fmt"

	"repro/internal/apps/openatom"
	"repro/internal/charm"
	"repro/internal/launch"
)

// The proxy does not checkpoint, so it registers neither -ckpt.* nor
// -chaos.kill (see DESIGN.md §10).
var binary = launch.Binary{
	Name:     "openatom",
	Backends: []charm.Backend{charm.SimBackend, charm.RealBackend, charm.NetBackend},
	Groups:   launch.SimChaos,
}

func main() {
	var (
		pes       = flag.Int("pes", 64, "processing elements")
		cores     = flag.Int("cores-per-node", 0, "override cores per node (paper's Abe study: 2)")
		nstates   = flag.Int("states", 256, "electronic states")
		nplanes   = flag.Int("planes", 16, "planes per state")
		grain     = flag.Int("grain", 64, "PairCalculator state-block size")
		points    = flag.Int("points", 4096, "complex coefficients per (state, plane)")
		fftWeight = flag.Float64("fft-weight", 24, "relative weight of the non-PC phase")
		steps     = flag.Int("steps", 2, "measured time steps")
		warmup    = flag.Int("warmup", 1, "warmup steps")
		scopeName = flag.String("scope", "full", "full | pc-only")
		modeName  = flag.String("mode", "ckd", "msg | ckd | ckd-naive")
		compare   = flag.Bool("compare", false, "run msg and ckd and report the improvement")
	)
	lf := binary.Register(flag.CommandLine)
	flag.Parse()

	var scope openatom.Scope
	switch *scopeName {
	case "full":
		scope = openatom.FullStep
	case "pc-only", "pc":
		scope = openatom.PCOnly
	default:
		binary.Fatal(fmt.Errorf("unknown scope %q", *scopeName))
	}
	mode := openatom.Ckd
	switch {
	case *compare, *modeName == "ckd":
	case *modeName == "msg":
		mode = openatom.Msg
	case *modeName == "ckd-naive":
		mode = openatom.CkdNaive
	default:
		binary.Fatal(fmt.Errorf("unknown mode %q", *modeName))
	}
	r := lf.Launch(*compare, nil)
	cfg := openatom.Config{
		Platform: r.Platform,
		Mode:     mode,
		Scope:    scope,
		PEs:      *pes, CoresPerNode: *cores,
		NStates: *nstates, NPlanes: *nplanes, Grain: *grain, Points: *points,
		FFTWeight: *fftWeight,
		Steps:     *steps, Warmup: *warmup,
		Backend: r.Backend,
		Net:     r.Node,
		Chaos:   r.Chaos,
	}
	if *compare {
		msg, ckd, pct := openatom.Improvement(cfg)
		if !r.Quiet {
			fmt.Printf("openatom proxy on %d PEs of %s, scope %v (%d CkDirect channels)\n",
				*pes, r.Platform.Name, scope, ckd.Channels)
			fmt.Printf("  msg: %v per step\n", msg.StepTime)
			fmt.Printf("  ckd: %v per step\n", ckd.StepTime)
			fmt.Printf("  improvement: %.2f%%\n", pct)
		}
		r.Finish(append(msg.Errors, ckd.Errors...))
		return
	}
	res := openatom.Run(cfg)
	if !r.Quiet {
		fmt.Printf("openatom proxy, mode %v, scope %v, %d PEs: %v per step (%d channels)\n",
			cfg.Mode, scope, *pes, res.StepTime, res.Channels)
	}
	r.Finish(res.Errors)
}
