// Command matmul runs the §4.2 study: 3-D-decomposed parallel matrix
// multiplication with messages or CkDirect.
//
//	matmul -platform bgp -pes 4096 -n 2048 -compare
package main

import (
	"flag"
	"fmt"

	"repro/internal/apps/matmul"
	"repro/internal/charm"
	"repro/internal/launch"
)

var binary = launch.Binary{
	Name:     "matmul",
	Backends: []charm.Backend{charm.SimBackend, charm.RealBackend, charm.NetBackend},
	Groups:   launch.SimChaos | launch.Kill | launch.Ckpt,
}

func main() {
	var (
		pes      = flag.Int("pes", 64, "processing elements")
		n        = flag.Int("n", 2048, "matrix edge")
		iters    = flag.Int("iters", 2, "measured multiplies")
		warmup   = flag.Int("warmup", 1, "warmup multiplies")
		modeName = flag.String("mode", "ckd", "msg | ckd")
		compare  = flag.Bool("compare", false, "run both modes and report the improvement")
		validate = flag.Bool("validate", false, "move real matrices and verify the product (small n)")
	)
	lf := binary.Register(flag.CommandLine)
	flag.Parse()

	if err := matmul.CheckGeometry(*pes, *n); err != nil {
		binary.Fatal(err)
	}
	mode := matmul.Ckd
	switch {
	case *compare, *modeName == "ckd":
	case *modeName == "msg":
		mode = matmul.Msg
	default:
		binary.Fatal(fmt.Errorf("unknown mode %q", *modeName))
	}
	r := lf.Launch(*compare, nil)
	cfg := matmul.Config{
		Platform: r.Platform,
		Mode:     mode,
		PEs:      *pes,
		N:        *n,
		Iters:    *iters, Warmup: *warmup,
		Validate: *validate,
		Backend:  r.Backend,
		Net:      r.Node,
		Chaos:    r.Chaos,
		Kill:     r.Kill,
		Ckpt:     r.Ckpt,
	}
	if *compare {
		msg, ckd, pct := matmul.Improvement(cfg)
		if !r.Quiet {
			fmt.Printf("matmul %dx%d on %d PEs of %s (chare grid %dx%dx%d)\n",
				*n, *n, *pes, r.Platform.Name, msg.Grid[0], msg.Grid[1], msg.Grid[2])
			fmt.Printf("  msg: %v per multiply\n", msg.IterTime)
			fmt.Printf("  ckd: %v per multiply\n", ckd.IterTime)
			fmt.Printf("  improvement: %.2f%%\n", pct)
			if *validate {
				fmt.Printf("  max error: msg %.2e, ckd %.2e\n", msg.MaxError, ckd.MaxError)
			}
		}
		r.Finish(append(msg.Errors, ckd.Errors...))
		return
	}
	var res matmul.Result
	res.Errors = r.Do(func() []error {
		res = matmul.Run(cfg)
		return res.Errors
	})
	if !r.Quiet {
		fmt.Printf("matmul %dx%d, mode %v, %d PEs: %v per multiply\n", *n, *n, cfg.Mode, *pes, res.IterTime)
		if *validate {
			fmt.Printf("  max error %.2e\n", res.MaxError)
		}
	}
	r.Finish(res.Errors)
}
