// Command fem runs the supplementary unstructured-mesh FEM study (the
// paper's §1 application class): an explicit solver whose partition
// boundaries produce an irregular, static communication graph.
//
//	fem -platform abe -pes 32 -mesh 2048x2048 -compare
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/apps/fem"
	"repro/internal/charm"
	"repro/internal/launch"
)

var binary = launch.Binary{
	Name:     "fem",
	Backends: []charm.Backend{charm.SimBackend, charm.RealBackend, charm.NetBackend},
	Groups:   launch.SimChaos | launch.Kill | launch.Ckpt,
}

func main() {
	var (
		pes      = flag.Int("pes", 16, "processing elements")
		mesh     = flag.String("mesh", "512x512", "quad grid NXxNY (2*NX*NY triangles)")
		vr       = flag.Int("vr", 2, "mesh partitions per PE")
		iters    = flag.Int("iters", 3, "measured iterations")
		warmup   = flag.Int("warmup", 1, "warmup iterations")
		modeName = flag.String("mode", "ckd", "msg | ckd")
		compare  = flag.Bool("compare", false, "run both modes and report the improvement")
		validate = flag.Bool("validate", false, "move real vertex data and verify against the serial reference (small meshes)")
	)
	lf := binary.Register(flag.CommandLine)
	flag.Parse()

	parts := strings.Split(*mesh, "x")
	if len(parts) != 2 {
		binary.Fatal(fmt.Errorf("mesh %q not NXxNY", *mesh))
	}
	nx, err1 := strconv.Atoi(parts[0])
	ny, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || nx <= 0 || ny <= 0 {
		binary.Fatal(fmt.Errorf("bad mesh %q", *mesh))
	}
	mode := fem.Ckd
	switch {
	case *compare, *modeName == "ckd":
	case *modeName == "msg":
		mode = fem.Msg
	default:
		binary.Fatal(fmt.Errorf("unknown mode %q", *modeName))
	}
	r := lf.Launch(*compare, nil)
	cfg := fem.Config{
		Platform: r.Platform,
		Mode:     mode,
		PEs:      *pes, Virtualization: *vr,
		NX: nx, NY: ny,
		Iters: *iters, Warmup: *warmup,
		Validate: *validate,
		Backend:  r.Backend,
		Net:      r.Node,
		Chaos:    r.Chaos,
		Kill:     r.Kill,
		Ckpt:     r.Ckpt,
	}
	if *compare {
		msg, ckd, pct := fem.Improvement(cfg)
		if !r.Quiet {
			fmt.Printf("fem %s (%d triangles) on %d PEs of %s, %d partitions (%dx%d)\n",
				*mesh, 2*nx*ny, *pes, r.Platform.Name, msg.Parts, msg.PartGrid[0], msg.PartGrid[1])
			fmt.Printf("  msg: %v per iteration\n", msg.IterTime)
			fmt.Printf("  ckd: %v per iteration (%d channels)\n", ckd.IterTime, ckd.Channels)
			fmt.Printf("  improvement: %.2f%%\n", pct)
		}
		r.Finish(append(msg.Errors, ckd.Errors...))
		return
	}
	var res fem.Result
	res.Errors = r.Do(func() []error {
		res = fem.Run(cfg)
		return res.Errors
	})
	if !r.Quiet {
		fmt.Printf("fem %s, mode %v, %d PEs: %v per iteration (%d partitions, %d channels)\n",
			*mesh, cfg.Mode, *pes, res.IterTime, res.Parts, res.Channels)
		if *validate {
			// Under net each rank validates only the parts it hosts
			// against the shared serial reference.
			fmt.Printf("  residual %.6g, shared-vertex consistency: %v\n", res.Residual, res.SharedConsistent)
		}
	}
	r.Finish(res.Errors)
}
