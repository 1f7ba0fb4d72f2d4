// Command stencil runs the §4.1 halo-exchange study: 3-D Jacobi with
// message-based or CkDirect halo exchange, or both side by side.
//
//	stencil -platform bgp -pes 256 -domain 1024x1024x512 -compare
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/apps/stencil"
	"repro/internal/charm"
	"repro/internal/launch"
	"repro/internal/netrt"
	"repro/internal/trace"
)

var binary = launch.Binary{
	Name:     "stencil",
	Backends: []charm.Backend{charm.SimBackend, charm.RealBackend, charm.NetBackend},
	Groups:   launch.SimChaos | launch.Kill | launch.Ckpt | launch.LB,
}

func main() {
	var (
		pes       = flag.Int("pes", 64, "processing elements")
		domain    = flag.String("domain", "1024x1024x512", "global domain NXxNYxNZ")
		vr        = flag.Int("vr", 8, "virtualization ratio (chares per PE)")
		iters     = flag.Int("iters", 3, "measured iterations")
		warmup    = flag.Int("warmup", 1, "warmup iterations")
		modeName  = flag.String("mode", "ckd", "msg | ckd")
		compare   = flag.Bool("compare", false, "run both modes and report the improvement")
		validate  = flag.Bool("validate", false, "move real data and check against the serial reference (small domains)")
		traceFile = flag.String("trace", "", "write a Chrome trace-event JSON timeline to this file")
		skew      = flag.Float64("skew", 0, "artificial imbalance: the first half of the chare array wastes this many times extra compute")
	)
	lf := binary.Register(flag.CommandLine)
	flag.Parse()

	nx, ny, nz, err := parseDomain(*domain)
	if err != nil {
		binary.Fatal(err)
	}
	mode := stencil.Ckd
	switch {
	case *compare, *modeName == "ckd":
	case *modeName == "msg":
		mode = stencil.Msg
	default:
		binary.Fatal(fmt.Errorf("unknown mode %q", *modeName))
	}
	r := lf.Launch(*compare, func(r *launch.Run) error {
		if *traceFile != "" && r.Backend != charm.SimBackend {
			return errors.New("-trace records the virtual timeline and is sim-only (drop it or use -backend=sim)")
		}
		return nil
	})
	cfg := stencil.Config{
		Platform: r.Platform,
		Mode:     mode,
		PEs:      *pes, Virtualization: *vr,
		NX: nx, NY: ny, NZ: nz,
		Iters: *iters, Warmup: *warmup,
		Validate: *validate,
		Backend:  r.Backend,
		Net:      r.Node,
		Chaos:    r.Chaos,
		Kill:     r.Kill,
		Ckpt:     r.Ckpt,
		LBEvery:  r.LBEvery, LBStrategy: r.LBStrategy,
		Skew: *skew,
	}
	if *traceFile != "" {
		tl := trace.NewTimeline(0)
		cfg.Timeline = tl
		defer func() {
			f, err := os.Create(*traceFile)
			if err != nil {
				binary.Fatal(err)
			}
			defer f.Close()
			if err := tl.WriteChromeTrace(f); err != nil {
				binary.Fatal(err)
			}
			fmt.Printf("wrote %d spans to %s (open in chrome://tracing or Perfetto)\n",
				len(tl.Spans()), *traceFile)
		}()
	}
	if *compare {
		msg, ckd, pct := stencil.Improvement(cfg)
		if !r.Quiet {
			fmt.Printf("stencil %s on %d PEs of %s, chare grid %v (%d chares)\n",
				*domain, *pes, r.Platform.Name, msg.ChareGrid, msg.Chares)
			fmt.Printf("  msg: %v per iteration\n", msg.IterTime)
			fmt.Printf("  ckd: %v per iteration\n", ckd.IterTime)
			fmt.Printf("  improvement: %.2f%%\n", pct)
		}
		printNetStats(r.Node)
		r.Finish(append(msg.Errors, ckd.Errors...))
		return
	}
	var res stencil.Result
	res.Errors = r.Do(func() []error {
		res = stencil.Run(cfg)
		return res.Errors
	})
	if !r.Quiet {
		fmt.Printf("stencil %s, mode %v, %d PEs: %v per iteration (%d chares, grid %v)\n",
			*domain, cfg.Mode, *pes, res.IterTime, res.Chares, res.ChareGrid)
		if *validate {
			// Under net each rank validates and checksums only the block it
			// hosts, so rank 0's sum is a share of the global checksum, not
			// the whole of it; the residual crosses ranks via reductions and
			// matches the sim run exactly.
			label := "field checksum"
			if r.Node != nil {
				label = fmt.Sprintf("rank %d field checksum share", r.Node.Rank())
			}
			fmt.Printf("  residual %.6g, %s %.6f\n", res.Residual, label, res.FieldSum)
		}
		if r.LBEvery > 0 {
			// The planner runs on PE 0, so these counters live on rank 0's
			// recorder; scripted runs (CI's lb-smoke job) grep this line to
			// prove the balancer actually moved something.
			fmt.Printf("  lb: %d rounds, %d migrations, %d straggler forwards\n",
				res.Counters[trace.CntLBRounds],
				res.Counters[trace.CntLBMigrations],
				res.Counters[trace.CntLBForwards])
		}
	}
	printNetStats(r.Node)
	r.Finish(res.Errors)
}

// printNetStats emits one machine-readable mesh-counter line per rank
// on stderr before teardown. Every rank prints (stderr is shared by
// self-spawned workers), so a script can sum conns_opened across the
// world — CI's scale-smoke job greps these lines to assert that a
// 16-rank stencil halo opens far fewer sockets than the N·(N−1) full
// mesh and that rank 0's termination probe fan-in respects the tree.
func printNetStats(node *netrt.Node) {
	if node == nil {
		return
	}
	s := node.Stats()
	fmt.Fprintf(os.Stderr,
		"stencil: net-stats rank=%d world=%d conns_opened=%d dialed=%d accepted=%d term_fanout=%d probe_rounds=%d probe_reports=%d dialreqs=%d\n",
		node.Rank(), node.World(), s.ConnsDialed+s.ConnsAccepted,
		s.ConnsDialed, s.ConnsAccepted, s.TermFanout,
		s.TermProbeRounds, s.TermProbeReports, s.DialReqs)
}

func parseDomain(s string) (nx, ny, nz int, err error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("domain %q not NXxNYxNZ", s)
	}
	dims := make([]int, 3)
	for i, p := range parts {
		dims[i], err = strconv.Atoi(p)
		if err != nil || dims[i] <= 0 {
			return 0, 0, 0, fmt.Errorf("bad dimension %q", p)
		}
	}
	return dims[0], dims[1], dims[2], nil
}
