// Command cktrace runs an application with the Projections-style
// timeline recorder attached and reports per-PE utilization plus the
// heaviest spans — or writes the raw Chrome trace-event JSON for
// chrome://tracing / Perfetto.
//
//	cktrace -app stencil -pes 8 -mode ckd
//	cktrace -app fem -pes 16 -mode msg -out trace.json
//	cktrace -app stencil -backend real -mode ckd
//
// Under -backend=real the timeline recorder (which replays virtual
// time) is unavailable; instead the run reports the live runtime's
// trace counters, including the allocator and pool pressure counters
// (mem.*, pool.*) described in DESIGN.md §9.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/apps/fem"
	"repro/internal/apps/matmul"
	"repro/internal/apps/openatom"
	"repro/internal/apps/stencil"
	"repro/internal/charm"
	"repro/internal/launch"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The net backend is multi-process: run the apps directly (e.g.
// stencil -backend=net) and read the counters from each rank's report.
var binary = launch.Binary{
	Name:     "cktrace",
	Backends: []charm.Backend{charm.SimBackend, charm.RealBackend},
	Groups:   launch.SimChaos | launch.LB,
}

func main() {
	var (
		appName  = flag.String("app", "stencil", "stencil | matmul | openatom | fem")
		pes      = flag.Int("pes", 8, "processing elements")
		modeName = flag.String("mode", "ckd", "msg | ckd")
		out      = flag.String("out", "", "write Chrome trace JSON here instead of the summary")
		skew     = flag.Float64("skew", 0, "artificial imbalance: the first half of the chare array wastes this many times extra compute (stencil only)")
	)
	lf := binary.Register(flag.CommandLine)
	flag.Parse()

	ckd := *modeName == "ckd"
	if !ckd && *modeName != "msg" {
		binary.Fatal(fmt.Errorf("unknown mode %q", *modeName))
	}
	r := lf.Launch(false, func(r *launch.Run) error {
		// The timeline recorder replays virtual time; on the live backend
		// cktrace reports the runtime's trace counters instead.
		if *out != "" && r.Backend != charm.SimBackend {
			return errors.New("-out (Chrome trace JSON) needs the sim backend's virtual timeline")
		}
		if (r.LBEvery > 0 || *skew > 0) && *appName != "stencil" {
			return errors.New("-lb.every/-skew trace the stencil workload only")
		}
		return nil
	})
	plat, be, sc := r.Platform, r.Backend, r.Chaos

	var tl *trace.Timeline
	if be == charm.SimBackend {
		tl = trace.NewTimeline(0)
	}
	var total sim.Time
	var errs []error
	var counters map[string]int64
	switch *appName {
	case "stencil":
		mode := stencil.Msg
		if ckd {
			mode = stencil.Ckd
		}
		res := stencil.Run(stencil.Config{
			Platform: plat, Mode: mode, PEs: *pes, Virtualization: 4,
			NX: 128, NY: 128, NZ: 64, Iters: 3, Warmup: 1,
			Backend: be, Timeline: tl, Chaos: sc,
			LBEvery: r.LBEvery, LBStrategy: r.LBStrategy,
			Skew: *skew,
		})
		total = res.IterTime * sim.Time(res.Iters)
		errs, counters = res.Errors, res.Counters
	case "matmul":
		mode := matmul.Msg
		if ckd {
			mode = matmul.Ckd
		}
		res := matmul.Run(matmul.Config{
			Platform: plat, Mode: mode, PEs: *pes, N: 512,
			Iters: 2, Warmup: 1, Backend: be, Timeline: tl, Chaos: sc,
		})
		total = res.IterTime * sim.Time(res.Iters)
		errs, counters = res.Errors, res.Counters
	case "openatom":
		mode := openatom.Msg
		if ckd {
			mode = openatom.Ckd
		}
		res := openatom.Run(openatom.Config{
			Platform: plat, Mode: mode, PEs: *pes,
			NStates: 32, NPlanes: 4, Grain: 8, Points: 256,
			Steps: 2, Warmup: 1, Backend: be, Timeline: tl, Chaos: sc,
		})
		total = res.StepTime * sim.Time(res.Steps)
		errs, counters = res.Errors, res.Counters
	case "fem":
		mode := fem.Msg
		if ckd {
			mode = fem.Ckd
		}
		res := fem.Run(fem.Config{
			Platform: plat, Mode: mode, PEs: *pes, Virtualization: 2,
			NX: 128, NY: 128, Iters: 3, Warmup: 1,
			Backend: be, Timeline: tl, Chaos: sc,
		})
		total = res.IterTime * sim.Time(res.Iters)
		errs, counters = res.Errors, res.Counters
	default:
		binary.Fatal(fmt.Errorf("unknown app %q", *appName))
	}

	defer r.Finish(errs)

	if be == charm.RealBackend {
		fmt.Printf("%s on %d PEs (%s parameters), mode %s, real backend: measured window %v\n",
			*appName, *pes, plat.Name, *modeName, total)
		printCounters(counters)
		return
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			binary.Fatal(err)
		}
		defer f.Close()
		if err := tl.WriteChromeTrace(f); err != nil {
			binary.Fatal(err)
		}
		fmt.Printf("wrote %d spans to %s\n", len(tl.Spans()), *out)
		return
	}

	// Summary: horizon, per-PE utilization, heaviest spans.
	spans := tl.Spans()
	var horizon sim.Time
	for _, s := range spans {
		if s.End > horizon {
			horizon = s.End
		}
	}
	fmt.Printf("%s on %d PEs of %s, mode %s: %d spans, horizon %v (measured window %v)\n",
		*appName, *pes, plat.Name, *modeName, len(spans), horizon, total)
	fmt.Println("\nPE utilization over the whole run:")
	for pe := 0; pe < *pes; pe++ {
		u := tl.Utilization(pe, horizon)
		bar := int(u * 40)
		fmt.Printf("  PE %3d  %6.1f%%  %s\n", pe, u*100, strings.Repeat("#", bar))
	}
	sort.Slice(spans, func(i, j int) bool {
		return spans[i].End-spans[i].Start > spans[j].End-spans[j].Start
	})
	fmt.Println("\nheaviest spans:")
	for i := 0; i < 5 && i < len(spans); i++ {
		s := spans[i]
		fmt.Printf("  PE %3d  %-10s %v  [%v .. %v]\n", s.PE, s.Name, s.End-s.Start, s.Start, s.End)
	}
}

// printCounters reports the run's trace counters, leading with the
// memory-discipline groups (mem.* allocator/GC pressure, pool.* buffer
// pool traffic — DESIGN.md §9) and then everything else that fired.
func printCounters(counters map[string]int64) {
	group := func(title, prefix string) {
		var keys []string
		for k := range counters {
			if strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			return
		}
		sort.Strings(keys)
		fmt.Printf("\n%s:\n", title)
		for _, k := range keys {
			fmt.Printf("  %-18s %12d\n", k, counters[k])
		}
	}
	group("allocator / GC (whole run)", "mem.")
	group("buffer pool", "pool.")
	if gets, misses := counters["pool.gets"], counters["pool.misses"]; gets > 0 {
		fmt.Printf("  %-18s %11.1f%%\n", "hit rate", 100*float64(gets-misses)/float64(gets))
	}
	group("load balancing", "lb.")
	var rest []string
	for k := range counters {
		if !strings.HasPrefix(k, "mem.") && !strings.HasPrefix(k, "pool.") &&
			!strings.HasPrefix(k, "lb.") && counters[k] != 0 {
			rest = append(rest, k)
		}
	}
	if len(rest) > 0 {
		sort.Strings(rest)
		fmt.Println("\nother counters:")
		for _, k := range rest {
			fmt.Printf("  %-18s %12d\n", k, counters[k])
		}
	}
}
