// Package matmul implements the paper's second application study (§4.2):
// parallel matrix multiplication with a 3-D decomposition for 2-D
// matrices (Agarwal et al.), comparing Charm++ messages with CkDirect.
//
// A chare grid of gx × gy × gz elements computes C = A·B for N×N
// matrices. Chare (x,y,z) is responsible for the partial product
// A[x,z]·B[z,y]. Each iteration:
//
//  1. Replication — every chare sends its shard of A to the chares
//     sharing its (x,z) coordinates and its shard of B to the chares
//     sharing its (z,y) coordinates (the paper's "replicate A along one
//     dimension, B along another").
//  2. Compute — DGEMM on the assembled blocks (charged at the platform's
//     FlopNS; validated with a real linalg.Gemm at small scales).
//  3. C exchange — each chare scatters its partial C in strips to the
//     chares of its (x,y) line, which accumulate their strip of C.
//
// With messages, every arriving shard must be copied into its place in
// the local assembly of A and B — CkDirect instead lands the shard
// directly in the assembly buffer ("a row in the middle of a matrix"),
// which eliminates both the copy and the scheduler dispatch. That is the
// asymmetry behind Figure 3.
package matmul

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/ckdirect"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mode selects the communication variant.
type Mode int

// Matmul variants.
const (
	Msg Mode = iota
	Ckd
)

// String names the mode.
func (m Mode) String() string {
	if m == Msg {
		return "msg"
	}
	return "ckd"
}

// Config parameterizes a run.
type Config struct {
	Platform *netmodel.Platform
	Mode     Mode
	PEs      int
	// N is the matrix edge (paper: 2048).
	N int
	// Iters are measured iterations (each is a full multiply); Warmup
	// iterations run first.
	Iters, Warmup int
	// Validate runs real matrices through the pipeline and checks the
	// product (small N only).
	Validate bool
	// Backend selects simulated virtual time (default), real
	// goroutine-per-PE execution, or distributed multi-process execution,
	// both with wall-clock timing. The real and net backends always
	// allocate real payload buffers.
	Backend charm.Backend
	// Net is the started netrt node (required under the net backend).
	Net *netrt.Node
	// Timeline, when set, records Projections-style execution spans.
	Timeline *trace.Timeline
	// Chaos, when set, runs the configuration under adversity (CPU noise,
	// network faults, recovery machinery). Contract violations then land
	// in Result.Errors instead of panicking.
	Chaos *chaos.Scenario
	// Ckpt enables coordinated checkpointing: every Ckpt.Every barriers
	// the world cuts a consistent snapshot, and a fresh Run resumes from
	// the newest committed one.
	Ckpt *charm.CkptOptions
	// Kill, when set, fires the kill -9 chaos tier from the root
	// reduction client after Kill.Step barriers.
	Kill *chaos.Kill
}

// Result reports timing and validation data.
type Result struct {
	Config
	Grid        [3]int
	IterTime    sim.Time
	MaxError    float64   // |C - reference| in validate mode
	C           []float64 // assembled product, row-major (validate mode)
	TotalEvents uint64
	// Errors holds runtime contract violations and unrecovered faults
	// (chaos runs only; fault-free runs panic instead).
	Errors []error
	// Counters is the final trace-counter snapshot.
	Counters map[string]int64
}

// Improvement runs both variants and returns the percentage improvement
// of CKD over MSG in iteration time (Figure 3's gap).
func Improvement(cfg Config) (msg, ckd Result, pct float64) {
	cfg.Mode = Msg
	msg = Run(cfg)
	cfg.Mode = Ckd
	ckd = Run(cfg)
	pct = (1 - float64(ckd.IterTime)/float64(msg.IterTime)) * 100
	return
}

// chooseGrid factors pes into a near-cubic (gx, gy, gz) by repeated
// doubling, mirroring how the 3-D algorithm is deployed on power-of-two
// partitions.
func chooseGrid(pes int) [3]int {
	g := [3]int{1, 1, 1}
	for i := 0; g[0]*g[1]*g[2] < pes; i++ {
		g[i%3] *= 2
	}
	return g
}

// CheckGeometry reports whether an n×n product decomposes over pes PEs:
// n must divide evenly by the near-cubic chare grid chosen for pes and
// by the shard subdivisions of each block. Run panics on a geometry it
// rejects; launchers and the job daemon call it first so a bad request
// is a configuration error, not a crashed run.
func CheckGeometry(pes, n int) error {
	if pes <= 0 || n <= 0 {
		return fmt.Errorf("PEs and N must be positive (got pes=%d, n=%d)", pes, n)
	}
	grid := chooseGrid(pes)
	for d := 0; d < 3; d++ {
		if n%grid[d] != 0 {
			return fmt.Errorf("n=%d not divisible by the %d-PE grid %v (try a power of two)", n, pes, grid)
		}
	}
	if (n/grid[0])%grid[1] != 0 || (n/grid[2])%grid[0] != 0 || (n/grid[0])%grid[2] != 0 {
		return fmt.Errorf("n=%d incompatible with the %d-PE grid %v shard split (try a power of two)", n, pes, grid)
	}
	return nil
}

// Run executes one matmul configuration.
func Run(cfg Config) Result {
	if cfg.N <= 0 {
		cfg.N = 2048
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 2
	}
	if err := CheckGeometry(cfg.PEs, cfg.N); err != nil {
		panic("matmul: " + err.Error())
	}
	grid := chooseGrid(cfg.PEs)

	if cfg.Backend != charm.SimBackend {
		if cfg.Chaos != nil {
			panic("matmul: chaos scenarios are sim-only")
		}
		if cfg.Timeline != nil {
			panic("matmul: timeline recording is sim-only")
		}
	}
	if cfg.Backend == charm.NetBackend && cfg.Net == nil {
		panic("matmul: net backend needs Config.Net (a started netrt node)")
	}
	eng := sim.NewEngine()
	mach, net := cfg.Platform.BuildMachine(eng, cfg.PEs)
	rts := charm.NewRTS(eng, mach, net, cfg.Platform, trace.NewRecorder(),
		charm.Options{
			Checked:         true,
			VirtualPayloads: !cfg.Validate && cfg.Backend == charm.SimBackend,
			Backend:         cfg.Backend,
			Net:             cfg.Net,
		})

	if cfg.Timeline != nil {
		rts.SetTimeline(cfg.Timeline)
	}
	a := &app{cfg: cfg, grid: grid, rts: rts}
	if cfg.Mode == Ckd {
		a.mgr = ckdirect.NewManager(rts)
	}
	cfg.Chaos.Apply(rts, a.mgr)
	a.build()
	if cfg.Ckpt.Enabled() {
		a.ck = charm.NewCheckpointer(rts, cfg.Ckpt)
		a.ck.Attach(a.arr)
		if a.mgr != nil {
			a.ck.SetRegionHooks(a.mgr)
		}
		// Roll back to the newest committed cut (a fresh run finds none
		// and starts from step zero). Restore happens after build: the
		// SPMD setup is identical to the checkpointed run's, so element
		// state and registered-buffer bytes overlay in place.
		step, err := a.ck.Restore()
		if err != nil {
			return Result{
				Config: cfg, Grid: grid,
				Errors:   []error{fmt.Errorf("matmul: restore checkpoint: %w", err)},
				Counters: rts.Recorder().Counters(),
			}
		}
		a.barriers = make([]sim.Time, step)
	}
	a.start()
	rts.Run()
	errs := rts.Errors()
	if len(errs) > 0 && cfg.Chaos == nil && cfg.Backend != charm.NetBackend {
		// Under net, failures (including a dead peer's NetError) return
		// through Result.Errors — the launcher decides, not a panic.
		panic(fmt.Sprintf("matmul: runtime contract violation: %v", errs[0]))
	}
	if cfg.Backend == charm.NetBackend && cfg.Validate && len(errs) == 0 {
		// Each process can check exactly the chares it hosts; the serial
		// reference is the shared oracle.
		errs = append(errs, a.verifyLocal()...)
	}
	if cfg.Backend == charm.NetBackend && !rts.HostsPE(0) {
		// A worker process: barriers and timing live on PE 0's rank. Local
		// verification already ran; report what this rank knows — its own
		// strips of C (the rest NaN).
		res := Result{
			Config: cfg, Grid: grid,
			Errors: errs, Counters: rts.Recorder().Counters(),
			TotalEvents: rts.Executed(),
		}
		if cfg.Validate && len(errs) == 0 {
			res.C = a.gatherC()
		}
		return res
	}
	want := cfg.Warmup + cfg.Iters + 1
	if len(a.barriers) < want {
		if len(errs) == 0 {
			if cfg.Chaos == nil {
				panic(fmt.Sprintf("matmul: only %d/%d iterations completed", len(a.barriers), want))
			}
			errs = []error{chaos.StallError(rts.Recorder().Counters(),
				fmt.Sprintf("%d/%d iterations", len(a.barriers), want))}
		}
		return Result{
			Config: cfg, Grid: grid,
			Errors: errs, Counters: rts.Recorder().Counters(),
			TotalEvents: rts.Executed(),
		}
	}
	measured := a.barriers[cfg.Warmup+cfg.Iters] - a.barriers[cfg.Warmup]
	res := Result{
		Config:      cfg,
		Grid:        grid,
		IterTime:    measured / sim.Time(cfg.Iters),
		TotalEvents: rts.Executed(),
		Errors:      errs,
		Counters:    rts.Recorder().Counters(),
	}
	if cfg.Validate {
		if cfg.Backend != charm.NetBackend {
			// Under net no single process holds the whole product;
			// verifyLocal covered the hosted strips above.
			res.MaxError = a.verify()
		}
		res.C = a.gatherC()
	}
	return res
}
