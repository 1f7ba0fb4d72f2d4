package serve

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/apps/fem"
	"repro/internal/apps/matmul"
	"repro/internal/apps/pingpong"
	"repro/internal/apps/stencil"
	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/launch"
	"repro/internal/netmodel"
	"repro/internal/netrt"
)

// Env is the warmed execution environment jobs run against: the backend
// the daemon booted, its netrt node (nil under real), and the modelled
// platform used for CPU-cost charging.
type Env struct {
	Backend  charm.Backend
	Net      *netrt.Node
	Platform *netmodel.Platform
	// KillVia overrides how a chaos-kill victim dies; nil uses the
	// node itself (SIGKILL of the self-spawned child process).
	// In-process recovery tests substitute a closure that hard-kills
	// the victim's Node.
	KillVia chaos.Killer
}

// World returns the rank count (1 under the real backend).
func (e Env) World() int {
	if e.Net == nil {
		return 1
	}
	return e.Net.World()
}

// kind is one registered workload: parameter normalization (applied at
// admission on rank 0, so the broadcast spec is canonical and every
// rank receives identical, pre-validated parameters) and the run
// function. run returns the wire-ready Outcome plus the raw typed
// errors — the recovery loop needs the types (netrt.Recoverable) that
// the Outcome's strings have shed.
type kind struct {
	normalize func(env Env, s *Spec) error
	run       func(env Env, s Spec) (Outcome, []error)
}

// Parameter ceilings. The daemon is a long-lived service; a single
// oversized request must not be able to wedge or exhaust it.
const (
	maxIters  = 100000
	maxSize   = 16 << 20
	maxCells  = 1 << 22
	maxEdge   = 2048
	maxPEs    = 1024
	maxKillAt = 10000
)

var kinds = map[string]kind{
	"pingpong": {normalize: normalizePingpong, run: runPingpong},
	"stencil":  {normalize: normalizeStencil, run: runStencil},
	"matmul":   {normalize: normalizeMatmul, run: runMatmul},
	"fem":      {normalize: normalizeFem, run: runFem},
}

// Kinds lists the registered job kinds, sorted.
func Kinds() []string {
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Normalize validates a spec against the registry and fills defaults in
// place, producing the canonical form every rank executes. It is the
// admission-control gate: errors here are client errors (HTTP 400),
// never daemon failures.
func Normalize(env Env, s *Spec) error {
	k, ok := kinds[s.Kind]
	if !ok {
		return fmt.Errorf("unknown kind %q (registered: %v)", s.Kind, Kinds())
	}
	switch s.Mode {
	case "":
		s.Mode = "ckd"
	case "msg", "ckd":
	default:
		return fmt.Errorf("unknown mode %q (msg | ckd)", s.Mode)
	}
	if s.Iters < 0 || s.Iters > maxIters || s.Warmup < 0 || s.Warmup > maxIters {
		return fmt.Errorf("iters/warmup out of range [0, %d]", maxIters)
	}
	if s.PEs < 0 || s.PEs > maxPEs {
		return fmt.Errorf("pes out of range [0, %d]", maxPEs)
	}
	kill, err := chaos.ParseKill(s.Kill)
	if err == nil {
		err = launch.CheckKill(kill, env.Backend, env.World())
	}
	if err != nil {
		return err
	}
	if kill != nil && kill.Step > maxKillAt {
		return fmt.Errorf("kill step %d out of range [1, %d]", kill.Step, maxKillAt)
	}
	return k.normalize(env, s)
}

// Execute runs a normalized spec against the warmed environment. It
// never panics: a job's failure (including a malformed-parameter panic
// deep in an app) lands in the Outcome, not in the daemon. Under net it
// is the single-attempt body; the caller owns the recovery loop and
// uses the raw errors to decide recoverability.
func Execute(env Env, s Spec) (out Outcome, raw []error) {
	start := time.Now()
	rank := 0
	if env.Net != nil {
		rank = env.Net.Rank()
	}
	out = Outcome{Rank: rank}
	if s.chaosKill == nil && s.Kill != "" {
		// One-shot callers skip PrepareKill; parsing here only affects
		// this attempt's value copy.
		s.PrepareKill(env)
	}
	defer func() {
		out.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		if r := recover(); r != nil {
			out.OK = false
			err := fmt.Errorf("job panic: %v", r)
			out.Errors = append(out.Errors, err.Error())
			raw = append(raw, err)
		}
	}()
	k, ok := kinds[s.Kind]
	if !ok {
		err := fmt.Errorf("unknown kind %q", s.Kind)
		out.Errors = []string{err.Error()}
		return out, []error{err}
	}
	out, raw = k.run(env, s)
	out.Rank = rank
	out.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return out, raw
}

func errStrings(errs []error) []string {
	if len(errs) == 0 {
		return nil
	}
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	return out
}

// PrepareKill pins the spec's chaos trigger for the whole job. The
// owner of a recovery loop must call it before its first Execute so
// every attempt shares one Kill object — Fire's one-shot guard is per
// object, and a fresh Kill per attempt would re-kill the respawned
// worker on every retry until the recovery budget ran out.
func (s *Spec) PrepareKill(env Env) {
	// Normalized specs carry a valid kill or none, so the error is nil.
	s.chaosKill, _ = chaos.ParseKill(s.Kill)
	if s.chaosKill != nil {
		s.chaosKill.Via = env.KillVia
	}
}

// --- pingpong ---

func normalizePingpong(env Env, s *Spec) error {
	if s.Size == 0 {
		s.Size = 4096
	}
	if s.Size < 0 || s.Size > maxSize {
		return fmt.Errorf("size out of range [1, %d]", maxSize)
	}
	if s.Iters == 0 {
		s.Iters = 100
	}
	if s.Validate {
		return fmt.Errorf("pingpong has no validate oracle (its check is completing the round trips)")
	}
	if s.NX != 0 || s.NY != 0 || s.NZ != 0 || s.N != 0 || s.Virtualization != 0 || s.PEs != 0 || s.LBEvery != 0 || s.LBStrategy != "" || s.Skew != 0 {
		return fmt.Errorf("pingpong takes size/iters/mode only")
	}
	return nil
}

func runPingpong(env Env, s Spec) (Outcome, []error) {
	mode := pingpong.CkDirect
	if s.Mode == "msg" {
		mode = pingpong.CharmMsg
	}
	res := pingpong.Run(pingpong.Config{
		Platform: env.Platform,
		Mode:     mode,
		Size:     s.Size,
		Iters:    s.Iters,
		Backend:  env.Backend,
		Net:      env.Net,
		Kill:     s.chaosKill,
	})
	return Outcome{
		OK:       len(res.Errors) == 0,
		Errors:   errStrings(res.Errors),
		Metric:   res.RTTMicros(),
		Counters: res.Counters,
	}, res.Errors
}

// --- stencil ---

func normalizeStencil(env Env, s *Spec) error {
	if s.PEs == 0 {
		s.PEs = env.World() * 2
	}
	if s.NX == 0 && s.NY == 0 && s.NZ == 0 {
		s.NX, s.NY, s.NZ = 16, 16, 8
	}
	if s.NX <= 0 || s.NY <= 0 || s.NZ <= 0 || s.NX*s.NY*s.NZ > maxCells {
		return fmt.Errorf("stencil domain %dx%dx%d out of range (max %d cells)", s.NX, s.NY, s.NZ, maxCells)
	}
	if s.Virtualization == 0 {
		s.Virtualization = 2
	}
	if s.Virtualization < 0 || s.Virtualization > 64 {
		return fmt.Errorf("vr out of range [1, 64]")
	}
	if s.Iters == 0 {
		s.Iters = 3
	}
	if s.Size != 0 || s.N != 0 {
		return fmt.Errorf("stencil takes pes/nx/ny/nz/vr/iters/warmup/validate/mode/lb_*/skew only")
	}
	if s.LBEvery > maxIters {
		return fmt.Errorf("lb_every out of range [0, %d]", maxIters)
	}
	if s.LBEvery > 0 && s.LBStrategy == "" {
		s.LBStrategy = "greedy"
	}
	if err := launch.CheckLB(s.LBEvery, s.LBStrategy); err != nil {
		return err
	}
	if s.Skew < 0 || s.Skew > 1e6 {
		return fmt.Errorf("skew out of range [0, 1e6]")
	}
	return nil
}

func runStencil(env Env, s Spec) (Outcome, []error) {
	mode := stencil.Ckd
	if s.Mode == "msg" {
		mode = stencil.Msg
	}
	res := stencil.Run(stencil.Config{
		Platform: env.Platform,
		Mode:     mode,
		PEs:      s.PEs, Virtualization: s.Virtualization,
		NX: s.NX, NY: s.NY, NZ: s.NZ,
		Iters: s.Iters, Warmup: s.Warmup,
		Validate: s.Validate,
		Backend:  env.Backend,
		Net:      env.Net,
		Kill:     s.chaosKill,
		LBEvery:  s.LBEvery, LBStrategy: s.LBStrategy,
		Skew: s.Skew,
	})
	out := Outcome{
		OK:       len(res.Errors) == 0,
		Errors:   errStrings(res.Errors),
		Metric:   res.IterTime.Micros(),
		Counters: res.Counters,
	}
	if s.Validate && out.OK {
		out.Checksum = checksumF64(res.Field)
	}
	return out, res.Errors
}

// --- matmul ---

func normalizeMatmul(env Env, s *Spec) error {
	if s.PEs == 0 {
		s.PEs = 4
	}
	if s.N == 0 {
		s.N = 32
	}
	if s.N < 0 || s.N > maxEdge {
		return fmt.Errorf("n out of range [1, %d]", maxEdge)
	}
	if s.Iters == 0 {
		s.Iters = 2
	}
	if err := matmul.CheckGeometry(s.PEs, s.N); err != nil {
		return err
	}
	if s.Size != 0 || s.NX != 0 || s.NY != 0 || s.NZ != 0 || s.Virtualization != 0 || s.LBEvery != 0 || s.LBStrategy != "" || s.Skew != 0 {
		return fmt.Errorf("matmul takes pes/n/iters/warmup/validate/mode only")
	}
	return nil
}

func runMatmul(env Env, s Spec) (Outcome, []error) {
	mode := matmul.Ckd
	if s.Mode == "msg" {
		mode = matmul.Msg
	}
	res := matmul.Run(matmul.Config{
		Platform: env.Platform,
		Mode:     mode,
		PEs:      s.PEs,
		N:        s.N,
		Iters:    s.Iters, Warmup: s.Warmup,
		Validate: s.Validate,
		Backend:  env.Backend,
		Net:      env.Net,
		Kill:     s.chaosKill,
	})
	out := Outcome{
		OK:       len(res.Errors) == 0,
		Errors:   errStrings(res.Errors),
		Metric:   res.IterTime.Micros(),
		Counters: res.Counters,
	}
	if s.Validate && out.OK {
		out.Checksum = checksumF64(res.C)
	}
	return out, res.Errors
}

// --- fem ---

func normalizeFem(env Env, s *Spec) error {
	if s.PEs == 0 {
		s.PEs = env.World() * 2
	}
	if s.NX == 0 && s.NY == 0 {
		s.NX, s.NY = 16, 16
	}
	if s.NX <= 0 || s.NY <= 0 || s.NZ != 0 || s.NX*s.NY > maxCells {
		return fmt.Errorf("fem quad grid %dx%d out of range (2-D; max %d quads)", s.NX, s.NY, maxCells)
	}
	if s.Virtualization == 0 {
		s.Virtualization = 2
	}
	if s.Virtualization < 0 || s.Virtualization > 64 {
		return fmt.Errorf("vr out of range [1, 64]")
	}
	if s.Iters == 0 {
		s.Iters = 3
	}
	if s.Size != 0 || s.N != 0 || s.LBEvery != 0 || s.LBStrategy != "" || s.Skew != 0 {
		return fmt.Errorf("fem takes pes/nx/ny/vr/iters/warmup/validate/mode only")
	}
	return nil
}

func runFem(env Env, s Spec) (Outcome, []error) {
	mode := fem.Ckd
	if s.Mode == "msg" {
		mode = fem.Msg
	}
	res := fem.Run(fem.Config{
		Platform: env.Platform,
		Mode:     mode,
		PEs:      s.PEs, Virtualization: s.Virtualization,
		NX: s.NX, NY: s.NY,
		Iters: s.Iters, Warmup: s.Warmup,
		Validate: s.Validate,
		Backend:  env.Backend,
		Net:      env.Net,
		Kill:     s.chaosKill,
	})
	out := Outcome{
		OK:       len(res.Errors) == 0,
		Errors:   errStrings(res.Errors),
		Metric:   res.IterTime.Micros(),
		Counters: res.Counters,
	}
	if s.Validate && out.OK {
		if !res.SharedConsistent {
			out.OK = false
			out.Errors = append(out.Errors, "fem: hosted parts disagree on shared vertices")
			return out, []error{fmt.Errorf("fem: hosted parts disagree on shared vertices")}
		}
		out.Checksum = checksumF64(res.Field)
	}
	return out, res.Errors
}
