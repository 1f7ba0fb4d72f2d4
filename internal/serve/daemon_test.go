package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/charm"
	"repro/internal/netmodel"
)

func realEnv() Env {
	return Env{Backend: charm.RealBackend, Platform: netmodel.AbeIB}
}

// submitWait submits one spec and blocks until the job is final.
func submitWait(t *testing.T, srv *Server, spec Spec, timeout time.Duration) Job {
	t.Helper()
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("submit %+v: %v", spec, err)
	}
	final, done := srv.Wait(job.ID, timeout)
	if !done {
		t.Fatalf("job %d (%s) not final after %v: state %s", job.ID, spec.Kind, timeout, final.State)
	}
	return final
}

// logicalCounters are the deterministic per-run counters: they count
// application events (puts, messages, reductions), not allocator or GC
// behaviour, so identical jobs must report identical values — and any
// cross-job bleed through a shared counter set would break equality.
var logicalCounters = []string{
	"ckd.puts", "ckd.handles", "ckd.bytes",
	"charm.msgs", "charm.bytes", "charm.reductions",
}

func requireSameLogicalCounters(t *testing.T, jobs []Job) {
	t.Helper()
	base := jobs[0].Local.Counters
	for _, j := range jobs[1:] {
		for _, name := range logicalCounters {
			if j.Local.Counters[name] != base[name] {
				t.Errorf("job %d counter %s = %d, job %d has %d (cross-job bleed?)",
					j.ID, name, j.Local.Counters[name], jobs[0].ID, base[name])
			}
		}
	}
}

// requirePoolBalance polls the Default pool until the delta since
// before the jobs balances: every Get either returned to the pool or
// was deliberately dropped. Puts can trail job completion briefly.
// Pool traffic only exists under the net backend (frame I/O; the real
// backend's hot paths are zero-copy), so only net tests call this.
func requirePoolBalance(t *testing.T, before bufpool.Stats) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := bufpool.Default.Stats()
		gets := now.Gets - before.Gets
		puts := now.Puts - before.Puts
		dropped := now.Dropped - before.Dropped
		if gets == puts+dropped {
			if gets == 0 {
				t.Errorf("pool saw no traffic during the jobs (gets delta 0)")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool unbalanced after jobs: gets +%d, puts +%d, dropped +%d (leak of %d)",
				gets, puts, dropped, gets-puts-dropped)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSequentialJobsOneWarmWorld runs a stream of jobs of every kind
// against one warmed real-backend server: all complete, and repeated
// identical jobs are bit-identical with identical logical counters
// (per-job isolation under reuse).
func TestSequentialJobsOneWarmWorld(t *testing.T) {
	srv, err := New(Options{Env: realEnv(), QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}

	stencilSpec := Spec{Kind: "stencil", Validate: true}
	var stencils []Job
	for i := 0; i < 3; i++ {
		stencils = append(stencils, submitWait(t, srv, stencilSpec, time.Minute))
	}
	others := []Spec{
		{Kind: "fem", Validate: true},
		{Kind: "matmul", Validate: true},
		{Kind: "pingpong"},
	}
	var all []Job
	all = append(all, stencils...)
	for _, spec := range others {
		all = append(all, submitWait(t, srv, spec, time.Minute))
	}
	for _, j := range all {
		if j.State != StateDone {
			t.Fatalf("job %d (%s) state %s: local %+v error %q", j.ID, j.Spec.Kind, j.State, j.Local, j.Error)
		}
	}

	// Reuse isolation: the same spec on the warmed world must reproduce
	// the run exactly, checksum and logical counters alike.
	for _, j := range stencils[1:] {
		if j.Local.Checksum != stencils[0].Local.Checksum {
			t.Errorf("repeated stencil job %d checksum %s, first run %s",
				j.ID, j.Local.Checksum, stencils[0].Local.Checksum)
		}
	}
	requireSameLogicalCounters(t, stencils)
	srv.Close()
}

// TestConcurrentJobsNoCounterBleed runs identical jobs through
// concurrent executors on the shared warmed pools: every job must
// report the same checksum and the same logical counters — a shared
// or leaking per-run counter set would show up as divergence.
func TestConcurrentJobsNoCounterBleed(t *testing.T) {
	srv, err := New(Options{Env: realEnv(), QueueDepth: 32, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	jobs := make([]Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i] = submitWait(t, srv, Spec{Kind: "stencil", Validate: true}, time.Minute)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, j := range jobs {
		if j.State != StateDone {
			t.Fatalf("job %d state %s: local %+v", j.ID, j.State, j.Local)
		}
		if j.Local.Checksum != jobs[0].Local.Checksum {
			t.Errorf("job %d checksum %s, job %d has %s",
				j.ID, j.Local.Checksum, jobs[0].ID, jobs[0].Local.Checksum)
		}
	}
	requireSameLogicalCounters(t, jobs)
	srv.Close()
}

// TestAdmissionControl exercises the typed rejections: bad specs are
// ErrBadSpec, and submissions past the bounded queue are ErrOverloaded
// while the executor is busy.
func TestAdmissionControl(t *testing.T) {
	srv, err := New(Options{Env: realEnv(), QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var bad *ErrBadSpec
	if _, err := srv.Submit(Spec{Kind: "nope"}); !errors.As(err, &bad) {
		t.Fatalf("unknown kind: got %v, want ErrBadSpec", err)
	}
	if _, err := srv.Submit(Spec{Kind: "pingpong", Validate: true}); !errors.As(err, &bad) {
		t.Fatalf("pingpong validate: got %v, want ErrBadSpec", err)
	}
	if _, err := srv.Submit(Spec{Kind: "stencil", Kill: "1@2"}); !errors.As(err, &bad) {
		t.Fatalf("kill on real backend: got %v, want ErrBadSpec", err)
	}

	// Occupy the executor with a long job, then flood the depth-1
	// queue: at most one of the quick submissions can be queued, so at
	// least one must bounce with the typed overload rejection.
	long, err := srv.Submit(Spec{Kind: "pingpong", Iters: 50000})
	if err != nil {
		t.Fatalf("long job: %v", err)
	}
	overloads := 0
	var accepted []Job
	for i := 0; i < 3; i++ {
		job, err := srv.Submit(Spec{Kind: "pingpong", Iters: 1})
		var over *ErrOverloaded
		switch {
		case err == nil:
			accepted = append(accepted, job)
		case errors.As(err, &over):
			overloads++
		default:
			t.Fatalf("submit %d: got %v, want nil or ErrOverloaded", i, err)
		}
	}
	if overloads == 0 {
		t.Error("depth-1 queue accepted every submission while the executor was busy")
	}
	if j, done := srv.Wait(long.ID, time.Minute); !done || j.State != StateDone {
		t.Fatalf("long job: done=%v state %s", done, j.State)
	}
	for _, a := range accepted {
		if j, done := srv.Wait(a.ID, time.Minute); !done || j.State != StateDone {
			t.Fatalf("queued job %d: done=%v state %s", a.ID, done, j.State)
		}
	}
}

// TestHTTPAPI drives the HTTP surface end to end against a live
// real-backend server: submission status codes, long-poll wait,
// listing, health and metrics.
func TestHTTPAPI(t *testing.T) {
	srv, err := New(Options{Env: realEnv(), QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		var out [4096]byte
		for {
			n, err := resp.Body.Read(out[:])
			buf.Write(out[:n])
			if err != nil {
				break
			}
		}
		return resp, []byte(buf.String())
	}

	if resp, _ := post(`{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: HTTP %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{"kind":"stencil","bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{"kind":"unregistered"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: HTTP %d, want 400", resp.StatusCode)
	}
	// 8 PEs pick the 2x2x2 grid, whose shard split cannot cut n=30:
	// the same geometry check matmul.Run applies rejects it at admission.
	if resp, body := post(`{"kind":"matmul","n":30,"pes":8}`); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), "grid [2 2 2]") {
		t.Fatalf("matmul n=30 on 8 PEs: HTTP %d (%s), want 400 naming the grid", resp.StatusCode, body)
	}

	resp, body := post(`{"kind":"stencil","validate":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("good spec: HTTP %d (%s), want 202", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil || job.ID == 0 {
		t.Fatalf("submit response %q: %v", body, err)
	}

	wr, err := http.Get(fmt.Sprintf("%s/jobs/%d/wait?timeout=30s", ts.URL, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	var final Job
	if err := json.NewDecoder(wr.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	wr.Body.Close()
	if wr.StatusCode != http.StatusOK || final.State != StateDone {
		t.Fatalf("wait: HTTP %d state %s, want 200 done", wr.StatusCode, final.State)
	}
	if final.Local == nil || final.Local.Checksum == "" {
		t.Fatalf("validate job finished without a checksum: %+v", final.Local)
	}

	if resp, err := http.Get(ts.URL + "/jobs/9999/wait"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("wait on unknown job: %v HTTP %d, want 404", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	lr, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Job
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if len(list) == 0 {
		t.Fatal("job list is empty after a submission")
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health["ok"] != true || health["backend"] != "real" {
		t.Fatalf("healthz: %+v", health)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf strings.Builder
	var out [65536]byte
	for {
		n, err := mr.Body.Read(out[:])
		mbuf.Write(out[:n])
		if err != nil {
			break
		}
	}
	mr.Body.Close()
	metrics := mbuf.String()
	for _, want := range []string{
		"serve.admitted", "serve.rejected.badspec", "serve.queue.depth",
		"serve.job.stencil.count 1", "serve.job.stencil.latency_ms.le_inf",
		"pool.live.gets",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestLBJobSurfacesCounters runs a skewed stencil job with balancing on
// and checks the lb.* counters ride the existing plumbing end to end:
// into the job's Outcome, and from there into the daemon's cumulative
// /metrics report.
func TestLBJobSurfacesCounters(t *testing.T) {
	srv, err := New(Options{Env: realEnv(), QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	job := submitWait(t, srv, Spec{
		Kind: "stencil", Validate: true,
		Iters: 4, Warmup: 1,
		// The spin must dominate per-dispatch overhead even under -race,
		// or the wall-clock plan may move nothing.
		Skew: 100, LBEvery: 2,
	}, time.Minute)
	if job.State != StateDone {
		t.Fatalf("lb job failed: %+v", job)
	}
	if job.Local.Counters["lb.rounds"] == 0 {
		t.Fatal("no balancing rounds in the job's counters")
	}
	if job.Local.Counters["lb.migrations"] == 0 {
		t.Fatal("skewed lb job migrated nothing")
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf strings.Builder
	var out [65536]byte
	for {
		n, err := mr.Body.Read(out[:])
		mbuf.Write(out[:n])
		if err != nil {
			break
		}
	}
	mr.Body.Close()
	metrics := mbuf.String()
	for _, want := range []string{"lb.rounds", "lb.migrations", "lb.spread_before_permille", "lb.rehomed_recv_handles"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The lb fields are stencil-only; every other kind must refuse them.
	for _, k := range []string{"pingpong", "matmul", "fem"} {
		if _, err := srv.Submit(Spec{Kind: k, LBEvery: 2}); err == nil {
			t.Errorf("%s accepted lb_every", k)
		}
	}
}
