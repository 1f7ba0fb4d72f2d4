package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tinySizes is the smallest run that still has enough samples for every
// percentile the benchmark reports: 100 jobs and 100 trips of each kind
// per p90, 1000 one-way samples per p99.
var tinySizes = sizes{
	rounds:         2,
	ppWarmup:       50,
	ppBlock:        100,
	probePairs:     6,
	setupJobs:      2,
	probeJobs:      100,
	haloSetupIters: 5,
	haloIters:      20,
	genRuns:        3,
	genTrips:       5,
	wakes:          200,
}

// contract is the part of BENCHMARK.json the output must match.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWorkloadsTiny runs every workload small, untraced and traced, and
// checks that exactly the metrics BENCHMARK.json names print, with their
// units, and that no op fails.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("boots in-process worlds")
	}
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range c.EndToEnd {
				if !traced {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range c.PerLayer {
				if traced {
					want[m.Name] = m.Unit
				}
			}
			r := newRun(1, 4*time.Second, traced, tinySizes)
			if err := r.execute(wl); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", w.Name, traced, r.failed, r.attempted, r.failures)
			}
			for name, unit := range want {
				m, ok := r.metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s in %s, want %s", w.Name, traced, name, m.Unit, unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: metric %s is %v", w.Name, name, m.Value)
				}
			}
			for name := range r.metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", w.Name, traced, name)
				}
			}
		}
	}
}

// TestQuantileNeedsTenBeyond checks the percentile helper refuses a
// percentile with fewer than ten samples beyond it.
func TestQuantileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{0, 0.5, false, 0},
	} {
		got, err := quantile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("quantile(%d samples, %v): err %v, want ok=%v", tc.n, tc.q, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("quantile(%d samples, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

// TestSelfTimes checks a root's self time excludes the union of its
// children, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{op: 1, name: spanCkdTrip, start: 0, end: 100 * us},
		{op: 1, name: spanPut, parent: spanCkdTrip, start: 10 * us, end: 30 * us},
		{op: 1, name: spanTransit, parent: spanCkdTrip, start: 20 * us, end: 60 * us},
		{op: 2, name: spanCkdTrip, start: 0, end: 50 * us},
	}
	got := selfTimes(spans)["bench.ckd_trip"]
	// op 1: 100 - 50 covered = 50 bench; op 2: 50 bench. Means over 2 ops.
	want := map[string]float64{"bench": 50, "ckdirect": 10, "netrt": 20}
	for layer, v := range want {
		if got[layer] != v {
			t.Errorf("self time of %s = %v, want %v (all: %v)", layer, got[layer], v, got)
		}
	}
}
