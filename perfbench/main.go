// Command perfbench is the repository's benchmark. It runs one named
// workload against in-process net-backend worlds for a fixed time,
// checks every operation's output, and prints its metrics by name with
// units as the last line of standard output:
//
//	perfbench -workload pingpong -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// runs the same workload again with spans around its calls into each
// layer and prints the per-layer metrics instead. README.md maps each
// workload to the layers it stresses and the metrics they move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/netrt"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation's settings and accumulating outcome.
type run struct {
	seed   uint64
	timed  time.Duration
	traced bool
	sz     sizes

	e2e       e2eData
	layer     layerData
	metrics   map[string]metric
	spans     []span
	trips     uint64 // pingpong trips so far, which number the trip spans
	attempted int64
	failed    int64
	failures  []string
	err       error // the first metric that could not be computed
}

// e2eData pools the end-to-end samples of every round of a run, so each
// metric mixes all the run's worlds.
type e2eData struct {
	setup      []float64     // s, one per round
	rates      []float64     // stencil iterations per second, one per Run
	ops        float64       // timed trips or jobs ...
	elapsed    time.Duration // ... and their wall time
	ckdRTT     []float64     // us
	msgRTT     []float64     // us
	jobLatency []float64     // ms
}

func newRun(seed uint64, timed time.Duration, traced bool, sz sizes) *run {
	return &run{seed: seed, timed: timed, traced: traced, sz: sz, metrics: map[string]metric{}}
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setQuantile sets a percentile metric, or records why it could not be
// computed; a run with a metric missing fails as a whole.
func (r *run) setQuantile(name, unit string, samples []float64, q float64) {
	v, err := quantile(samples, q)
	if err != nil {
		if r.err == nil {
			r.err = fmt.Errorf("%s: %w", name, err)
		}
		return
	}
	r.set(name, unit, v)
}

// reportE2E sets the end-to-end metrics from the pooled samples.
func (r *run) reportE2E() {
	e := &r.e2e
	r.set("setup_s", "s", median(e.setup))
	if len(e.rates) > 0 {
		r.set("ops_per_s", "1/s", median(e.rates))
	} else {
		r.set("ops_per_s", "1/s", ratio(e.ops, e.elapsed.Seconds()))
	}
	r.setQuantile("ckd_rtt_p50_us", "us", e.ckdRTT, 0.5)
	r.setQuantile("ckd_rtt_p90_us", "us", e.ckdRTT, 0.9)
	r.setQuantile("msg_rtt_p50_us", "us", e.msgRTT, 0.5)
	r.setQuantile("msg_rtt_p90_us", "us", e.msgRTT, 0.9)
	r.setQuantile("job_p50_ms", "ms", e.jobLatency, 0.5)
	r.setQuantile("job_p90_ms", "ms", e.jobLatency, 0.9)
}

// count adds ops to the attempted and failed totals.
func (r *run) count(attempted, failed int64, failures []string) {
	r.attempted += attempted
	r.failed += failed
	for _, f := range failures {
		if len(r.failures) < 20 {
			r.failures = append(r.failures, f)
		}
	}
}

// execute drives the workload and fills in its metrics: end-to-end, or,
// traced, per-layer.
func (r *run) execute(wl workload) error {
	if err := wl.drive(r); err != nil {
		return err
	}
	if !r.traced {
		r.reportE2E()
	}
	if r.err != nil {
		return r.err
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload: pingpong, halo, halo_tcp or jobs")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// A hung world must not hang the caller: give up inside the three
	// minutes a run may take.
	const limit = 170 * time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", *name, limit)
		os.Exit(3)
	})

	shape, _ := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "trace": *traceFlag,
		"host": hostShape(), "ranks": worldRanks(),
		"payload_bytes": payloadBytes, "eager_max": netrt.DefaultEagerMax,
	})
	fmt.Println(string(shape))

	r := newRun(*seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, fullSizes)
	if err := r.execute(wl); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: failed op: %s\n", f)
	}
	if r.traced {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := writeSpans(path, r.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("{\"spans\":%d,\"file\":%q}\n", len(r.spans), path)
	}
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
