package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// client wraps the daemon's HTTP API for the submit and bench modes.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, timeout time.Duration) *client {
	return &client{base: "http://" + addr, hc: &http.Client{Timeout: timeout}}
}

// submit posts one spec. It retries 429 rejections with a small
// backoff — overload is the daemon shedding load, not a failure.
func (c *client) submit(spec []byte, retries int) (serve.Job, error) {
	var job serve.Job
	for attempt := 0; ; attempt++ {
		resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			return job, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			return job, json.Unmarshal(body, &job)
		case http.StatusTooManyRequests:
			if attempt >= retries {
				return job, fmt.Errorf("still overloaded after %d retries: %s", retries, body)
			}
			time.Sleep(time.Duration(20*(attempt+1)) * time.Millisecond)
		default:
			return job, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, body)
		}
	}
}

// wait long-polls one job to completion.
func (c *client) wait(id int64, timeout time.Duration) (serve.Job, error) {
	deadline := time.Now().Add(timeout)
	var job serve.Job
	for {
		left := time.Until(deadline)
		if left <= 0 {
			return job, fmt.Errorf("job %d did not finish within %v", id, timeout)
		}
		poll := 30 * time.Second
		if left < poll {
			poll = left
		}
		resp, err := c.hc.Get(fmt.Sprintf("%s/jobs/%d/wait?timeout=%s", c.base, id, poll))
		if err != nil {
			return job, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return job, json.Unmarshal(body, &job)
		case http.StatusAccepted:
			continue // still running; poll again
		default:
			return job, fmt.Errorf("wait: HTTP %d: %s", resp.StatusCode, body)
		}
	}
}

// submitMain is `ckserve submit`: one job, wait, print the result.
func submitMain(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8097", "daemon address")
	spec := fs.String("spec", `{"kind":"pingpong"}`, "job spec JSON")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall wait budget")
	noWait := fs.Bool("nowait", false, "submit only; do not wait for completion")
	fs.Parse(args)

	c := newClient(*addr, time.Minute)
	job, err := c.submit([]byte(*spec), 10)
	if err != nil {
		binary.Fatal(err)
	}
	if !*noWait {
		if job, err = c.wait(job.ID, *timeout); err != nil {
			binary.Fatal(err)
		}
	}
	out, _ := json.MarshalIndent(job, "", "  ")
	fmt.Println(string(out))
	if !*noWait && job.State != serve.StateDone {
		os.Exit(1)
	}
}

// benchMain is `ckserve bench`: hammer the daemon with concurrent
// submissions and report jobs/sec.
func benchMain(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8097", "daemon address")
	spec := fs.String("spec", `{"kind":"pingpong","iters":50}`, "job spec JSON")
	n := fs.Int("n", 50, "total jobs")
	conc := fs.Int("c", 4, "concurrent submitters")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall budget")
	jsonOut := fs.Bool("json", false, "print a JSON report instead of text")
	fs.Parse(args)

	c := newClient(*addr, time.Minute)
	var failed int64
	latencies := make([]float64, *n)
	ids := make(chan int, *n)
	for i := 0; i < *n; i++ {
		ids <- i
	}
	close(ids)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ids {
				jobStart := time.Now()
				job, err := c.submit([]byte(*spec), 50)
				if err == nil {
					job, err = c.wait(job.ID, *timeout)
				}
				latencies[i] = float64(time.Since(jobStart)) / float64(time.Millisecond)
				if err != nil || job.State != serve.StateDone {
					atomic.AddInt64(&failed, 1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Float64s(latencies)
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	report := map[string]any{
		"jobs":        *n,
		"concurrency": *conc,
		"failed":      failed,
		"elapsed_ms":  float64(elapsed) / float64(time.Millisecond),
		"jobs_per_s":  float64(*n) / elapsed.Seconds(),
		"lat_ms_p50":  pct(0.50),
		"lat_ms_p90":  pct(0.90),
		"lat_ms_max":  latencies[len(latencies)-1],
	}
	if *jsonOut {
		out, _ := json.MarshalIndent(report, "", "  ")
		fmt.Println(string(out))
	} else {
		fmt.Printf("ckserve bench: %d jobs x%d concurrent in %v = %.1f jobs/s (p50 %.1fms, p90 %.1fms, max %.1fms, %d failed)\n",
			*n, *conc, elapsed.Round(time.Millisecond), report["jobs_per_s"],
			report["lat_ms_p50"], report["lat_ms_p90"], report["lat_ms_max"], failed)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
