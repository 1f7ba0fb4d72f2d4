package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/serve"
)

// jobSpec is the light job: a 20-trip CkDirect pingpong, so fixed
// per-job cost dominates and the put hot path barely runs.
var jobSpec = []byte(`{"kind":"pingpong","iters":20}`)

// jobsMesh is a warmed ckserve deployment on a world: the server core on
// rank 0 behind its HTTP handler on a loopback listener, followers on
// the other ranks, and one keep-alive client connection.
type jobsMesh struct {
	w         *world
	srv       *serve.Server
	http      *http.Server
	served    chan error
	base      string
	client    *http.Client
	followers sync.WaitGroup
	followErr []error
}

// jobSample is one job as the client saw it and as the server recorded it.
type jobSample struct {
	latency time.Duration // POST to final wait reply
	job     serve.Job
}

func serveEnv(w *world, rank int) serve.Env {
	return serve.Env{Backend: charm.NetBackend, Net: w.nodes[rank], Platform: netmodel.AbeIB}
}

func startJobs(w *world) (*jobsMesh, error) {
	m := &jobsMesh{w: w, followErr: make([]error, len(w.nodes))}
	for rank := 1; rank < len(w.nodes); rank++ {
		rank := rank
		m.followers.Add(1)
		go func() {
			defer m.followers.Done()
			m.followErr[rank] = serve.Follow(serveEnv(w, rank), charm.DefaultRecoveryAttempts)
		}()
	}
	srv, err := serve.New(serve.Options{Env: serveEnv(w, 0)})
	if err != nil {
		m.stopFollowers()
		return nil, fmt.Errorf("start server: %w", err)
	}
	m.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		m.stopFollowers()
		return nil, fmt.Errorf("listen: %w", err)
	}
	m.base = "http://" + ln.Addr().String()
	m.http = &http.Server{Handler: srv.Handler()}
	m.served = make(chan error, 1)
	go func() { m.served <- m.http.Serve(ln) }()
	m.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return m, nil
}

// stopFollowers announces shutdown and waits for every follower loop.
func (m *jobsMesh) stopFollowers() {
	serve.AnnounceShutdown(serveEnv(m.w, 0))
	m.followers.Wait()
}

// stop tears the deployment down and leaves the world's mesh idle and
// reusable: the HTTP server first, then the executor, then the
// followers.
func (m *jobsMesh) stop() error {
	m.client.CloseIdleConnections()
	err := m.http.Close()
	if serr := <-m.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	m.srv.Close()
	m.stopFollowers()
	for rank, ferr := range m.followErr {
		if ferr != nil {
			err = errors.Join(err, fmt.Errorf("follower %d: %w", rank, ferr))
		}
	}
	return err
}

// job submits one job over HTTP and long-polls it to completion.
func (m *jobsMesh) job() (jobSample, error) {
	t0 := time.Now()
	var j serve.Job
	if err := m.call(http.MethodPost, "/jobs", jobSpec, http.StatusAccepted, &j); err != nil {
		return jobSample{}, err
	}
	if err := m.call(http.MethodGet, fmt.Sprintf("/jobs/%d/wait?timeout=60s", j.ID), nil, http.StatusOK, &j); err != nil {
		return jobSample{}, err
	}
	return jobSample{latency: time.Since(t0), job: j}, nil
}

func (m *jobsMesh) call(method, path string, body []byte, want int, into *serve.Job) error {
	req, err := http.NewRequest(method, m.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// check reports why a finished job does not count as done, or "".
func (s jobSample) check(world int) string {
	j := s.job
	switch {
	case j.State != serve.StateDone:
		return fmt.Sprintf("job %d ended %s: %s", j.ID, j.State, j.Error)
	case j.Local == nil || !j.Local.OK:
		return fmt.Sprintf("job %d: rank 0 outcome not ok", j.ID)
	case len(j.Workers) != world-1:
		return fmt.Sprintf("job %d: %d worker reports, want %d", j.ID, len(j.Workers), world-1)
	}
	for _, o := range j.Workers {
		if !o.OK {
			return fmt.Sprintf("job %d: rank %d outcome not ok: %v", j.ID, o.Rank, o.Errors)
		}
	}
	return ""
}

// runJobs runs jobs back to back, closed loop with one in flight, until
// n have run or, when n is 0, until d has elapsed. Failed jobs are
// counted and left out of the samples.
func (m *jobsMesh) runJobs(r *run, n int, d time.Duration) ([]jobSample, time.Duration) {
	var out []jobSample
	t0 := time.Now()
	for i := 0; n == 0 || i < n; i++ {
		if n == 0 && time.Since(t0) >= d {
			break
		}
		s, err := m.job()
		why := ""
		if err != nil {
			why = err.Error()
		} else {
			why = s.check(len(m.w.nodes))
		}
		if why != "" {
			r.count(1, 1, []string{why})
			continue
		}
		r.count(1, 0, nil)
		out = append(out, s)
	}
	return out, time.Since(t0)
}
