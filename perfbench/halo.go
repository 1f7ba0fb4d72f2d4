package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/apps/stencil"
	"repro/internal/charm"
	"repro/internal/netmodel"
	"repro/internal/netrt"
)

// The halo stencil: 32x32x16 cells, four chares per PE, CkDirect faces,
// validated against the serial reference on every run.
const (
	haloNX, haloNY, haloNZ = 32, 32, 16
	haloVR                 = 4
	haloWarmup             = 2 // untimed iterations at the start of each Run
)

// haloRun is one stencil.Run across a world: rank 0's timing and every
// rank's errors.
type haloRun struct {
	iterTime time.Duration // the app's barrier-to-barrier mean
	wall     time.Duration // rank 0's Run call
	iters    int           // every iteration computed, warm-up included
	timed    int           // the measured ones
	events   uint64        // scheduler tasks on every rank
	errs     []error
}

// runStencil runs one validated stencil on every rank of the world, or
// on one real-backend RTS when nodes is nil.
func runStencil(nodes []*netrt.Node, iters int) haloRun {
	cfg := stencil.Config{
		Platform: netmodel.AbeIB,
		Mode:     stencil.Ckd,
		PEs:      worldRanks(),
		NX:       haloNX, NY: haloNY, NZ: haloNZ,
		Virtualization: haloVR,
		Iters:          iters, Warmup: haloWarmup,
		Validate: true,
		Backend:  charm.RealBackend,
	}
	out := haloRun{iters: iters + haloWarmup + 1, timed: iters}
	if nodes == nil {
		t0 := time.Now()
		res := runChecked(cfg)
		out.wall = time.Since(t0)
		out.iterTime = res.IterTime.Duration()
		out.events = res.TotalEvents
		out.errs = res.Errors
		return out
	}
	results := make([]stencil.Result, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		i, n := i, n
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.Backend, c.Net = charm.NetBackend, n
			t0 := time.Now()
			results[i] = runChecked(c)
			if i == 0 {
				out.wall = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	out.iterTime = results[0].IterTime.Duration()
	for rank, res := range results {
		out.events += res.TotalEvents
		for _, err := range res.Errors {
			out.errs = append(out.errs, fmt.Errorf("rank %d: %w", rank, err))
		}
	}
	if len(out.errs) == 0 && out.iterTime <= 0 {
		out.errs = append(out.errs, fmt.Errorf("stencil reported no iteration time"))
	}
	return out
}

// runChecked is stencil.Run with the panics it raises on a failed
// contract (an incomplete run, a violation off the net backend) turned
// into errors, so a failure counts against the run instead of ending it.
func runChecked(cfg stencil.Config) (res stencil.Result) {
	defer func() {
		if p := recover(); p != nil {
			res = stencil.Result{Errors: []error{fmt.Errorf("stencil: %v", p)}}
		}
	}()
	return stencil.Run(cfg)
}

// count charges a Run's iterations to the run: all of them fail when
// any rank reports an error, since validation cannot say which
// iteration went wrong.
func (h haloRun) count(r *run) {
	var failed int64
	var why []string
	if len(h.errs) > 0 {
		failed = int64(h.iters)
		for _, err := range h.errs {
			why = append(why, err.Error())
		}
	}
	r.count(int64(h.iters), failed, why)
}
