package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bufpool"
	"repro/internal/netrt"
)

// world is one in-process net-backend world: every rank a netrt node
// with one PE, connected over loopback TCP and, unless shm is off, the
// shared-memory transport.
type world struct {
	nodes []*netrt.Node
	boot  time.Duration // the StartLocalConfig call
}

// worldRanks is the rank count of every world: one rank per CPU, at
// least two so there is a wire to cross, at most four to keep the
// per-pair shared segments small.
func worldRanks() int {
	return min(max(runtime.NumCPU(), 2), 4)
}

func bootWorld(shm bool, seed uint64) (*world, error) {
	t0 := time.Now()
	nodes, err := netrt.StartLocalConfig(worldRanks(), netrt.Config{ShmOff: !shm, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("boot world: %w", err)
	}
	return &world{nodes: nodes, boot: time.Since(t0)}, nil
}

func (w *world) close() {
	for _, n := range w.nodes {
		n.Close()
	}
}

// counters is a snapshot of the public counters the per-layer metrics
// are deltas of: the mesh's, the wire buffer pool's and the Go
// allocator's.
type counters struct {
	net                netrt.NetStats
	pool               bufpool.Stats
	mallocs, bytes, gc uint64
}

func (w *world) snapshot() counters {
	var c counters
	for _, n := range w.nodes {
		s := n.Stats()
		c.net.ShmFramesCoalesced += s.ShmFramesCoalesced
		c.net.BatchGrows += s.BatchGrows
		c.net.BatchShrinks += s.BatchShrinks
		c.net.EagerShrinks += s.EagerShrinks
		c.net.TermProbeRounds += s.TermProbeRounds
	}
	c.pool = bufpool.Default.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.bytes, c.gc = ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC)
	return c
}

// sub is the delta c-o of the counters the per-layer metrics use.
func (c counters) sub(o counters) counters {
	c.net.ShmFramesCoalesced -= o.net.ShmFramesCoalesced
	c.net.BatchGrows -= o.net.BatchGrows
	c.net.BatchShrinks -= o.net.BatchShrinks
	c.net.EagerShrinks -= o.net.EagerShrinks
	c.net.TermProbeRounds -= o.net.TermProbeRounds
	c.pool.Gets -= o.pool.Gets
	c.pool.Misses -= o.pool.Misses
	c.mallocs -= o.mallocs
	c.bytes -= o.bytes
	c.gc -= o.gc
	return c
}

// add sums two deltas.
func (c counters) add(o counters) counters {
	c.net.ShmFramesCoalesced += o.net.ShmFramesCoalesced
	c.net.BatchGrows += o.net.BatchGrows
	c.net.BatchShrinks += o.net.BatchShrinks
	c.net.EagerShrinks += o.net.EagerShrinks
	c.net.TermProbeRounds += o.net.TermProbeRounds
	c.pool.Gets += o.pool.Gets
	c.pool.Misses += o.pool.Misses
	c.mallocs += o.mallocs
	c.bytes += o.bytes
	c.gc += o.gc
	return c
}

func (w *world) connsOpened() int64 {
	var n int64
	for _, nd := range w.nodes {
		n += nd.ConnsOpened()
	}
	return n
}

// host describes the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

func hostShape() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or reports
// the architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
