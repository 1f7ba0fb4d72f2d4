package netmodel

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Platform bundles everything that distinguishes the two evaluation
// machines of the paper: regime tables for each software path, runtime
// overheads, topology, and application compute speeds.
//
// Calibration method: every fixed/per-byte parameter below was derived by
// fitting one-way latency (= paper round-trip / 2) across the message
// sizes of Table 1 (Abe/Infiniband) and Table 2 (Surveyor/Blue Gene P).
// Derivations are in the comments next to each table. We fit α/β regime
// models rather than interpolating the paper's points, so the tables stay
// honest: the benchmark reproduces the paper's *shape* from structural
// parameters, not by replaying its numbers.
type Platform struct {
	Name string

	// CharmMsg is the default Charm++ message path. Costs are resolved
	// against wire bytes = user bytes + HeaderBytes.
	CharmMsg Table
	// HeaderBytes is the Charm++ envelope size (~80 B per the paper §3).
	HeaderBytes int
	// SchedUS is the receiver-side scheduler overhead per message
	// (enqueue, dequeue, entry-method dispatch) — the cost CkDirect
	// bypasses.
	SchedUS float64
	// MsgFreeUS is the sender/receiver message allocation bookkeeping
	// folded into CharmMsg already; kept explicit at zero unless a study
	// wants to vary it.
	MsgFreeUS float64

	// CkdPut is the CkDirect put path (no header, no scheduler).
	CkdPut Table
	// CkDirect completion detection (Infiniband backend):
	DetectLatencyUS float64 // mean delay until a poll pass notices landed data
	DetectCPUUS     float64 // CPU to check & retire a completed handle
	CallbackUS      float64 // invoking the user callback function
	// PollPerHandleNS is the CPU charged per *polled handle* per scheduler
	// pass — the §5.2 overhead that ReadyMark/ReadyPollQ windowing fights.
	// Zero on Blue Gene/P (no polling there).
	PollPerHandleNS float64
	// CkdRecvIsCallback: Blue Gene/P delivers via the DCMF receive
	// completion callback (RecvCPU of CkdPut) instead of sentinel polling.
	CkdRecvIsCallback bool

	// MPI personalities present on the machine. MPIAlt is MPICH-VMI on
	// Abe; nil on Blue Gene/P.
	MPI    Table
	MPIPut Table
	MPIAlt Table

	// Topology & machine shape.
	CoresPerNode    int
	PerHopUS        float64
	IntraNodeFactor float64
	TopologyFor     func(nodes int) machine.Topology

	// Application compute speeds.
	StencilPerElementNS float64 // one Jacobi 7-point update
	FlopNS              float64 // sustained DGEMM cost per flop
	CopyPerByteNS       float64 // application-level memcpy
}

// BuildMachine constructs a machine with this platform's node shape and
// topology for the requested PE count, and a Net sequencer bound to it.
func (p *Platform) BuildMachine(eng *sim.Engine, pes int) (*machine.Machine, *Net) {
	nodes := (pes + p.CoresPerNode - 1) / p.CoresPerNode
	m := machine.New(eng, machine.Config{
		PEs:          pes,
		CoresPerNode: p.CoresPerNode,
		Topology:     p.TopologyFor(nodes),
	})
	return m, NewNet(eng, m, p.PerHopUS, p.IntraNodeFactor)
}

// AbeIB is the NCSA Abe model: dual-socket quad-core 2.33 GHz Clovertown
// nodes on an Infiniband fat-tree (paper §3, §4, §5).
//
// Fit targets, one-way µs (= Table 1 RTT / 2):
//
//	charm msg : 11.20 + 1.50 ns/B (≤ ~1 KB, eager)
//	            15.40 + 1.63 ns/B (≤ ~20 KB, packetized)
//	            40.60 + 1.318 ns/B (rendezvous + RDMA)
//	ckdirect  :  6.19 + 1.282 ns/B (RDMA put + sentinel poll)
//	mvapich   :  6.15 + 2.20 ns/B (eager ≤ 12 KB); 17.0 + 1.35 ns/B
//	mvapich put: 8.30 + 3.50 ns/B (≤ 5 KB);       18.3 + 1.33 ns/B
//	mpich-vmi :  6.10 + 2.44 ns/B (≤10K); 10+2.05 (≤30K); 45+1.31
//
// (MPICH-VMI's published data is non-monotone between 40 KB and 100 KB;
// we fit the overall envelope.)
var AbeIB = &Platform{
	Name:        "abe-infiniband",
	HeaderBytes: 80,
	SchedUS:     2.4,
	CharmMsg: Table{
		// Eager small messages: one copy on arrival, cheap post.
		{MaxBytes: 1104,
			SendCPUUS: 2.0, SendPerByteNS: 0.20,
			WireFixedUS: 4.4, WirePerByteNS: 1.00,
			RecvCPUUS: 2.4, RecvPerByteNS: 0.30},
		// Packetized protocol (paper: used between ~1 KB and ~20 KB
		// because it needs no synchronization; higher per-byte cost).
		{MaxBytes: 20560,
			SendCPUUS: 4.0, SendPerByteNS: 0.30,
			WireFixedUS: 4.5, WirePerByteNS: 1.00,
			RecvCPUUS: 4.4, RecvPerByteNS: 0.33},
		// Rendezvous + RDMA: control round trip plus registration whose
		// cost grows slowly with size (paper §3).
		{MaxBytes: math.MaxInt,
			SendCPUUS:   3.0,
			WireFixedUS: 4.5, WirePerByteNS: 1.282,
			RecvCPUUS:    2.6,
			RendezvousUS: 12.0, RendezvousCPUUS: 16.0, RendezvousCPUPerByteNS: 0.036},
	},
	CkdPut: Table{
		// An RDMA put at any size, but the effective per-byte rate is
		// higher below ~20 KB (HCA/PCIe pipelining has not reached its
		// streaming rate). Fits Table 1 row 2: 6.02+1.73 ns/B (≤5 KB),
		// 8.06+1.32 ns/B (≤20 KB), 8.37+1.278 ns/B above.
		{MaxBytes: 5000,
			SendCPUUS:   0.8,
			WireFixedUS: 4.23, WirePerByteNS: 1.73},
		{MaxBytes: 20000,
			SendCPUUS:   0.8,
			WireFixedUS: 6.27, WirePerByteNS: 1.32},
		{MaxBytes: math.MaxInt,
			SendCPUUS:   0.8,
			WireFixedUS: 6.58, WirePerByteNS: 1.278},
	},
	DetectLatencyUS: 0.20,
	DetectCPUUS:     0.50,
	CallbackUS:      0.29,
	PollPerHandleNS: 25,

	// MVAPICH2 0.9.8 two-sided. Fits Table 1 row 4:
	// 5.75+3.96 ns/B (≤1 KB eager), 9.19+1.894 ns/B (≤12 KB),
	// 18.5+1.345 ns/B (rendezvous).
	MPI: Table{
		{MaxBytes: 1024,
			SendCPUUS: 1.0, SendPerByteNS: 0.30,
			WireFixedUS: 4.15, WirePerByteNS: 3.00,
			RecvCPUUS: 0.60, RecvPerByteNS: 0.66},
		{MaxBytes: 12288,
			SendCPUUS: 1.2, SendPerByteNS: 0.20,
			WireFixedUS: 4.15, WirePerByteNS: 1.30,
			RecvCPUUS: 3.84, RecvPerByteNS: 0.394},
		{MaxBytes: math.MaxInt,
			SendCPUUS:   1.5,
			WireFixedUS: 4.5, WirePerByteNS: 1.275,
			RecvCPUUS: 2.5, RecvPerByteNS: 0.07,
			RendezvousUS: 6.0, RendezvousCPUUS: 4.0},
	},
	// MVAPICH2 MPI_Put with post-start-complete-wait. Fits Table 1 row 5:
	// 8.04+3.567 ns/B (≤5 KB), 18.78+1.332 ns/B above.
	MPIPut: Table{
		{MaxBytes: 5120,
			SendCPUUS: 1.6, SendPerByteNS: 0.30,
			WireFixedUS: 4.4, WirePerByteNS: 2.60,
			RecvCPUUS: 2.04, RecvPerByteNS: 0.667},
		{MaxBytes: math.MaxInt,
			SendCPUUS:   1.6,
			WireFixedUS: 4.5, WirePerByteNS: 1.262,
			RecvCPUUS: 1.68, RecvPerByteNS: 0.07,
			RendezvousUS: 7.0, RendezvousCPUUS: 4.0},
	},
	// MPICH-VMI 2.2.0. The published row is visibly noisy (the 70 KB RTT
	// nearly equals the 100 KB RTT); five regimes track its envelope:
	// 5.77+4.06, 6.87+2.358 (≤10 K), 26.4+1.246 (≤30 K),
	// 19.5+2.026 (≤70 K), 33.3+1.330 above.
	MPIAlt: Table{
		{MaxBytes: 1024,
			SendCPUUS: 1.0, SendPerByteNS: 0.30,
			WireFixedUS: 4.1, WirePerByteNS: 3.20,
			RecvCPUUS: 0.67, RecvPerByteNS: 0.56},
		{MaxBytes: 10240,
			SendCPUUS: 1.2, SendPerByteNS: 0.20,
			WireFixedUS: 4.1, WirePerByteNS: 1.70,
			RecvCPUUS: 1.57, RecvPerByteNS: 0.458},
		{MaxBytes: 30720,
			SendCPUUS: 2.0, SendPerByteNS: 0.10,
			WireFixedUS: 4.1, WirePerByteNS: 0.80,
			RecvCPUUS: 4.0, RecvPerByteNS: 0.346,
			RendezvousUS: 10.0, RendezvousCPUUS: 6.3},
		{MaxBytes: 71680,
			SendCPUUS: 2.0, SendPerByteNS: 0.20,
			WireFixedUS: 4.1, WirePerByteNS: 1.40,
			RecvCPUUS: 2.0, RecvPerByteNS: 0.426,
			RendezvousUS: 8.0, RendezvousCPUUS: 3.4},
		{MaxBytes: math.MaxInt,
			SendCPUUS:   2.0,
			WireFixedUS: 4.1, WirePerByteNS: 1.26,
			RecvCPUUS: 2.2, RecvPerByteNS: 0.0703,
			RendezvousUS: 18.0, RendezvousCPUUS: 7.0},
	},

	CoresPerNode:    8,
	PerHopUS:        0.10,
	IntraNodeFactor: 0.40,
	TopologyFor: func(nodes int) machine.Topology {
		return machine.TreeTopology{LeafSize: 24}
	},

	StencilPerElementNS: 4.0,  // 2.33 GHz Clovertown, memory-bound Jacobi
	FlopNS:              0.15, // ~6.6 GF/core sustained DGEMM
	CopyPerByteNS:       0.25, // ~4 GB/s memcpy
}

// SurveyorBGP is the ANL Surveyor Blue Gene/P model (paper §2.2, §3).
//
// Fit targets, one-way µs (= Table 2 RTT / 2):
//
//	charm msg : 6.90 + 2.95 ns/B (≤ ~10 KB); 9.60 + 2.68 ns/B above
//	ckdirect  : 2.20 + 3.40 (≤1 KB); 2.90 + 2.733 (≤20 KB); 4.75 + 2.668
//	            (the ~1.9 µs wire term matches DCMF's published latency)
//	mpi       : 3.45 + 3.52 ns/B (≤4 KB); 6.60 + 2.668 ns/B above (the
//	            paper's "buffering threshold" bump at ~5 KB)
//	mpi put   : 6.67 + 3.50 (≤512 B); 5.40 + 3.52 (≤4 KB); 7.29 + 2.671
var SurveyorBGP = &Platform{
	Name:        "surveyor-bluegenep",
	HeaderBytes: 80,
	SchedUS:     1.93,
	CharmMsg: Table{
		// DCMF has no RDMA cutover on Surveyor (rendezvous protocol not
		// installed, paper §3): everything is the copying two-sided path.
		// Small messages see a higher effective per-byte rate (torus
		// packetization warm-up); fits Table 2 row 1:
		// 6.90+2.95 ns/B (≤ ~10 KB), 9.60+2.68 ns/B above.
		{MaxBytes: 10320,
			SendCPUUS:   1.4,
			WireFixedUS: 1.9, WirePerByteNS: 2.70,
			RecvCPUUS: 1.67, RecvPerByteNS: 0.25},
		{MaxBytes: math.MaxInt,
			SendCPUUS:   1.4,
			WireFixedUS: 1.9, WirePerByteNS: 2.66,
			RecvCPUUS: 4.37, RecvPerByteNS: 0.02},
	},
	CkdPut: Table{
		// DCMF_Send with Info-carried context: receive handler hands the
		// payload straight to the user buffer and fires the user callback
		// from the completion callback (RecvCPU below); no scheduler.
		// Fits Table 2 row 2: 2.20+3.40 ns/B (≤1 KB), 2.90+2.733 ns/B
		// (≤20 KB), 4.75+2.668 ns/B above.
		{MaxBytes: 1024,
			SendCPUUS:   0.30,
			WireFixedUS: 1.53, WirePerByteNS: 3.40,
			RecvCPUUS: 0.37},
		{MaxBytes: 20000,
			SendCPUUS:   0.30,
			WireFixedUS: 2.23, WirePerByteNS: 2.733,
			RecvCPUUS: 0.37},
		{MaxBytes: math.MaxInt,
			SendCPUUS:   0.30,
			WireFixedUS: 4.08, WirePerByteNS: 2.668,
			RecvCPUUS: 0.37},
	},
	CkdRecvIsCallback: true,
	// No polling machinery on BG/P; CkDirect_Ready calls are no-ops.
	PollPerHandleNS: 0,

	// IBM BG/P MPI two-sided. Fits Table 2 row 3:
	// 3.45+3.52 ns/B (≤4 KB), 6.60+2.668 ns/B above (the "buffering
	// threshold" bump the paper observes at ~5 KB).
	MPI: Table{
		{MaxBytes: 4096,
			SendCPUUS:   0.70,
			WireFixedUS: 1.53, WirePerByteNS: 3.00,
			RecvCPUUS: 1.22, RecvPerByteNS: 0.52},
		{MaxBytes: math.MaxInt,
			SendCPUUS:   1.00,
			WireFixedUS: 4.08, WirePerByteNS: 2.648,
			RecvCPUUS: 1.52, RecvPerByteNS: 0.02},
	},
	// MPI_Put (PSCW) on BG/P. Fits Table 2 row 4:
	// 6.67+3.50 (≤512 B), 5.40+3.52 (≤4 KB), 7.29+2.671 above.
	MPIPut: Table{
		{MaxBytes: 512,
			SendCPUUS:   1.20,
			WireFixedUS: 1.53, WirePerByteNS: 3.00,
			RecvCPUUS: 2.34, RecvPerByteNS: 0.50,
			RendezvousCPUUS: 1.60},
		{MaxBytes: 4096,
			SendCPUUS:   1.00,
			WireFixedUS: 1.53, WirePerByteNS: 3.00,
			RecvCPUUS: 2.07, RecvPerByteNS: 0.52,
			RendezvousCPUUS: 0.80},
		{MaxBytes: math.MaxInt,
			SendCPUUS:   1.00,
			WireFixedUS: 4.08, WirePerByteNS: 2.648,
			RecvCPUUS: 1.61, RecvPerByteNS: 0.023,
			RendezvousCPUUS: 0.60},
	},

	CoresPerNode:    4,
	PerHopUS:        0.04,
	IntraNodeFactor: 0.50,
	TopologyFor: func(nodes int) machine.Topology {
		return machine.TorusFor(nodes)
	},

	StencilPerElementNS: 12.0, // 850 MHz PPC450
	FlopNS:              0.30, // ~3.4 GF/core with double hummer
	CopyPerByteNS:       0.85,
}

// Platforms lists the calibrated machines by name.
var Platforms = map[string]*Platform{
	AbeIB.Name:       AbeIB,
	SurveyorBGP.Name: SurveyorBGP,
}

// ParsePlatform maps a -platform flag value to a calibrated machine:
// abe (alias ib, infiniband) or bgp (alias bluegene, surveyor).
func ParsePlatform(name string) (*Platform, error) {
	switch name {
	case "abe", "ib", "infiniband":
		return AbeIB, nil
	case "bgp", "bluegene", "surveyor":
		return SurveyorBGP, nil
	}
	return nil, fmt.Errorf("unknown platform %q (want abe|bgp)", name)
}

// Validate checks all regime tables of the platform.
func (p *Platform) Validate() error {
	for _, t := range []Table{p.CharmMsg, p.CkdPut, p.MPI, p.MPIPut} {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	if p.MPIAlt != nil {
		return p.MPIAlt.Validate()
	}
	return nil
}
