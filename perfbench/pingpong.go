package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/charm"
	"repro/internal/ckdirect"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// payloadBytes is the pingpong payload: 64 KiB, far above the 4 KiB
// eager limit, so every message trip pays the rendezvous handshake and
// every put moves a real block of bytes.
const payloadBytes = 64 << 10

// oob is the CkDirect out-of-band sentinel; no payload ends with it.
const oob = 0xFFF8BADF00D00001

// checkBit marks a trip whose whole payload the receiver compares, not
// just its stamp. It is the last trip of every block.
const checkBit = 1 << 63

// ppPlatform places every PE on its own node, so the pingpong's two
// endpoints never share one.
var ppPlatform = func() *netmodel.Platform {
	p := *netmodel.AbeIB
	p.CoresPerNode = 1
	return &p
}()

// ppConfig is one pingpong session: warm-up trips, then timed blocks of
// CkDirect puts alternating with blocks of messages, all in one run
// generation.
type ppConfig struct {
	warmup int           // untimed trips of each kind before the first timed trip
	block  int           // trips per block
	pairs  int           // timed block pairs; 0 runs until timed elapses
	timed  time.Duration // timed phase length when pairs is 0
	seed   uint64        // payload pattern
	traced bool          // record spans and per-call timings
}

// ppResult is what one session measured. RTT and one-way samples are in
// microseconds, call timings in nanoseconds; content-checked trips are
// counted but not timed. The one-way, call and span data exist only for
// traced sessions.
type ppResult struct {
	warmEnd, lastCB, end time.Time
	build                time.Duration // rank 0's RTS, array and handle setup

	ckdRTT, msgRTT       []float64
	ckdOneway, msgOneway []float64
	putCall, sendCall    []float64
	spans                []span

	timedTrips        int64
	attempted, failed int64
	failures          []string
	executed          uint64 // scheduler tasks run on every rank
}

// ppStamp is one side's timestamps for one traced trip, relative to the
// session epoch: when the trip (or reply) began, when its put or send
// call returned, and when it arrived at this side.
type ppStamp struct {
	seq                    uint64
	ckd                    bool
	begin, callEnd, arrive time.Duration
}

// ppSide is one endpoint's state. Side a (PE 0) drives the trips and
// owns the timing; side b (PE 1) reflects. Each side is touched only by
// the goroutine running its PE and read by the caller after Run.
type ppSide struct {
	seq   uint64 // last stamp sent (a) or received (b), check bit cleared
	left  int    // trips left in the current block (a)
	ckd   bool   // current block kind (a)
	timed bool   // past warm-up (a)
	pairs int
	t0    time.Time // current trip's start (a)

	rtt      [2][]float64 // by kindIdx
	stamps   []ppStamp
	failed   int64
	failures []string
	trips    int64
	timedN   int64
	warmEnd  time.Time
	lastCB   time.Time
	finished bool

	expect []byte // payload pattern, stamp slot zeroed
	msgBuf []byte // reused outgoing message payload
}

func (s *ppSide) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 8 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// pattern fills a payload with seed-derived bytes whose last word is
// never the sentinel pattern, and whose first word (the stamp slot) is 0.
func pattern(n int, seed uint64) []byte {
	b := make([]byte, n)
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	if binary.LittleEndian.Uint64(b[n-8:]) == oob {
		b[n-1] ^= 1
	}
	binary.LittleEndian.PutUint64(b, 0)
	return b
}

// check verifies one received payload: its stamp always, and on checked
// trips every byte except the stamp and the last tail bytes (a put's
// re-armed sentinel word) against the pattern.
func (s *ppSide) check(got []byte, want uint64, tail int, ckd bool) {
	if len(got) != payloadBytes {
		s.fail("%s payload is %d bytes, want %d", kindName(ckd), len(got), payloadBytes)
		return
	}
	stamp := binary.LittleEndian.Uint64(got)
	if stamp != want {
		s.fail("%s stamp %#x, want %#x", kindName(ckd), stamp, want)
		return
	}
	if stamp&checkBit != 0 && !bytes.Equal(got[8:len(got)-tail], s.expect[8:len(got)-tail]) {
		s.fail("%s payload of trip %d differs from the source", kindName(ckd), stamp&^checkBit)
	}
}

// runPingpong runs one session across the world's ranks (one RTS per
// rank, SPMD), or on one real-backend RTS when nodes is nil.
func runPingpong(nodes []*netrt.Node, cfg ppConfig) ppResult {
	a := &ppSide{expect: pattern(payloadBytes, cfg.seed)}
	b := &ppSide{expect: a.expect}
	a.msgBuf = append([]byte(nil), a.expect...)
	b.msgBuf = append([]byte(nil), a.expect...)
	epoch := time.Now()
	var res ppResult
	var mu sync.Mutex
	var errs []error
	rank := func(node *netrt.Node) {
		t0 := time.Now()
		rts := buildPingpong(node, cfg, epoch, a, b)
		if node == nil || node.Rank() == 0 {
			res.build = time.Since(t0)
		}
		rts.Run()
		mu.Lock()
		errs = append(errs, rts.Errors()...)
		res.executed += rts.Executed()
		mu.Unlock()
	}
	if nodes == nil {
		rank(nil)
	} else {
		var wg sync.WaitGroup
		for _, n := range nodes {
			n := n
			wg.Add(1)
			go func() {
				defer wg.Done()
				rank(n)
			}()
		}
		wg.Wait()
	}
	res.end = time.Now()
	res.warmEnd, res.lastCB = a.warmEnd, a.lastCB
	res.ckdRTT, res.msgRTT = a.rtt[1], a.rtt[0]
	res.timedTrips = a.timedN
	res.attempted = a.trips
	res.failed = a.failed + b.failed
	res.failures = append(a.failures, b.failures...)
	for _, err := range errs {
		res.failed++
		res.failures = append(res.failures, err.Error())
	}
	if !a.finished && len(errs) == 0 {
		// The chain stopped short without a runtime error: a trip was
		// lost in flight.
		res.attempted++
		res.failed++
		res.failures = append(res.failures, fmt.Sprintf("pingpong chain stalled after %d trips", a.trips))
	}
	if cfg.traced {
		res.joinStamps(epoch, a.stamps, b.stamps)
	}
	return res
}

// joinStamps pairs each timed trip's two sides into one-way latencies,
// call timings and spans, whose op id is the trip's sequence number. b
// reflects every trip in order, so b's stamp
// for trip seq sits at index seq-1 unless a failure broke the order.
func (res *ppResult) joinStamps(epoch time.Time, as, bs []ppStamp) {
	base := time.Duration(epoch.UnixNano())
	for _, sa := range as {
		i := int(sa.seq) - 1
		if i < 0 || i >= len(bs) || bs[i].seq != sa.seq {
			continue
		}
		sb := bs[i]
		out := micros(sb.arrive - sa.begin)
		back := micros(sa.arrive - sb.begin)
		callA := float64((sa.callEnd - sa.begin).Nanoseconds())
		callB := float64((sb.callEnd - sb.begin).Nanoseconds())
		if sa.ckd {
			res.ckdOneway = append(res.ckdOneway, out, back)
			res.putCall = append(res.putCall, callA, callB)
		} else {
			res.msgOneway = append(res.msgOneway, out, back)
			res.sendCall = append(res.sendCall, callA, callB)
		}
		root, call := tripSpan(sa.ckd), callSpan(sa.ckd)
		op := sa.seq
		res.spans = append(res.spans,
			span{op: op, name: root, start: base + sa.begin, end: base + sa.arrive},
			span{op: op, name: call, parent: root, start: base + sa.begin, end: base + sa.callEnd},
			span{op: op, name: spanTransit, parent: root, start: base + sa.callEnd, end: base + sb.arrive},
			span{op: op, name: call, parent: root, start: base + sb.begin, end: base + sb.callEnd},
			span{op: op, name: spanTransit, parent: root, start: base + sb.callEnd, end: base + sa.arrive})
	}
}

// buildPingpong builds one rank's share of the session and queues the
// first trip. Every rank registers the identical array, entry methods
// and handles; only the rank hosting a side's PE runs that side.
func buildPingpong(node *netrt.Node, cfg ppConfig, epoch time.Time, a, b *ppSide) *charm.RTS {
	be, npes := charm.RealBackend, 2
	if node != nil {
		be, npes = charm.NetBackend, node.World()
	}
	eng := sim.NewEngine()
	mach, net := ppPlatform.BuildMachine(eng, npes)
	rts := charm.NewRTS(eng, mach, net, ppPlatform, trace.NewRecorder(),
		charm.Options{Checked: true, Backend: be, Net: node})
	mgr := ckdirect.NewManager(rts)
	arr := rts.NewArray("perfbench.pingpong", func(ix charm.Index) int { return ix[0] })
	arr.Insert(charm.Idx1(0), &struct{}{})
	arr.Insert(charm.Idx1(1), &struct{}{})

	region := func(pe int) *machine.Region {
		r := mach.AllocRegion(pe, payloadBytes, false)
		copy(r.Bytes(), a.expect)
		return r
	}
	sendA, recvB := region(0), region(1)
	sendB, recvA := region(1), region(0)

	var hAB, hBA *ckdirect.Handle
	var ping, pong charm.EP
	var next func(ctx *charm.Ctx)

	// transmit sends one trip's payload from side s: a put on the
	// side's channel or a message carrying the bytes.
	transmit := func(ctx *charm.Ctx, s *ppSide, ckd bool, stamp uint64) {
		if ckd {
			h, src := hAB, sendA
			if s == b {
				h, src = hBA, sendB
			}
			binary.LittleEndian.PutUint64(src.Bytes(), stamp)
			if err := mgr.Put(h); err != nil {
				s.fail("put: %v", err)
			}
			return
		}
		to, ep := charm.Idx1(1), ping
		if s == b {
			to, ep = charm.Idx1(0), pong
		}
		binary.LittleEndian.PutUint64(s.msgBuf, stamp)
		ctx.Send(arr, to, ep, &charm.Message{Size: payloadBytes, Data: s.msgBuf})
	}

	// send starts a's next trip of the current kind.
	send := func(ctx *charm.Ctx) {
		a.seq++
		stamp := a.seq
		if a.left == 1 {
			stamp |= checkBit
		}
		a.t0 = time.Now()
		transmit(ctx, a, a.ckd, stamp)
		if cfg.traced && a.timed && stamp&checkBit == 0 {
			a.stamps = append(a.stamps, ppStamp{seq: a.seq, ckd: a.ckd,
				begin: a.t0.Sub(epoch), callEnd: time.Since(epoch)})
		}
	}

	// reflect is b's handling of a ping: check it, reply with its stamp.
	reflect := func(ctx *charm.Ctx, payload []byte, ckd bool, tail int, rearm func()) {
		var arrived time.Duration
		if cfg.traced {
			arrived = time.Since(epoch)
		}
		stamp := b.seq + 1 // what to echo if the payload is too short to carry one
		if len(payload) >= 8 {
			stamp = binary.LittleEndian.Uint64(payload)
		}
		b.check(payload, (b.seq+1)|stamp&checkBit, tail, ckd)
		b.seq = stamp &^ checkBit
		if rearm != nil {
			rearm()
		}
		var begin time.Duration
		if cfg.traced {
			begin = time.Since(epoch)
		}
		transmit(ctx, b, ckd, stamp)
		if cfg.traced {
			b.stamps = append(b.stamps, ppStamp{seq: b.seq, ckd: ckd,
				begin: begin, callEnd: time.Since(epoch), arrive: arrived})
		}
	}

	// land is a's handling of a pong: check it, time it, go on.
	land := func(ctx *charm.Ctx, payload []byte, ckd bool, tail int) {
		rtt := time.Since(a.t0)
		a.trips++
		want := a.seq
		if a.left == 1 {
			want |= checkBit
		}
		a.check(payload, want, tail, ckd)
		if a.timed {
			a.timedN++
			if a.left != 1 {
				a.rtt[kindIdx(ckd)] = append(a.rtt[kindIdx(ckd)], micros(rtt))
				if cfg.traced {
					a.stamps[len(a.stamps)-1].arrive = a.t0.Sub(epoch) + rtt
				}
			}
		}
		a.left--
		next(ctx)
	}

	// next starts the following trip, block or phase, or ends the chain.
	next = func(ctx *charm.Ctx) {
		for a.left == 0 {
			switch {
			case !a.timed && a.ckd:
				a.ckd, a.left = false, cfg.warmup
				continue
			case !a.timed:
				a.timed, a.warmEnd = true, time.Now()
				if cfg.pairs == 0 && cfg.timed == 0 {
					a.finished, a.lastCB = true, time.Now()
					return
				}
			case a.ckd:
				a.ckd, a.left = false, cfg.block
				continue
			default:
				a.pairs++
				if (cfg.pairs > 0 && a.pairs >= cfg.pairs) ||
					(cfg.pairs == 0 && time.Since(a.warmEnd) >= cfg.timed) {
					a.finished, a.lastCB = true, time.Now()
					return
				}
			}
			a.ckd, a.left = true, cfg.block
		}
		send(ctx)
	}

	var err error
	hAB, err = mgr.CreateHandle(1, recvB, oob, func(ctx *charm.Ctx) {
		reflect(ctx, recvB.Bytes(), true, 8, func() { mgr.Ready(hAB) })
	})
	mustSetup(err)
	hBA, err = mgr.CreateHandle(0, recvA, oob, func(ctx *charm.Ctx) {
		mgr.Ready(hBA)
		land(ctx, recvA.Bytes(), true, 8)
	})
	mustSetup(err)
	mustSetup(mgr.AssocLocal(hAB, 0, sendA))
	mustSetup(mgr.AssocLocal(hBA, 1, sendB))
	ping = arr.EntryMethod("ping", func(ctx *charm.Ctx, msg *charm.Message) {
		reflect(ctx, msg.Data, false, 0, nil)
	})
	pong = arr.EntryMethod("pong", func(ctx *charm.Ctx, msg *charm.Message) {
		land(ctx, msg.Data, false, 0)
	})
	rts.StartAt(0, func(ctx *charm.Ctx) {
		a.ckd, a.left = true, cfg.warmup
		next(ctx)
	})
	return rts
}

// mustSetup stops on a setup-time contract error, which only a bug in
// this benchmark can cause.
func mustSetup(err error) {
	if err != nil {
		panic(fmt.Sprintf("perfbench: pingpong setup: %v", err))
	}
}

func kindIdx(ckd bool) int {
	if ckd {
		return 1
	}
	return 0
}

func kindName(ckd bool) string {
	if ckd {
		return "ckd"
	}
	return "msg"
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
