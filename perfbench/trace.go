package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval around a benchmark call into a layer. A
// root span (no parent) covers one whole op, and every span of that op
// shares its op id. Times are wall-clock nanoseconds since the Unix
// epoch. A span holds no pointers, so a run's hundreds of thousands of
// them cost the garbage collector nothing to scan.
type span struct {
	op           uint64
	name, parent spanName
	start, end   time.Duration
}

// spanName names a span "<layer>.<call>"; the zero value is "no parent".
type spanName uint8

const (
	spanCkdTrip spanName = iota + 1 // one CkDirect round trip
	spanMsgTrip                     // one message round trip
	spanPut                         // a Manager.Put call
	spanSend                        // an array send call
	spanTransit                     // call return to the receiver's callback
	spanJob                         // one HTTP job, client side
	spanQueue                       // Submitted to Started
	spanExec                        // rank 0's execution
	spanReport                      // execution end to Finished
	spanStencil                     // one stencil.Run call
)

var spanNames = [...]string{
	spanCkdTrip: "bench.ckd_trip",
	spanMsgTrip: "bench.msg_trip",
	spanPut:     "ckdirect.put",
	spanSend:    "charm.send",
	spanTransit: "netrt.transit",
	spanJob:     "bench.job",
	spanQueue:   "serve.queue",
	spanExec:    "serve.exec",
	spanReport:  "serve.report",
	spanStencil: "stencil.run",
}

func (n spanName) String() string { return spanNames[n] }

func tripSpan(ckd bool) spanName {
	if ckd {
		return spanCkdTrip
	}
	return spanMsgTrip
}

func callSpan(ckd bool) spanName {
	if ckd {
		return spanPut
	}
	return spanSend
}

// Op ids keep each kind of op apart within one run's span file.
const (
	opTrip    uint64 = 1 << 40
	opJob     uint64 = 2 << 40
	opStencil uint64 = 3 << 40
)

// selfTimes returns, per root span name and layer, the mean self time
// per op in microseconds: each span's duration minus the part of it its
// children cover. Children of one op may not overlap each other's
// coverage twice: their union is what is subtracted.
func selfTimes(spans []span) map[string]map[string]float64 {
	type key struct {
		op   uint64
		root spanName
	}
	roots := map[key]*span{}
	kids := map[key][]*span{}
	for i := range spans {
		s := &spans[i]
		if s.parent == 0 {
			roots[key{s.op, s.name}] = s
		} else {
			k := key{s.op, s.parent}
			kids[k] = append(kids[k], s)
		}
	}
	total := map[string]map[string]float64{}
	ops := map[string]float64{}
	for k, r := range roots {
		root := r.name.String()
		ops[root]++
		byLayer := total[root]
		if byLayer == nil {
			byLayer = map[string]float64{}
			total[root] = byLayer
		}
		ch := kids[k]
		byLayer[layerOf(r.name)] += micros(r.end - r.start - covered(r, ch))
		for _, c := range ch {
			byLayer[layerOf(c.name)] += micros(c.end - c.start)
		}
	}
	for root, byLayer := range total {
		for layer := range byLayer {
			byLayer[layer] /= ops[root]
		}
	}
	return total
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *span, ch []*span) time.Duration {
	iv := make([][2]time.Duration, 0, len(ch))
	for _, c := range ch {
		s, e := max(c.start, p.start), min(c.end, p.end)
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, reach time.Duration
	for _, x := range iv {
		if x[0] > reach {
			reach = x[0]
		}
		if x[1] > reach {
			sum += x[1] - reach
			reach = x[1]
		}
	}
	return sum
}

func layerOf(n spanName) string {
	layer, _, _ := strings.Cut(n.String(), ".")
	return layer
}

// maxSpanLines caps the span file; the self-time figures use every span
// kept in memory, the file only the first ones.
const maxSpanLines = 20000

// writeSpans writes spans as JSON lines, at most maxSpanLines of them.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		if i == maxSpanLines {
			fmt.Fprintf(w, "{\"truncated\":%d}\n", len(spans)-i)
			break
		}
		parent := ""
		if s.parent != 0 {
			parent = s.parent.String()
		}
		fmt.Fprintf(w, "{\"op\":%d,\"name\":%q,\"parent\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.op, s.name, parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
