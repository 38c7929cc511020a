package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"decaf/internal/vtime"
)

// span is one timed interval recorded around a call into a layer.
// Spans of one request share its generator id; a transport span is
// attributed to a request through the TxnVT of the message it carried.
type span struct {
	name       string
	start, end int64
	req        int64
	vt         vtime.VT
	parent     int
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span             // guarded by mu
	vtReq map[vtime.VT]int64 // guarded by mu
}

func newTracer() *tracer { return &tracer{vtReq: map[vtime.VT]int64{}} }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// bindVT records that an execution of request req drew VT vt.
func (t *tracer) bindVT(vt vtime.VT, req int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.vtReq[vt] = req
	t.mu.Unlock()
}

// spanLevel places each span name in the request tree: request → phase
// (apply, confirm) → call (submit, execute, send, deliver) → op.
var spanLevel = map[string]int{
	"request":           0,
	"engine.apply":      1,
	"engine.confirm":    1,
	"engine.submit":     2,
	"engine.execute":    2,
	"transport.send":    2,
	"transport.deliver": 2,
	"engine.op":         3,
}

// link resolves request ids from VTs and sets each span's parent: the
// innermost span of the same request one level up whose interval
// contains the span's start (falling back to the nearest level that
// has one). Spans of no request keep parent -1.
func (t *tracer) link() {
	byReq := map[int64][]int{}
	for i := range t.spans {
		s := &t.spans[i]
		s.parent = -1
		if s.req == 0 {
			s.req = t.vtReq[s.vt]
		}
		if s.req != 0 {
			byReq[s.req] = append(byReq[s.req], i)
		}
	}
	for _, idx := range byReq {
		for _, i := range idx {
			s := &t.spans[i]
			lvl := spanLevel[s.name]
			for want := lvl - 1; want >= 0 && s.parent < 0; want-- {
				for _, j := range idx {
					p := t.spans[j]
					if spanLevel[p.name] == want && p.start <= s.start && s.start <= p.end {
						s.parent = j
						break
					}
				}
			}
		}
	}
}

// layerTime aggregates one span name.
type layerTime struct {
	name        string
	count       int
	total, self int64
}

// selfTimes returns, per span name, the summed duration and self time
// (duration minus the part of the interval its children cover).
func (t *tracer) selfTimes() []layerTime {
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	agg := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := agg[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			agg[s.name] = lt
		}
		d := s.end - s.start
		lt.count++
		lt.total += d
		lt.self += d - covered(t.spans, children[i], s.start, s.end)
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered returns how much of [lo, hi] the given spans' union covers.
func covered(spans []span, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].start, lo), min(spans[i].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		sum += v.b - max(v.a, end)
		end = v.b
	}
	return sum
}

// selfTimeLines renders the self-time table, one line per span name.
func selfTimeLines(lts []layerTime) []string {
	lines := []string{fmt.Sprintf("%-20s %9s %12s %12s %12s", "span", "count", "mean_us", "self_us", "self_total_ms")}
	for _, lt := range lts {
		lines = append(lines, fmt.Sprintf("%-20s %9d %12.2f %12.2f %12.1f", lt.name, lt.count,
			ratio(float64(lt.total), float64(lt.count))/1e3,
			ratio(float64(lt.self), float64(lt.count))/1e3,
			float64(lt.self)/1e6))
	}
	return lines
}

// dump writes the spans as JSON lines: name, start and end in
// nanoseconds since process start, parent index (-1: none), request id
// and the transaction VT.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int    `json:"parent"`
			Req    int64  `json:"req"`
			VT     string `json:"vt"`
		}{s.name, s.start, s.end, s.parent, s.req, s.vt.String()}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
