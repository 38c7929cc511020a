package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decaf/internal/engine"
	"decaf/internal/vtime"
)

// completionTimeout bounds how long a round waits for outstanding
// results before it reports them as hung.
const completionTimeout = 60 * time.Second

// measurement accumulates one pass of a workload: every round's
// requests, timings and the layer counters read at the end of each.
type measurement struct {
	w          *workload
	reqs       []*request
	setups     []float64 // seconds
	loadNanos  int64
	rounds     []roundStats
	kills      []killRec
	violations []string

	// View latencies, due → first callback showing the request's value.
	localView, remoteView, pessView samples
	layers                          *layerAcc // traced passes only
}

// roundStats are one round's user-facing numbers; a pass reports the
// median over its rounds, which damps a round disturbed by a neighbour
// on a shared machine.
type roundStats struct {
	throughput, cpuPerTxn, growth, heapMB, p50, p90, p99 float64
}

type killRec struct {
	at, repairNanos, rejoinNanos int64
}

// runPass sets up, loads, verifies and tears down rounds of w until the
// window is spent. Open loops run a single round covering the window;
// closed loops run fixed-size rounds, at least one (exactly one when
// traced).
func runPass(w *workload, seed int64, seconds float64, tr *tracer, dir string) (*measurement, error) {
	m := &measurement{w: w}
	if tr != nil {
		m.layers = newLayerAcc()
	}
	for round := 0; ; round++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(round)))
		var reqs []*request
		if w.rate > 0 {
			reqs = openSchedule(w, rng, seconds)
		}
		heapBase := liveHeap()
		start := time.Now()
		c, err := newCluster(w, tr, filepath.Join(dir, fmt.Sprintf("round-%d", round)), len(reqs))
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", w.name, err)
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
		var rs roundStats
		reqs, rs = m.round(c, reqs, seed+int64(round)*104729)
		if len(m.violations) == 0 {
			m.violations = append(m.violations, c.verify(reqs)...)
		}
		if c.vt != nil {
			m.viewLatencies(c.vt, reqs)
		}
		if m.layers != nil {
			m.layers.collect(c, m)
		}
		rs.heapMB = float64(liveHeap()-heapBase) / (1 << 20)
		m.rounds = append(m.rounds, rs)
		c.close()
		for _, n := range c.all {
			for _, v := range n.eng.Stats().NotifyIdentityViolations() {
				m.violations = append(m.violations, fmt.Sprintf("S%d: %s", n.id, v))
			}
		}
		// A traced pass keeps every span in memory, so it stops after
		// one round.
		if w.rate > 0 || tr != nil || float64(m.loadNanos)/1e9 >= seconds || len(m.violations) > 0 {
			return m, nil
		}
	}
}

// liveHeap returns the heap in use after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// openSchedule draws the open loop's requests, due at a fixed rate.
// The last tenth repeats the first tenth's mix, so cost_growth compares
// the same work early and late in the round rather than two random
// draws of a small mix.
func openSchedule(w *workload, rng *rand.Rand, seconds float64) []*request {
	n := int(w.rate * seconds)
	tenth := n / 10
	reqs := make([]*request, n)
	for i := range reqs {
		r := w.gen(rng, 0)
		if i >= n-tenth {
			r = *reqs[i-(n-tenth)]
		}
		r.id = int64(i + 1)
		r.due = int64(float64(i) * 1e9 / w.rate)
		reqs[i] = &r
	}
	return reqs
}

// progress tracks completions within one round so per-txn CPU cost can
// be compared between its first and last tenth.
type progress struct {
	total, tenth int64
	done         atomic.Int64
	cpu10        atomic.Int64 // process CPU when the first tenth completed
	cpu90        atomic.Int64 // process CPU when the last tenth began
}

func newProgress(total int) *progress {
	return &progress{total: int64(total), tenth: int64(total) / 10}
}

func (p *progress) complete() {
	switch p.done.Add(1) {
	case p.tenth:
		p.cpu10.Store(int64(cpuNow()))
	case p.total - p.tenth:
		p.cpu90.Store(int64(cpuNow()))
	}
}

// round drives one cluster: the load, the kill loop where the workload
// has one, and the round's CPU, growth and timing accounting. It
// returns the round's requests and numbers.
func (m *measurement) round(c *cluster, open []*request, seed int64) ([]*request, roundStats) {
	w := c.w
	total := len(open)
	if w.rate == 0 {
		total = w.submitters * w.roundTxns
	}
	p := newProgress(total)
	var stats runtimeStats
	if m.layers != nil {
		stats = readRuntime()
		c.startSampler(m.layers)
	}
	cpu0 := cpuNow()
	start := nowNanos()
	var reqs []*request
	if w.rate > 0 {
		reqs = open
		m.kills = append(m.kills, c.runOpen(open, p, start, &m.violations)...)
	} else {
		reqs = c.runClosed(seed, int64(len(m.reqs)), p, &m.violations)
	}
	end := nowNanos()
	cpuEnd := cpuNow()
	if m.layers != nil {
		c.stopSampler()
		m.layers.runtime.add(readRuntime().sub(stats))
	}
	m.reqs = append(m.reqs, reqs...)
	m.loadNanos += end - start
	committed := float64(committedCount(reqs))
	lat := commitLatencies(reqs)
	rs := roundStats{
		throughput: committed / (float64(end-start) / 1e9),
		cpuPerTxn:  ratio(float64((cpuEnd - cpu0).Microseconds()), committed),
		p50:        lat.pctMs(50),
		p90:        lat.pctMs(90),
		p99:        lat.pctMs(99),
	}
	if p.tenth > 0 && p.cpu10.Load() > int64(cpu0) {
		rs.growth = float64(int64(cpuEnd)-p.cpu90.Load()) / float64(p.cpu10.Load()-int64(cpu0))
	}
	return reqs, rs
}

// submit hands r to site n. With wg nil it waits for the result on the
// caller's goroutine (closed loop); otherwise a waiter goroutine does.
func (c *cluster) submit(n *node, r *request, p *progress, wg *sync.WaitGroup) {
	r.origin = n.id
	r.submitted = nowNanos()
	h := n.eng.Submit(&engine.Txn{Execute: r.body(n.refs, c.tr)})
	if c.tr != nil {
		c.tr.add(span{name: "engine.submit", start: r.submitted, end: nowNanos(), req: r.id})
	}
	if wg == nil {
		c.await(h, r, p)
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.await(h, r, p)
	}()
}

func (c *cluster) await(h *engine.Handle, r *request, p *progress) {
	<-h.Applied()
	r.applied = nowNanos()
	res := <-h.Done()
	r.done = nowNanos()
	r.committed = res.Committed
	r.abandoned = errors.Is(res.Err, engine.ErrTooManyRetries)
	p.complete()
	if c.tr != nil {
		c.tr.add(span{name: "request", start: r.due, end: r.done, req: r.id})
		c.tr.add(span{name: "engine.apply", start: r.submitted, end: r.applied, req: r.id})
		c.tr.add(span{name: "engine.confirm", start: r.applied, end: r.done, req: r.id})
	}
}

// waitAll waits for every waiter goroutine or reports the round hung.
func waitAll(wg *sync.WaitGroup, violations *[]string) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(completionTimeout):
		*violations = append(*violations, fmt.Sprintf("requests still outstanding %v after the load ended", completionTimeout))
	}
}

// runOpen submits each request when it falls due, at the site the
// request names or, in a kill workload, at one of the current
// non-primary sites.
func (c *cluster) runOpen(reqs []*request, p *progress, start int64, violations *[]string) []killRec {
	for _, r := range reqs {
		r.due += start
	}
	var kills []killRec
	killerDone := make(chan struct{})
	if c.w.kills {
		c.setTargets()
		go func() {
			defer close(killerDone)
			kills = c.killLoop(reqs[len(reqs)-1].due, violations)
		}()
	} else {
		close(killerDone)
	}
	nodes := map[vtime.SiteID]*node{}
	for _, n := range c.live() {
		nodes[n.id] = n
	}
	var wg sync.WaitGroup
	for _, r := range reqs {
		if d := r.due - nowNanos(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		n := nodes[r.origin]
		if c.w.kills {
			n = c.target(r.id)
		}
		c.submit(n, r, p, &wg)
	}
	<-killerDone
	waitAll(&wg, violations)
	return kills
}

// runClosed runs the round's submitters, each waiting for every result
// before drawing its next request.
// Request ids continue from base so they stay unique across rounds.
func (c *cluster) runClosed(seed, base int64, p *progress, violations *[]string) []*request {
	w := c.w
	nodes := map[vtime.SiteID]*node{}
	for _, n := range c.live() {
		nodes[n.id] = n
	}
	per := make([][]*request, w.submitters)
	var wg sync.WaitGroup
	for s := 0; s < w.submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(s)))
			for i := 0; i < w.roundTxns; i++ {
				r := w.gen(rng, s)
				r.id = base + int64(i*w.submitters+s+1)
				r.due = nowNanos()
				c.submit(nodes[r.origin], &r, p, nil)
				per[s] = append(per[s], &r)
			}
		}(s)
	}
	waitAll(&wg, violations)
	var out []*request
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out
}

// setTargets makes every live site except the primary of object 0 a
// writer target.
func (c *cluster) setTargets() {
	live := c.live()
	prim, _ := live[0].eng.PrimarySite(live[0].refs[0])
	c.mu.Lock()
	defer c.mu.Unlock()
	c.targets = c.targets[:0]
	for _, n := range live {
		if n.id != prim {
			c.targets = append(c.targets, n)
		}
	}
}

func (c *cluster) target(id int64) *node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.targets[int(id)%len(c.targets)]
}

// killGap is the steady traffic between a rejoin and the next kill.
const killGap = 100 * time.Millisecond

// killLoop repeatedly kills object 0's primary, times the repair (until
// every survivor names a live primary) and the rejoin of a fresh site
// that restores the replica count, until the schedule ends.
func (c *cluster) killLoop(until int64, violations *[]string) []killRec {
	var kills []killRec
	for nowNanos()+int64(killGap)+int64(time.Second) < until {
		time.Sleep(killGap)
		live := c.live()
		prim, err := live[0].eng.PrimarySite(live[0].refs[0])
		if err != nil {
			*violations = append(*violations, fmt.Sprintf("read primary: %v", err))
			return kills
		}
		k := killRec{at: nowNanos()}
		c.kill(prim)
		survivors := c.live()
		if !poll(func() bool {
			for _, n := range survivors {
				p, err := n.eng.PrimarySite(n.refs[0])
				if err != nil || p == prim || !c.alive(p) {
					return false
				}
			}
			return true
		}) {
			*violations = append(*violations, fmt.Sprintf("graph repair after killing S%d did not finish", prim))
			return kills
		}
		k.repairNanos = nowNanos() - k.at
		c.setTargets()

		joinStart := nowNanos()
		if err := c.rejoin(survivors[0]); err != nil {
			*violations = append(*violations, fmt.Sprintf("rejoin after killing S%d: %v", prim, err))
			return kills
		}
		k.rejoinNanos = nowNanos() - joinStart
		c.setTargets()
		kills = append(kills, k)
	}
	return kills
}

// rejoin starts a fresh site and joins it to object 0 through via.
func (c *cluster) rejoin(via *node) error {
	n, err := c.addSimSite()
	if err != nil {
		return err
	}
	local, err := n.eng.CreateObject(c.objs[0].kind(), "o0", c.objs[0].initial())
	if err != nil {
		return err
	}
	n.refs[0] = local
	if res := n.eng.JoinObject(local, via.id, via.refs[0].ID()).Wait(); !res.Committed {
		return fmt.Errorf("join: %v", res.Err)
	}
	return c.awaitMembers(c.w.sites, 10*time.Second)
}

func (c *cluster) alive(id vtime.SiteID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id] != nil
}

// poll checks cond every millisecond for up to ten seconds.
func poll(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// blackouts returns, per kill, the time from the kill to the first
// commit of a request due at or after it.
func blackouts(kills []killRec, reqs []*request) samples {
	var out samples
	for i, k := range kills {
		next := int64(1<<63 - 1)
		if i+1 < len(kills) {
			next = kills[i+1].at
		}
		first := int64(-1)
		for _, r := range reqs {
			if r.committed && r.due >= k.at && r.due < next && (first < 0 || r.done < first) {
				first = r.done
			}
		}
		if first >= 0 {
			out = append(out, first-k.at)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// viewLatencies adds each request's first optimistic view callback at
// its origin (local) and at every other site (remote), and the first
// pessimistic callback at every other site. Only accounts and fields
// carry the writer's id, so adds and inserts have no samples.
func (m *measurement) viewLatencies(vt *viewTracker, reqs []*request) {
	for _, r := range reqs {
		if r.kind != opRMW && r.kind != opTransfer && r.kind != opSet {
			continue
		}
		for site, seen := range vt.opt {
			if t := seen[r.id].Load(); t != 0 {
				if site == r.origin {
					m.localView = append(m.localView, t-r.due)
				} else {
					m.remoteView = append(m.remoteView, t-r.due)
				}
			}
		}
		for site, seen := range vt.pess {
			if t := seen[r.id].Load(); t != 0 && site != r.origin {
				m.pessView = append(m.pessView, t-r.due)
			}
		}
	}
}
