package main

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"decaf/internal/wire"
)

// layerAcc sums the per-layer counters read at the end of each round of
// a traced pass.
type layerAcc struct {
	sums     map[string]float64
	runtime  runtimeStats
	lags     samples
	captured []wire.Message

	mu          sync.Mutex
	notifierMax float64 // guarded by mu
	parkedMax   float64 // guarded by mu
}

func newLayerAcc() *layerAcc { return &layerAcc{sums: map[string]float64{}} }

// collect reads every site's exported counters and state at the end of
// a round, before teardown.
func (a *layerAcc) collect(c *cluster, m *measurement) {
	add := func(k string, v float64) { a.sums[k] += v }
	c.mu.Lock()
	all := append([]*node(nil), c.all...)
	c.mu.Unlock()
	for _, n := range all {
		st := n.eng.Stats()
		add("st.commits", float64(st.Commits))
		add("st.conflict_aborts", float64(st.ConflictAborts))
		add("st.retries", float64(st.Retries))
		add("st.fastpath", float64(st.FastpathCommits))
		add("st.msgs", float64(st.MessagesSent))
		add("st.opt", float64(st.OptNotifications))
		add("st.lost", float64(st.LostUpdates))
		add("st.incons", float64(st.UpdateInconsistencies))
		add("st.dropped", float64(st.NotifyDropped))
		add("st.ballots", float64(st.RepairBallots))
		add("st.quorum_failures", float64(st.RepairQuorumFailures))
		reg := n.eng.Observer().Metrics()
		for _, k := range []string{"decaf_engine_batches_total", "decaf_engine_batch_events_total",
			"decaf_engine_sharded_writes_total", "decaf_engine_serial_writes_total"} {
			v, _ := reg.Value(k)
			add(k, v)
		}
		if n.tcp != nil {
			ts := n.tcp.Stats()
			add("tcp.retransmits", float64(ts.Retransmits))
			add("tcp.drops", float64(ts.SendQueueDrops+ts.MessagesDropped))
		}
		if n.log != nil {
			ws := n.walEnd
			if c.alive(n.id) {
				ws = n.log.Stats()
				add("wal.bytes_end", float64(ws.Bytes))
				add("wal.segments_end", float64(ws.Segments))
			}
			add("wal.records", float64(ws.Records))
			add("wal.bytes", float64(ws.Bytes))
			add("wal.syncs", float64(ws.Syncs))
		}
	}
	for _, n := range c.live() {
		if eng, ok := n.eng.Observer().State()["engine"].(map[string]any); ok {
			if byStatus, ok := eng["txns_by_status"].(map[string]int); ok {
				for _, v := range byStatus {
					add("txns_end", float64(v))
				}
			}
			if v, ok := eng["outcomes_retained"].(int); ok {
				add("outcomes_end", float64(v))
			}
			if res, ok := eng["reservations"].(map[string]int); ok {
				for _, v := range res {
					add("reservations_end", float64(v))
				}
			}
		}
		for _, ref := range n.refs {
			if d, err := n.eng.DescribeVersions(ref); err == nil {
				add("versions_end", float64(strings.Count(d, "\n  vt=")))
			}
		}
	}
	add("tap.sends", float64(c.tap.sends.Load()))
	add("tap.msgs", float64(c.tap.msgs.Load()))
	add("tap.send_ns", float64(c.tap.sendNanos.Load()))
	c.tap.mu.Lock()
	a.lags = append(a.lags, c.tap.lags...)
	if room := maxCaptured - len(a.captured); room > 0 {
		a.captured = append(a.captured, c.tap.captured[:min(room, len(c.tap.captured))]...)
	}
	c.tap.mu.Unlock()
}

// sampler polls queue-depth gauges while a traced round runs.
type sampler struct {
	stop chan struct{}
	done chan struct{}
}

const samplePeriod = 2 * time.Millisecond

func (c *cluster) startSampler(a *layerAcc) {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	c.sampler = s
	go func() {
		defer close(s.done)
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			for _, n := range c.live() {
				reg := n.eng.Observer().Metrics()
				depth, _ := reg.Value("decaf_engine_notifier_queue_depth")
				parked, _ := reg.Value("decaf_engine_parked_retries")
				a.mu.Lock()
				a.notifierMax = max(a.notifierMax, depth)
				a.parkedMax = max(a.parkedMax, parked)
				a.mu.Unlock()
			}
		}
	}()
}

func (c *cluster) stopSampler() {
	close(c.sampler.stop)
	<-c.sampler.done
}

// runtimeStats are cumulative Go runtime counters.
type runtimeStats struct {
	allocs, allocBytes, gcCycles float64
	pauseNanos                   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() runtimeStats {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		allocs:     float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
		gcCycles:   float64(s[2].Value.Uint64()),
		pauseNanos: float64(ms.PauseTotalNs),
	}
}

func (r runtimeStats) sub(o runtimeStats) runtimeStats {
	return runtimeStats{r.allocs - o.allocs, r.allocBytes - o.allocBytes, r.gcCycles - o.gcCycles, r.pauseNanos - o.pauseNanos}
}

func (r *runtimeStats) add(o runtimeStats) {
	r.allocs += o.allocs
	r.allocBytes += o.allocBytes
	r.gcCycles += o.gcCycles
	r.pauseNanos += o.pauseNanos
}

// wireCosts re-encodes and decodes the captured message mix, repeating
// it until at least minWire has been spent encoding, and returns the
// mean encode and decode nanoseconds and encoded bytes per message.
func wireCosts(msgs []wire.Message) (encNs, decNs, bytesPer float64) {
	const minWire = 50 * time.Millisecond
	if len(msgs) == 0 {
		return 0, 0, 0
	}
	encoded := make([][]byte, len(msgs))
	var total int
	for i, m := range msgs {
		b, err := wire.EncodeMessage(m)
		if err != nil {
			continue
		}
		encoded[i] = b
		total += len(b)
	}
	var encN, decN int
	var encT, decT time.Duration
	buf := make([]byte, 0, 4096)
	for encT < minWire {
		start := time.Now()
		for _, m := range msgs {
			buf, _ = wire.AppendMessage(buf[:0], m)
		}
		encT += time.Since(start)
		encN += len(msgs)
	}
	for decT < minWire {
		start := time.Now()
		for _, b := range encoded {
			if b != nil {
				_, _, _ = wire.DecodeMessage(b)
			}
		}
		decT += time.Since(start)
		decN += len(encoded)
	}
	return float64(encT.Nanoseconds()) / float64(encN), float64(decT.Nanoseconds()) / float64(decN),
		float64(total) / float64(len(msgs))
}
