package main

import (
	"fmt"
)

// gatedEndToEnd are the end-to-end metrics that make up the JSON line of
// an untraced run (BENCHMARK.json end_to_end): those every workload
// measures with a run-to-run spread well inside its bound on a shared
// 2-vCPU machine. The rest are printed but not gated (README.md says
// why): throughput_txn_s and commit_p99_ms follow scheduling stalls on
// the closed loops, cost_growth varies with timing-dependent view work
// on the open loop, and the view, blackout and failure metrics exist on
// some workloads only.
var gatedEndToEnd = []string{
	"setup_s", "cpu_us_per_txn", "heap_mb", "commit_p50_ms", "commit_p90_ms",
}

// gatedPerLayer make up the JSON line of a traced run (BENCHMARK.json
// per_layer): every per-layer metric that every workload can report,
// as a count that is zero where the layer is unused. The kill-only
// timings (failover.repair_ms, failover.rejoin_ms) are printed on
// failover only.
var gatedPerLayer = []string{
	"engine.submit_us", "engine.body_us", "engine.apply_ms", "engine.confirm_ms",
	"engine.executions_per_commit", "engine.commit_ratio", "engine.retries_per_commit",
	"engine.fastpath_share", "engine.events_per_batch", "engine.sharded_write_share",
	"engine.msgs_per_commit", "engine.txn_table_end", "engine.outcomes_retained_end",
	"history.versions_end", "history.reservations_end",
	"views.opt_per_commit", "views.lost_update_ratio", "views.inconsistency_ratio",
	"views.notifier_depth_max", "views.dropped",
	"transport.send_us", "transport.msgs_per_send", "transport.sends_per_commit",
	"transport.bytes_per_commit", "transport.delivery_lag_ms", "transport.retransmits", "transport.drops",
	"wire.encode_ns_per_msg", "wire.decode_ns_per_msg", "wire.bytes_per_msg",
	"wal.records_per_commit", "wal.bytes_per_commit", "wal.syncs_per_commit", "wal.bytes_end", "wal.segments_end",
	"consensus.ballots_per_repair", "consensus.quorum_failures", "failover.parked_retries_max",
	"runtime.allocs_per_commit", "runtime.alloc_bytes_per_commit", "runtime.gc_cycles", "runtime.gc_pause_total_ms",
	"gen.late_p99_ms",
}

func committedCount(reqs []*request) int {
	n := 0
	for _, r := range reqs {
		if r.committed {
			n++
		}
	}
	return n
}

// commitLatencies returns due → committed for every committed request.
func commitLatencies(reqs []*request) samples {
	var s samples
	for _, r := range reqs {
		if r.committed {
			s = append(s, r.done-r.due)
		}
	}
	return s
}

// endToEnd computes the user-facing metrics of a pass.
func endToEnd(m *measurement) []metric {
	committed := committedCount(m.reqs)
	over := func(f func(roundStats) float64) float64 {
		v := make([]float64, len(m.rounds))
		for i, r := range m.rounds {
			v[i] = f(r)
		}
		return medianF(v)
	}
	rounds := fmt.Sprintf("median of %d rounds", len(m.rounds))
	perRound := committed / max(len(m.rounds), 1)
	out := []metric{
		{name: "setup_s", value: medianF(m.setups), unit: "s", n: len(m.setups), note: "median"},
		{name: "throughput_txn_s", value: over(func(r roundStats) float64 { return r.throughput }), unit: "txn/s", n: committed, note: rounds},
		{name: "cpu_us_per_txn", value: over(func(r roundStats) float64 { return r.cpuPerTxn }), unit: "us", n: committed, note: rounds},
		{name: "cost_growth", value: over(func(r roundStats) float64 { return r.growth }), unit: "ratio", n: committed, note: "last/first tenth of a round, " + rounds},
		{name: "heap_mb", value: over(func(r roundStats) float64 { return r.heapMB }), unit: "MB", n: len(m.rounds), note: "live after forced GC, " + rounds},
		{name: "commit_p50_ms", value: over(func(r roundStats) float64 { return r.p50 }), unit: "ms", n: committed, note: rounds},
		{name: "commit_p90_ms", value: over(func(r roundStats) float64 { return r.p90 }), unit: "ms", n: committed, note: rounds},
		{name: "commit_p99_ms", value: over(func(r roundStats) float64 { return r.p99 }), unit: "ms", n: committed,
			note: fmt.Sprintf("%d beyond per round, %s", perRound/100, rounds)},
	}
	if m.w.views {
		out = append(out,
			metric{name: "local_view_p50_ms", value: m.localView.pctMs(50), unit: "ms", n: len(m.localView)},
			metric{name: "remote_view_p50_ms", value: m.remoteView.pctMs(50), unit: "ms", n: len(m.remoteView), note: "model t = 5 ms"},
			metric{name: "remote_view_p99_ms", value: m.remoteView.pctMs(99), unit: "ms", n: len(m.remoteView)},
			metric{name: "remote_commit_view_p50_ms", value: m.pessView.pctMs(50), unit: "ms", n: len(m.pessView), note: "model <= 3t = 15 ms"},
			metric{name: "remote_commit_view_p99_ms", value: m.pessView.pctMs(99), unit: "ms", n: len(m.pessView)},
		)
	}
	if m.w.kills {
		b := blackouts(m.kills, m.reqs)
		p := tailPct(len(b))
		out = append(out,
			metric{name: "blackout_p50_ms", value: b.pctMs(50), unit: "ms", n: len(b)},
			metric{name: "blackout_tail_ms", value: b.pctMs(p), unit: "ms", n: len(b), note: fmt.Sprintf("p%g", p)},
		)
	}
	out = append(out, metric{name: "failed_ratio", value: ratio(float64(len(m.reqs)-committed), float64(len(m.reqs))),
		unit: "ratio", n: len(m.reqs), note: "of attempted"})
	return out
}

// perLayer computes the layer metrics of a traced pass.
func perLayer(m *measurement, tr *tracer) []metric {
	a := m.layers
	s := a.sums
	commits := float64(committedCount(m.reqs))
	per := func(name, key, unit string) metric {
		return metric{name: name, value: ratio(s[key], commits), unit: unit, note: fmt.Sprintf("(%g / %g commits)", s[key], commits)}
	}
	share := func(name string, num, den float64) metric {
		return metric{name: name, value: ratio(num, den), unit: "ratio", note: fmt.Sprintf("(%g / %g)", num, den)}
	}
	count := func(name string, v float64) metric { return metric{name: name, value: v, unit: "count"} }

	var submit, ops samples
	opsByExec := map[int64]int64{}
	for _, sp := range tr.spans {
		switch sp.name {
		case "engine.submit":
			submit = append(submit, sp.end-sp.start)
		case "engine.op":
			opsByExec[int64(sp.parent)] += sp.end - sp.start
		}
	}
	for _, d := range opsByExec {
		ops = append(ops, d)
	}
	var apply, confirm, late samples
	var execs float64
	for _, r := range m.reqs {
		execs += float64(r.execs)
		late = append(late, r.submitted-r.due)
		if r.committed {
			apply = append(apply, r.applied-r.submitted)
			confirm = append(confirm, r.done-r.applied)
		}
	}
	encNs, decNs, bytesPer := wireCosts(a.captured)
	st := func(k string) float64 { return s["st."+k] }
	out := []metric{
		{name: "engine.submit_us", value: submit.pctMs(50) * 1e3, unit: "us", n: len(submit), note: "p50 time in Submit"},
		{name: "engine.body_us", value: ops.pctMs(50) * 1e3, unit: "us", n: len(ops), note: "p50 per execution in Tx calls"},
		{name: "engine.apply_ms", value: apply.pctMs(50), unit: "ms", n: len(apply), note: "p50 submit->applied"},
		{name: "engine.confirm_ms", value: confirm.pctMs(50), unit: "ms", n: len(confirm), note: "p50 applied->done"},
		{name: "engine.executions_per_commit", value: ratio(execs, commits), unit: "ratio", note: fmt.Sprintf("(%g / %g commits)", execs, commits)},
		share("engine.commit_ratio", st("commits"), st("commits")+st("conflict_aborts")),
		share("engine.retries_per_commit", st("retries"), st("commits")),
		share("engine.fastpath_share", st("fastpath"), st("commits")),
		share("engine.events_per_batch", s["decaf_engine_batch_events_total"], s["decaf_engine_batches_total"]),
		share("engine.sharded_write_share", s["decaf_engine_sharded_writes_total"],
			s["decaf_engine_sharded_writes_total"]+s["decaf_engine_serial_writes_total"]),
		per("engine.msgs_per_commit", "st.msgs", "ratio"),
		count("engine.txn_table_end", s["txns_end"]),
		count("engine.outcomes_retained_end", s["outcomes_end"]),
		count("history.versions_end", s["versions_end"]),
		count("history.reservations_end", s["reservations_end"]),
		per("views.opt_per_commit", "st.opt", "ratio"),
		share("views.lost_update_ratio", st("lost"), st("opt")),
		share("views.inconsistency_ratio", st("incons"), st("opt")),
		count("views.notifier_depth_max", a.notifierMax),
		count("views.dropped", st("dropped")),
		{name: "transport.send_us", value: ratio(s["tap.send_ns"], s["tap.sends"]) / 1e3, unit: "us", n: int(s["tap.sends"]), note: "mean per send call"},
		share("transport.msgs_per_send", s["tap.msgs"], s["tap.sends"]),
		per("transport.sends_per_commit", "tap.sends", "ratio"),
		{name: "transport.bytes_per_commit", value: ratio(s["tap.msgs"]*bytesPer, commits), unit: "B", note: "messages x encoded bytes per message"},
		{name: "transport.delivery_lag_ms", value: a.lags.pctMs(50), unit: "ms", n: len(a.lags), note: "p50 beyond injected t"},
		count("transport.retransmits", s["tcp.retransmits"]),
		count("transport.drops", s["tcp.drops"]),
		{name: "wire.encode_ns_per_msg", value: encNs, unit: "ns", n: len(a.captured)},
		{name: "wire.decode_ns_per_msg", value: decNs, unit: "ns", n: len(a.captured)},
		{name: "wire.bytes_per_msg", value: bytesPer, unit: "B", n: len(a.captured)},
		per("wal.records_per_commit", "wal.records", "ratio"),
		per("wal.bytes_per_commit", "wal.bytes", "B"),
		per("wal.syncs_per_commit", "wal.syncs", "ratio"),
		{name: "wal.bytes_end", value: s["wal.bytes_end"], unit: "B"},
		count("wal.segments_end", s["wal.segments_end"]),
		share("consensus.ballots_per_repair", st("ballots"), float64(len(m.kills))),
		count("consensus.quorum_failures", st("quorum_failures")),
		count("failover.parked_retries_max", a.parkedMax),
		{name: "runtime.allocs_per_commit", value: ratio(a.runtime.allocs, commits), unit: "count", note: fmt.Sprintf("(%g / %g commits)", a.runtime.allocs, commits)},
		{name: "runtime.alloc_bytes_per_commit", value: ratio(a.runtime.allocBytes, commits), unit: "B", note: fmt.Sprintf("(%g / %g commits)", a.runtime.allocBytes, commits)},
		count("runtime.gc_cycles", a.runtime.gcCycles),
		{name: "runtime.gc_pause_total_ms", value: a.runtime.pauseNanos / 1e6, unit: "ms"},
		{name: "gen.late_p99_ms", value: late.pctMs(99), unit: "ms", n: len(late), note: "submit behind schedule"},
	}
	if m.w.kills {
		var repair, rejoin samples
		for _, k := range m.kills {
			repair = append(repair, k.repairNanos)
			rejoin = append(rejoin, k.rejoinNanos)
		}
		out = append(out,
			metric{name: "failover.repair_ms", value: repair.pctMs(50), unit: "ms", n: len(repair), note: "p50 kill->every survivor names a live primary"},
			metric{name: "failover.rejoin_ms", value: rejoin.pctMs(50), unit: "ms", n: len(rejoin), note: "p50 fresh site join->3 members"},
		)
	}
	return out
}
