package main

import (
	"math/rand"
	"time"

	"decaf/internal/vtime"
)

// workload is one named traffic mix. The reasons for each are recorded
// in README.md next to the baseline they produced.
type workload struct {
	name    string
	sites   int
	latency time.Duration // injected one-way latency t
	tcp     bool          // loopback TCP instead of the simulated network
	wal     bool          // every site logs to a SyncBatch WAL on disk
	views   bool          // one optimistic and one pessimistic view per site
	kills   bool          // repeatedly kill the primary and rejoin a fresh site

	// Open loops submit rate requests per second on a fixed schedule for
	// the whole window. Closed loops run rounds of roundTxns
	// transactions per submitter, each submitter waiting for every
	// result before its next request, on a fresh cluster per round.
	rate       float64
	submitters int
	roundTxns  int

	objects func() []objSpec
	// gen draws the next request; sub is the closed-loop submitter
	// index (open loops pass 0). Open loops with kills pick the origin
	// at submit time.
	gen func(rng *rand.Rand, sub int) request
}

const paperT = 5 * time.Millisecond

var workloads = map[string]*workload{
	"interactive": interactive(),
	"sustained":   sustained(),
	"tcp":         tcpLoad(),
	"failover":    failover(),
}

// interactive: four sites at t = 5 ms, views everywhere, an open loop
// well below capacity, so latency is set by message rounds.
func interactive() *workload {
	const nAcc, nField, nCtr, nList = 8, 8, 4, 2
	site := func(i int) vtime.SiteID { return vtime.SiteID(i%4 + 1) }
	return &workload{
		name: "interactive", sites: 4, latency: paperT, views: true, rate: 60,
		objects: func() []objSpec {
			var o []objSpec
			for i := 0; i < nAcc; i++ {
				o = append(o, objSpec{class: account, primary: site(i), viewed: true})
			}
			for i := 0; i < nField; i++ {
				o = append(o, objSpec{class: field, primary: site(i), viewed: true})
			}
			for i := 0; i < nCtr; i++ {
				o = append(o, objSpec{class: counter, primary: site(i), viewed: true})
			}
			// Lists stay out of the views: a view materializes the
			// whole list on every notification, a cost that grows with
			// the run rather than with the system.
			for i := 0; i < nList; i++ {
				o = append(o, objSpec{class: list, primary: site(i)})
			}
			return o
		},
		gen: func(rng *rand.Rand, _ int) request {
			origin := vtime.SiteID(1 + rng.Intn(4))
			r := request{origin: origin, kind: pickKind(rng, [5]float64{0.35, 0.15, 0.25, 0.20, 0.05}), delta: 1 + rng.Int63n(9)}
			switch r.kind {
			case opRMW: // an account whose primary is remote: 2t
				var remote []int
				for i := 0; i < nAcc; i++ {
					if site(i) != origin {
						remote = append(remote, i)
					}
				}
				r.a = remote[skewed(rng, len(remote))]
			case opTransfer: // primaries on two other sites: 3t remote
				others := make([]int, 0, 3)
				for s := 0; s < 4; s++ {
					if site(s) != origin {
						others = append(others, s)
					}
				}
				rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
				r.a = others[0] + 4*rng.Intn(2)
				r.b = others[1] + 4*rng.Intn(2)
			case opSet:
				r.a = nAcc + skewed(rng, nField)
			case opAdd:
				r.a = nAcc + nField + rng.Intn(nCtr)
			case opInsert:
				r.a = nAcc + nField + nCtr + rng.Intn(nList)
			}
			return r
		},
	}
}

// sustained: two sites, no latency, no views, two closed-loop
// submitters over disjoint objects; CPU-bound in engine and history.
func sustained() *workload {
	const per = 7 // objects per submitter: 1 account, 4 fields, 2 counters
	const hot = 2 * per
	return &workload{
		name: "sustained", sites: 2, submitters: 2, roundTxns: 30000,
		objects: func() []objSpec {
			var o []objSpec
			for s := vtime.SiteID(1); s <= 2; s++ {
				other := 3 - s
				o = append(o, objSpec{class: account, primary: s})
				for i := 0; i < 4; i++ {
					o = append(o, objSpec{class: field, primary: other})
				}
				for i := 0; i < 2; i++ {
					o = append(o, objSpec{class: counter, primary: s})
				}
			}
			return append(o, objSpec{class: counter, primary: 1})
		},
		gen: func(rng *rand.Rand, sub int) request {
			base := sub * per
			r := request{origin: vtime.SiteID(sub + 1), kind: pickKind(rng, [5]float64{0.4, 0, 0.3, 0.3, 0}), delta: 1 + rng.Int63n(9)}
			switch r.kind {
			case opRMW: // origin-primary
				r.a = base
			case opSet: // remote-primary
				r.a = base + 1 + rng.Intn(4)
			default:
				r.a = base + 5 + rng.Intn(2)
				if rng.Intn(3) == 0 {
					r.a = hot
				}
			}
			return r
		},
	}
}

// tcpLoad: two sites over loopback TCP; both closed-loop submitters run
// at the non-primary site, so every guessed transaction crosses the wire.
func tcpLoad() *workload {
	const nAcc, nField, nCtr = 8, 8, 4
	return &workload{
		name: "tcp", sites: 2, tcp: true, submitters: 2, roundTxns: 12000,
		objects: func() []objSpec {
			var o []objSpec
			for i := 0; i < nAcc; i++ {
				o = append(o, objSpec{class: account, primary: 1})
			}
			for i := 0; i < nField; i++ {
				o = append(o, objSpec{class: field, primary: 1})
			}
			for i := 0; i < nCtr; i++ {
				o = append(o, objSpec{class: counter, primary: 1})
			}
			return o
		},
		gen: func(rng *rand.Rand, _ int) request {
			r := request{origin: 2, kind: pickKind(rng, [5]float64{0.4, 0, 0.3, 0.3, 0}), delta: 1 + rng.Int63n(9)}
			switch r.kind {
			case opRMW:
				r.a = rng.Intn(nAcc)
			case opSet:
				r.a = nAcc + rng.Intn(nField)
			default:
				r.a = nAcc + nField + rng.Intn(nCtr)
			}
			return r
		},
	}
}

// failover: three WAL-backed replicas of one account at t = 5 ms; an
// open-loop writer at the non-primary sites while the benchmark kills
// the primary, waits for repair, and joins a fresh site, over and over.
func failover() *workload {
	return &workload{
		name: "failover", sites: 3, latency: paperT, wal: true, kills: true, rate: 200,
		objects: func() []objSpec { return []objSpec{{class: account, primary: 1}} },
		gen: func(rng *rand.Rand, _ int) request {
			return request{kind: opRMW, delta: 1 + rng.Int63n(9)}
		},
	}
}
