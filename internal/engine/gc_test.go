package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// Garbage-collection behaviour (paper §3: "Histories are garbage-collected
// as transactions commit").

func TestHistoriesStayBoundedUnderSustainedLoad(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	const writes = 200
	for k := 1; k <= writes; k++ {
		if res := h.setInt(2, refs[2], int64(k)); !res.Committed {
			t.Fatalf("write %d: %+v", k, res)
		}
	}
	// Let the trailing outcomes land.
	h.eventually(3*time.Second, "convergence", func() bool {
		return h.committedInt(1, refs[1]) == writes
	})

	for _, i := range []int{1, 2} {
		var histLen, resLen int
		_ = h.site(i).call(func() {
			histLen = refs[i].o.hist.Len()
			resLen = refs[i].o.res.Len()
		})
		if histLen > 8 {
			t.Errorf("site %d history grew to %d versions after %d committed writes", i, histLen, writes)
		}
		if resLen > 16 {
			t.Errorf("site %d reservations grew to %d", i, resLen)
		}
	}
}

func TestDisableGCRetainsHistory(t *testing.T) {
	h := newHarnessOpts(t, 1, transport.Config{}, Options{DisableGC: true})
	ref, _ := h.site(1).CreateObject(KindInt, "x", int64(0))
	const writes = 20
	for k := 1; k <= writes; k++ {
		if res := h.setInt(1, ref, int64(k)); !res.Committed {
			t.Fatal("write failed")
		}
	}
	var histLen int
	_ = h.site(1).call(func() { histLen = ref.o.hist.Len() })
	if histLen != writes+1 { // initial version + every write
		t.Fatalf("history = %d versions, want %d", histLen, writes+1)
	}
}

func TestGCPreservesOutstandingSnapshotReads(t *testing.T) {
	// An attached pessimistic view holds the GC floor down so its
	// snapshots can still read; committed values it has not yet consumed
	// are never pruned out from under it.
	h := newHarness(t, 2, transport.Config{Latency: 2 * time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	rec := &recorder{}
	if _, err := h.site(1).AttachView([]ObjRef{refs[1]}, Pessimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 10; k++ {
		if res := h.setInt(2, refs[2], int64(k)); !res.Committed {
			t.Fatal("write failed")
		}
	}
	// Lossless delivery despite concurrent GC.
	h.eventually(3*time.Second, "all values notified", func() bool {
		ups, _ := rec.snapshot()
		seen := map[int64]bool{}
		for _, u := range ups {
			if v, ok := u.Values[refs[1].ID()].(int64); ok {
				seen[v] = true
			}
		}
		for k := int64(1); k <= 10; k++ {
			if !seen[k] {
				return false
			}
		}
		return true
	})
}

func TestOutcomeTableDrivesLateUpdates(t *testing.T) {
	// Outcomes are retained so update messages arriving after the summary
	// COMMIT are applied as committed (paper §3.1). Force the ordering
	// with a delegated commit whose COMMIT beats the WRITE to a third
	// site.
	h := newHarness(t, 3, transport.Config{LatencyFn: func(from, to vtime.SiteID) time.Duration {
		if from == 2 && to == 3 {
			return 30 * time.Millisecond // the WRITE dawdles
		}
		return time.Millisecond
	}})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	// Origin site 2; single remote primary site 1 (delegation): site 1
	// sends COMMIT to site 3 quickly while site 2's WRITE to site 3 is
	// slow — the outcome arrives first.
	if res := h.setInt(2, refs[2], 77); !res.Committed {
		t.Fatalf("write: %+v", res)
	}
	h.eventually(2*time.Second, "late update applied as committed", func() bool {
		return h.committedInt(3, refs[3]) == 77
	})
}

// TestOriginGCRespectsPeerFloor pins the lost update that garbage
// collection at an origin primary causes when its floor ignores peers.
// Site 1 is primary of x and commits read-modify-writes of it locally
// while its messages to site 2 are held up. Site 2's clock lags and it
// has seen none of them, so its own read-modify-write gets a VT inside
// the interval site 1's first update reserved. That reservation must
// still be there to deny the write (NC); pruned on a local-only floor it
// is gone, the write commits beneath site 1's versions, and its delta is
// lost.
func TestOriginGCRespectsPeerFloor(t *testing.T) {
	var hold atomic.Bool
	h := newHarness(t, 2, transport.Config{LatencyFn: func(from, to vtime.SiteID) time.Duration {
		if from == 1 && to == 2 && hold.Load() {
			return 300 * time.Millisecond
		}
		return time.Millisecond
	}})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)
	clk, err := h.site(1).CreateObject(KindInt, "clock", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	hold.Store(true)

	// Run site 1's clock ahead with local-only work site 2 never hears of.
	for k := 1; k <= 20; k++ {
		if res := h.setInt(1, clk, int64(k)); !res.Committed {
			t.Fatalf("local write %d: %+v", k, res)
		}
	}
	add := func(i int, delta int64) *Handle {
		return h.site(i).Submit(&Txn{Name: "rmw", Execute: func(tx *Tx) error {
			v, err := tx.Read(refs[i])
			if err != nil {
				return err
			}
			return tx.Write(refs[i], v.(int64)+delta)
		}})
	}
	const rmws = 30
	want := int64(0)
	for k := 1; k <= rmws; k++ {
		if res := add(1, int64(k)).Wait(); !res.Committed || res.Retries != 0 {
			t.Fatalf("origin-primary RMW %d: %+v", k, res)
		}
		want += int64(k)
	}

	res := add(2, 1000).Wait()
	want += 1000
	if !res.Committed {
		t.Fatalf("site 2 RMW: %+v", res)
	}
	if res.Retries == 0 {
		t.Fatal("site 2's stale RMW was confirmed on its first attempt; the primary must deny it (NC) so it re-reads")
	}
	h.eventually(5*time.Second, "both replicas hold the sum of every delta", func() bool {
		return h.committedInt(1, refs[1]) == want && h.committedInt(2, refs[2]) == want
	})
}

// TestOriginStateBoundedLongRun drives a long mixed run on two sites —
// origin-primary read-modify-writes, sets of an object whose primary is
// the other site, and fast-path adds — and checks that the reservation,
// version and transaction-table counts stay bounded: each site prunes
// its own primary state as it commits, not only when peers' outcomes
// arrive.
func TestOriginStateBoundedLongRun(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	acct := map[int]map[int]ObjRef{
		1: h.joined(KindInt, "acct1", int64(0), 1, 2),
		2: h.joined(KindInt, "acct2", int64(0), 2, 1),
	}
	ctr := h.joined(KindInt, "ctr", int64(0), 1, 2)

	const perSite = 20000
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, i := range []int{1, 2} {
		other := 3 - i
		wg.Add(1)
		go func() {
			defer wg.Done()
			own, remote := acct[i][i], acct[other][i]
			for k := 0; k < perSite; k++ {
				var txn *Txn
				switch k % 3 {
				case 0:
					txn = &Txn{Name: "rmw", Execute: func(tx *Tx) error {
						v, err := tx.Read(own)
						if err != nil {
							return err
						}
						return tx.Write(own, v.(int64)+1)
					}}
				case 1:
					txn = &Txn{Name: "set", Execute: func(tx *Tx) error { return tx.Write(remote, int64(k)) }}
				default:
					txn = &Txn{Name: "add", Execute: func(tx *Tx) error { return tx.Add(ctr[i], int64(1)) }}
				}
				if res := h.site(i).Submit(txn).Wait(); !res.Committed {
					errs <- fmt.Errorf("site %d txn %d: %+v", i, k, res)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	adds := int64(2 * ((perSite + 0) / 3))
	h.eventually(5*time.Second, "counter converged", func() bool {
		return h.committedInt(1, ctr[1]) == adds && h.committedInt(2, ctr[2]) == adds
	})

	const maxVersions, maxReservations, maxTxns = 64, 64, 256
	for _, i := range []int{1, 2} {
		sz := h.site(i).StateSizes()
		t.Logf("site %d: %+v", i, sz)
		if sz.MaxVersions > maxVersions || sz.MaxReservations > maxReservations || sz.Txns > maxTxns {
			t.Errorf("site %d state after %d txns per site: %+v (bounds: %d versions, %d reservations, %d txns)",
				i, perSite, sz, maxVersions, maxReservations, maxTxns)
		}
	}
}
