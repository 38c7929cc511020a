package history

import (
	"fmt"
	"math/rand"
	"testing"

	"decaf/internal/vtime"
)

func rvt(time uint64, site vtime.SiteID) vtime.VT { return vtime.VT{Time: time, Site: site} }

func riv(lo, hi vtime.VT) vtime.Interval { return vtime.Interval{Lo: lo, Hi: hi} }

func TestReserveIgnoresEmptyIntervals(t *testing.T) {
	var r Reservations
	owner := rvt(5, 1)
	r.Reserve(riv(rvt(3, 1), rvt(3, 1)), owner) // Lo == Hi: a blind write's (tT, tT]
	r.Reserve(riv(rvt(4, 1), rvt(2, 1)), owner) // inverted
	if r.Len() != 0 {
		t.Fatalf("empty intervals reserved: Len = %d", r.Len())
	}
}

func TestConflictsEndpoints(t *testing.T) {
	var r Reservations
	owner := rvt(10, 1)
	writer := rvt(9, 2)
	lo, hi := rvt(3, 1), rvt(8, 1)
	r.Reserve(riv(lo, hi), owner)

	// The interval is half-open (Lo, Hi]: Lo itself is outside, Hi inside.
	if r.Conflicts(lo, writer) {
		t.Error("write at exclusive Lo endpoint conflicted")
	}
	if !r.Conflicts(hi, writer) {
		t.Error("write at inclusive Hi endpoint did not conflict")
	}
	// The site tie-break is part of the order: (3,1) < (3,2) <= (8,1).
	if !r.Conflicts(rvt(3, 2), writer) {
		t.Error("write just above Lo (by site tie-break) did not conflict")
	}
	if r.Conflicts(rvt(8, 2), writer) {
		t.Error("write just above Hi (by site tie-break) conflicted")
	}
}

func TestConflictsOwnerExempt(t *testing.T) {
	var r Reservations
	owner := rvt(10, 1)
	r.Reserve(riv(rvt(3, 1), rvt(8, 1)), owner)
	if r.Conflicts(rvt(5, 1), owner) {
		t.Error("a transaction conflicted with its own reservation")
	}
	if !r.Conflicts(rvt(5, 1), rvt(10, 2)) {
		t.Error("a different writer did not conflict")
	}
}

func TestAdjacentIntervals(t *testing.T) {
	var r Reservations
	a, b, c := rvt(2, 1), rvt(5, 1), rvt(9, 1)
	first, second := rvt(20, 1), rvt(21, 2)
	r.Reserve(riv(a, b), first)
	r.Reserve(riv(b, c), second) // adjacent: (a,b] then (b,c]
	writer := rvt(30, 3)

	// The shared endpoint b belongs to the first interval only, so a
	// writer at b conflicts even if it owns the second reservation.
	if !r.Conflicts(b, second) {
		t.Error("write at shared endpoint did not conflict with the first interval")
	}
	if r.Conflicts(b, first) {
		t.Error("first owner conflicted at its own Hi endpoint")
	}
	if !r.Conflicts(rvt(5, 2), writer) || !r.Conflicts(c, writer) {
		t.Error("interior of second interval did not conflict")
	}
}

func TestOverlappingIntervals(t *testing.T) {
	var r Reservations
	first, second := rvt(20, 1), rvt(21, 2)
	r.Reserve(riv(rvt(2, 1), rvt(6, 1)), first)
	r.Reserve(riv(rvt(4, 1), rvt(9, 1)), second)

	// In the overlap, each owner still conflicts with the other's
	// reservation: owning one of the two is not enough.
	if !r.Conflicts(rvt(5, 1), first) {
		t.Error("first owner did not conflict with second's overlapping reservation")
	}
	if !r.Conflicts(rvt(5, 1), second) {
		t.Error("second owner did not conflict with first's overlapping reservation")
	}
}

func TestRelease(t *testing.T) {
	var r Reservations
	keep, drop := rvt(20, 1), rvt(21, 2)
	r.Reserve(riv(rvt(1, 1), rvt(3, 1)), drop)
	r.Reserve(riv(rvt(2, 1), rvt(5, 1)), keep)
	r.Reserve(riv(rvt(4, 1), rvt(7, 1)), drop)

	if got := r.Release(drop); got != 2 {
		t.Fatalf("Release removed %d, want 2", got)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d after release, want 1", r.Len())
	}
	if r.Conflicts(rvt(6, 1), rvt(30, 3)) {
		t.Error("released reservation still conflicts")
	}
	if !r.Conflicts(rvt(4, 1), rvt(30, 3)) {
		t.Error("surviving reservation no longer conflicts")
	}
	if got := r.Release(drop); got != 0 {
		t.Errorf("second Release removed %d, want 0", got)
	}
}

func TestGCBelowBoundary(t *testing.T) {
	var r Reservations
	owner := rvt(20, 1)
	floor := rvt(5, 1)
	r.Reserve(riv(rvt(1, 1), rvt(5, 1)), owner)      // Hi == floor: collectable
	r.Reserve(riv(rvt(1, 1), rvt(5, 2)), owner)      // Hi just above floor (site tie-break): kept
	r.Reserve(riv(rvt(3, 1), rvt(9, 1)), rvt(21, 2)) // Hi well above: kept

	if got := r.GCBelow(floor); got != 1 {
		t.Fatalf("GCBelow removed %d, want 1", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d after GC, want 2", r.Len())
	}
	for _, res := range r.All() {
		if res.Interval.Hi.LessEq(floor) {
			t.Errorf("reservation with Hi %v survived GC below %v", res.Interval.Hi, floor)
		}
	}
}

// TestReserveKeepsSortedOrder checks the (Hi, Owner) insertion order that
// GCBelow's sequential scan and the table's determinism rely on.
func TestReserveKeepsSortedOrder(t *testing.T) {
	var r Reservations
	// Insert out of order, including two reservations with the same Hi.
	r.Reserve(riv(rvt(1, 1), rvt(9, 1)), rvt(22, 3))
	r.Reserve(riv(rvt(1, 1), rvt(4, 1)), rvt(20, 1))
	r.Reserve(riv(rvt(1, 1), rvt(9, 1)), rvt(21, 2))
	r.Reserve(riv(rvt(1, 1), rvt(6, 1)), rvt(23, 1))

	all := r.All()
	for i := 1; i < len(all); i++ {
		prev, cur := all[i-1], all[i]
		if cur.Interval.Hi.Less(prev.Interval.Hi) {
			t.Fatalf("reservations out of Hi order at %d: %v after %v", i, cur, prev)
		}
		if cur.Interval.Hi == prev.Interval.Hi && cur.Owner.Less(prev.Owner) {
			t.Fatalf("same-Hi reservations out of Owner order at %d: %v after %v", i, cur, prev)
		}
	}
}

// linearConflicts and linearIntersecting are the reference answers: a
// scan of every reservation, independent of the table's sort order.
func linearConflicts(all []Reservation, vt, writer vtime.VT) bool {
	for _, res := range all {
		if res.Owner != writer && res.Interval.Contains(vt) {
			return true
		}
	}
	return false
}

func linearIntersecting(all []Reservation, vt, exclude vtime.VT) map[vtime.VT]int {
	owners := map[vtime.VT]int{}
	for _, res := range all {
		if res.Owner != exclude && res.Interval.Contains(vt) {
			owners[res.Owner]++
		}
	}
	return owners
}

// TestReservationsMatchLinearScan drives random tables through Reserve,
// Release and GCBelow and checks every binary-searched lookup against a
// linear scan. Times are drawn from a narrow range over few sites, so
// equal-Hi ties, empty and inverted intervals, shared endpoints and
// owner exclusion all occur often.
func TestReservationsMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randVT := func() vtime.VT {
		return rvt(uint64(rng.Intn(24)), vtime.SiteID(1+rng.Intn(3)))
	}
	for round := 0; round < 200; round++ {
		var r Reservations
		var owners []vtime.VT
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				owner := randVT()
				if len(owners) > 0 && rng.Intn(3) == 0 {
					owner = owners[rng.Intn(len(owners))] // several intervals per owner
				}
				owners = append(owners, owner)
				r.Reserve(riv(randVT(), randVT()), owner)
			case op < 8:
				if len(owners) > 0 {
					r.Release(owners[rng.Intn(len(owners))])
				}
			default:
				floor := randVT()
				r.GCBelow(floor)
				for _, res := range r.All() {
					if res.Interval.Hi.LessEq(floor) {
						t.Fatalf("round %d: %v survived GCBelow(%v)", round, res, floor)
					}
				}
			}
			all := r.All()
			for q := 0; q < 8; q++ {
				vt, who := randVT(), randVT()
				if q%2 == 0 && len(owners) > 0 {
					who = owners[rng.Intn(len(owners))]
				}
				if got, want := r.Conflicts(vt, who), linearConflicts(all, vt, who); got != want {
					t.Fatalf("round %d step %d: Conflicts(%v, %v) = %v, linear scan says %v; table %v",
						round, step, vt, who, got, want, all)
				}
				want := linearIntersecting(all, vt, who)
				got := map[vtime.VT]int{}
				for _, o := range r.Intersecting(vt, who) {
					got[o]++
				}
				if len(got) != len(want) {
					t.Fatalf("round %d step %d: Intersecting(%v, %v) = %v, linear scan says %v",
						round, step, vt, who, got, want)
				}
				for o, n := range want {
					if got[o] != n {
						t.Fatalf("round %d step %d: Intersecting(%v, %v) = %v, linear scan says %v",
							round, step, vt, who, got, want)
					}
				}
			}
		}
	}
}

// conflictSink keeps the benchmarked call from being optimized away.
var conflictSink bool

// BenchmarkReservationsConflicts measures the NC check against tables of
// growing size. Each reservation is a read-modify-write interval
// (t-1, t]; the probe is a write just above the newest one, the common
// case at a primary, and one in the middle of the table.
func BenchmarkReservationsConflicts(b *testing.B) {
	for _, n := range []int{10, 1000, 50000} {
		var r Reservations
		for i := 1; i <= n; i++ {
			r.Reserve(riv(rvt(uint64(2*i-1), 1), rvt(uint64(2*i), 1)), rvt(uint64(2*i), 1))
		}
		writer := rvt(uint64(4*n), 2)
		for _, probe := range []struct {
			name string
			vt   vtime.VT
		}{
			{"top", rvt(uint64(2*n+1), 2)},
			{"middle", rvt(uint64(n), 2)},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, probe.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					conflictSink = r.Conflicts(probe.vt, writer)
				}
			})
		}
	}
}
