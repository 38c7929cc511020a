package engine

import "fmt"

// Accounting identities over a quiescent site's Stats (PR 4). They are
// a library — shared by the obs invariant tests and the deterministic
// simulation harness — so every exploration run asserts exactly the
// identities the tests document:
//
//	Submitted + InternalTxns == Commits + ProgrammedAborts + abandoned
//	ConflictAborts           == Retries + abandoned
//	FastpathCommits          <= Commits
//
// where abandoned counts submissions whose Result was ErrTooManyRetries
// (the retry budget ran out), observed by the caller from the Handles,
// and InternalTxns counts transactions the engine initiates on its own
// behalf (graph repair after a site failure) — they commit like any
// other transaction but never pass through Submit. The first simulation
// sweeps flagged every crash run until internal initiations were
// counted; see DESIGN.md §12.
// A violation means a transaction was double-counted or leaked a state.
//
// The identities hold only at quiescence: no undecided transactions, no
// queued work, no messages in flight.

// IdentityViolations checks the quiescent accounting identities and
// returns a human-readable description of each violation (empty when
// all hold).
func (st Stats) IdentityViolations(abandoned uint64) []string {
	var v []string
	if st.Submitted+st.InternalTxns != st.Commits+st.ProgrammedAborts+abandoned {
		v = append(v, fmt.Sprintf("Submitted=%d + InternalTxns=%d != Commits=%d + ProgrammedAborts=%d + abandoned=%d",
			st.Submitted, st.InternalTxns, st.Commits, st.ProgrammedAborts, abandoned))
	}
	if st.ConflictAborts != st.Retries+abandoned {
		v = append(v, fmt.Sprintf("ConflictAborts=%d != Retries=%d + abandoned=%d",
			st.ConflictAborts, st.Retries, abandoned))
	}
	if st.FastpathCommits > st.Commits {
		v = append(v, fmt.Sprintf("FastpathCommits=%d > Commits=%d",
			st.FastpathCommits, st.Commits))
	}
	return v
}

// NotifyIdentityViolations checks the shutdown notifier identity,
// valid only after Stop has returned:
//
//	NotifyEnqueued == NotifyDelivered + NotifyDropped
//
// i.e. every accepted user callback was either delivered or counted as
// dropped — none lost to the shutdown race.
func (st Stats) NotifyIdentityViolations() []string {
	if st.NotifyEnqueued != st.NotifyDelivered+st.NotifyDropped {
		return []string{fmt.Sprintf("NotifyEnqueued=%d != NotifyDelivered=%d + NotifyDropped=%d",
			st.NotifyEnqueued, st.NotifyDelivered, st.NotifyDropped)}
	}
	return nil
}

// StateSizes are the sizes of the per-site tables garbage collection
// keeps bounded: the largest value history (versions), the largest
// value or graph reservation table of any object, and the transaction
// table.
type StateSizes struct {
	MaxVersions     int
	MaxReservations int
	Txns            int
}

// StateSizes reports the site's table sizes (zero for a stopped site).
// After a quiescent run they must stay below a small bound that does not
// grow with the run's length (DESIGN.md §15).
func (s *Site) StateSizes() StateSizes {
	var sz StateSizes
	_ = s.call(func() {
		sz.Txns = len(s.txns)
		for _, id := range sortedObjectIDs(s.objects) {
			o := s.objects[id]
			sz.MaxVersions = max(sz.MaxVersions, o.hist.Len(), o.graphHist.Len())
			sz.MaxReservations = max(sz.MaxReservations, o.res.Len(), o.graphRes.Len())
		}
	})
	return sz
}
