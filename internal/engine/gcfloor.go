package engine

import (
	"math"
	"sync/atomic"
	"time"

	"decaf/internal/repgraph"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// The GC floor (DESIGN.md §15). Histories and reservations below the
// floor are pruned, and decided transaction states below it are retired.
// A version or reservation below the floor may only go once no message
// that needs it can still arrive: a write or read check whose VT lies
// at or below it. The floor is therefore the minimum of
//
//   - this site's local floor: its clock, just below its oldest
//     undecided transaction, and the oldest VT an outstanding view
//     snapshot may still read;
//   - for every peer in a local replication graph, the floor that peer
//     last advertised here (zero until it has advertised one).
//
// A site advertises its local floor: every transaction it ever sends a
// write or check for has a VT above it, or is decided and already sent.
// The advertisement rides the last message of a batch to the peer, so
// per-pair FIFO delivers every covered write first. Both minima are
// maintained incrementally: lazily-popped VT heaps for the undecided
// minimum and for retirement, and a site-level proxy list for the
// snapshot minimum, so computing the floor never scans the transaction
// table or the object table.

// floorFlushDelay bounds how long GC-floor work waits for a batch to do
// it in passing. A batch whose messages to a peer end with an Outcome or
// a Write carries the floor on it for free, and every commit prunes the
// objects it touched. What no batch does within the delay, the floor
// timer does: it sends a moved floor as a standalone GCFloor to peers
// that heard none (a primary the site only confirms for, a replica that
// only receives), and re-runs GC on objects whose pruning waited on a
// peer's floor, so once a run goes quiet every site collects down to
// what is still live. The timer goes through the Scheduler, so the
// simulator fires it in virtual time. The delay trades staleness of
// those peers' floors against floor traffic that scales with wall time
// rather than with work: at 10 ms it added about a fifth more messages
// to the 60 txn/s interactive workload.
const floorFlushDelay = 100 * time.Millisecond

// peerFloor is the GC-floor exchange state with one peer.
type peerFloor struct {
	// from is the highest floor the peer advertised directly.
	from vtime.VT
	// gapped marks a peer whose messages may have been lost (reported
	// failed or disconnected): its advertisements are ignored — and from
	// holds at zero — until an anti-entropy session with it completes,
	// because a floor that outran a lost write would prune state the
	// resent write needs.
	gapped bool
	// sent is this site's floor as last sent to the peer.
	sent vtime.VT
}

// vtHeap is a binary min-heap of virtual times.
type vtHeap []vtime.VT

func (h *vtHeap) push(v vtime.VT) {
	*h = append(*h, v)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if !a[i].Less(a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *vtHeap) pop() {
	a := *h
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && a[l].Less(a[m]) {
			m = l
		}
		if r := l + 1; r < n && a[r].Less(a[m]) {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	*h = a
}

// undecided reports whether the transaction's outcome is still open at
// this site.
func (st *txnState) undecided() bool {
	return st.status == txnExecuting || st.status == txnWaiting || st.status == txnApplied
}

// addTxn registers a new transaction state. Every state enters both
// heaps exactly once per creation; entries whose state was deleted or
// decided are popped lazily.
func (s *Site) addTxn(st *txnState) {
	s.txns[st.vt] = st
	s.undecidedVTs.push(st.vt)
	s.retireVTs.push(st.vt)
}

// minUndecided returns the lowest VT of a transaction still undecided at
// this site. Statuses only move from undecided to decided, so an entry
// found decided (or deleted) can leave the heap for good.
func (s *Site) minUndecided() (vtime.VT, bool) {
	for len(s.undecidedVTs) > 0 {
		vt := s.undecidedVTs[0]
		if st, ok := s.txns[vt]; ok && st.undecided() {
			return vt, true
		}
		s.undecidedVTs.pop()
	}
	return vtime.Zero, false
}

// snapshotFloor returns the minimum VT any outstanding view snapshot may
// still read, across the site's attached views.
func (s *Site) snapshotFloor() (vtime.VT, bool) {
	var floor vtime.VT
	found := false
	for _, p := range s.proxies {
		if f, ok := p.minSnapshotVT(); ok && (!found || f.Less(floor)) {
			floor, found = f, true
		}
	}
	return floor, found
}

// localFloor is the floor this site's own state allows, and the one it
// advertises: nothing below it is undecided here, no snapshot here reads
// below it, and every transaction this site starts later gets a VT
// above it. It covers only what this site knows of: a peer whose clock
// lags can still send a write or check below it, one that an interval
// reserved here must deny. Pruning on the local floor alone loses that
// peer's update, so combinedGCFloor also takes every graph peer's
// advertised floor.
func (s *Site) localFloor() vtime.VT {
	return s.localFloorAt(s.clock.Now())
}

// localFloorAt is localFloor for the clock reading now.
func (s *Site) localFloorAt(now vtime.VT) vtime.VT {
	floor := now
	if vt, ok := s.minUndecided(); ok && vt.LessEq(floor) {
		floor = vtime.JustBelow(vt)
	}
	if sf, ok := s.snapshotFloor(); ok && sf.Less(floor) {
		floor = sf
	}
	return floor
}

// peerFloorState returns (creating if needed) the floor exchange state
// for peer.
func (s *Site) peerFloorState(peer vtime.SiteID) *peerFloor {
	pf, ok := s.peerFloors[peer]
	if !ok {
		pf = &peerFloor{}
		s.peerFloors[peer] = pf
	}
	return pf
}

// tallyGraph moves an object's replication graph from old to new in the
// per-site count of graphs each peer appears in (either may be nil).
func (s *Site) tallyGraph(old, new *repgraph.Graph) {
	if old == new {
		return
	}
	if old != nil {
		for _, site := range old.Sites() {
			if site == s.id {
				continue
			}
			if s.graphPeers[site]--; s.graphPeers[site] <= 0 {
				delete(s.graphPeers, site)
				s.floorPeersDirty = true
			}
		}
	}
	if new != nil {
		for _, site := range new.Sites() {
			if site == s.id {
				continue
			}
			if s.graphPeers[site]++; s.graphPeers[site] == 1 {
				s.floorPeersDirty = true
			}
		}
	}
}

// currentFloorPeers returns the sites, other than this one, that appear
// in any local replication graph, in site order. Only they can send
// writes or checks for local objects.
func (s *Site) currentFloorPeers() []vtime.SiteID {
	if s.floorPeersDirty {
		s.floorPeersDirty = false
		s.floorPeers = sortedSites(s.graphPeers)
	}
	return s.floorPeers
}

// peerFloorMin returns the lowest floor advertised by a graph peer (zero
// for a peer that has not advertised one, or whose advertisements are
// suspended after a gap). A failed peer holds the floor until the repair
// removes it from the graphs; a parked (disconnected) peer holds it for
// as long as it stays in them.
func (s *Site) peerFloorMin() (vtime.VT, bool) {
	peers := s.currentFloorPeers()
	if len(peers) == 0 {
		return vtime.Zero, false
	}
	floor := vtime.VT{Time: math.MaxUint64, Site: math.MaxUint32}
	for _, p := range peers {
		var f vtime.VT
		if pf, ok := s.peerFloors[p]; ok {
			f = pf.from
		}
		if f.Less(floor) {
			floor = f
		}
	}
	return floor, true
}

// combinedGCFloor returns the batch-cached GC floor, computing it on
// first use within the batch, and retires decided transaction states at
// or below it. Committing a transaction or receiving a peer floor only
// raises the true floor, so a stale-low cache merely defers pruning to
// the next batch; events that can lower it (new view snapshots, a
// suspended peer floor) call invalidateGCFloor.
func (s *Site) combinedGCFloor() vtime.VT {
	if s.gcFloorValid {
		s.stats.GCFloorReuse.Inc()
		return s.gcFloor
	}
	now := s.clock.Now()
	floor := s.localFloorAt(now)
	if pf, ok := s.peerFloorMin(); ok && pf.Less(floor) {
		floor = pf
	}
	s.gcFloor = floor
	s.gcFloorValid = true
	s.stats.GCFloorLag.Set(int64(now.Time - floor.Time))
	// Retire decided states at or below the floor. They are kept only so
	// late or duplicate messages can find them, and the outcomes map
	// already answers those; without retirement s.txns grows with every
	// transaction ever seen. The heap yields VTs in order, so retirement
	// stops at the first state that is undecided or above the floor.
	for len(s.retireVTs) > 0 {
		vt := s.retireVTs[0]
		if st, ok := s.txns[vt]; ok {
			if st.undecided() || floor.Less(vt) {
				break
			}
			delete(s.txns, vt)
		}
		s.retireVTs.pop()
	}
	return floor
}

// invalidateGCFloor drops the batch floor cache. Called where the floor
// can move down.
func (s *Site) invalidateGCFloor() {
	s.gcFloorValid = false
}

// maybeGC prunes the given object's histories and reservations.
func (s *Site) maybeGC(o *object) {
	if s.opts.DisableGC {
		return
	}
	floor := s.combinedGCFloor()
	o.hist.GC(floor)
	o.graphHist.GC(floor)
	o.res.GCBelow(floor)
	o.graphRes.GCBelow(floor)
	if !o.gcQueued && o.holdsCollectable() {
		o.gcQueued = true
		s.gcBacklog = append(s.gcBacklog, o)
	}
}

// holdsCollectable reports whether o keeps state that a higher floor
// could prune: more than its base version, or any reservation.
func (o *object) holdsCollectable() bool {
	return o.hist.Len() > 1 || o.graphHist.Len() > 1 || o.res.Len() > 0 || o.graphRes.Len() > 0
}

// drainGCBacklog re-runs GC on the objects a past pass left holding
// state; maybeGC queues them again if they still do. Objects deleted
// meanwhile (an undone list insert's child) leave the backlog.
func (s *Site) drainGCBacklog() {
	backlog := s.gcBacklog
	s.gcBacklog = nil
	for _, o := range backlog {
		o.gcQueued = false
		if s.objects[o.id] == o {
			s.maybeGC(o)
		}
	}
}

// armFloorTimer schedules the floor timer (see floorFlushDelay) unless
// it is already pending.
func (s *Site) armFloorTimer() {
	if s.floorTimerCancel != nil {
		return
	}
	// The callback reaches the site through site, which cancelling
	// clears: the runtime may hold a stopped timer's callback until its
	// deadline, and that must not keep a stopped site's state reachable.
	site := new(atomic.Pointer[Site])
	site.Store(s)
	cancel := s.opts.Scheduler.AfterFunc(floorFlushDelay, func() {
		if s := site.Load(); s != nil {
			s.do(s.floorTimerFired)
		}
	})
	s.floorTimerCancel = func() {
		site.Store(nil)
		cancel()
	}
}

// floorTimerFired runs the floor timer's work on the loop.
func (s *Site) floorTimerFired() {
	s.floorTimerCancel = nil
	if !s.opts.DisableGC {
		s.combinedGCFloor() // retires decided states below it
		s.drainGCBacklog()
	}
	s.floorFlushDue = true // advertiseFloor sends at batch end
}

// stopFloorTimer cancels a pending floor timer (site shutdown).
func (s *Site) stopFloorTimer() {
	if s.floorTimerCancel != nil {
		s.floorTimerCancel()
		s.floorTimerCancel = nil
	}
}

// gcObjects prunes the given objects.
func (s *Site) gcObjects(objs []*object) {
	for _, o := range objs {
		s.maybeGC(o)
	}
}

// noteFloor records a floor advertised by peer on a directly delivered
// message. Duplicates the transport delivers late carry older floors;
// keeping the maximum makes them harmless.
func (s *Site) noteFloor(peer vtime.SiteID, floor vtime.VT) {
	pf := s.peerFloorState(peer)
	if pf.gapped || !pf.from.Less(floor) {
		return
	}
	pf.from = floor
	if len(s.gcBacklog) > 0 || len(s.retireVTs) > 0 {
		s.armFloorTimer()
	}
}

// suspendPeerFloor forgets peer's floor after the transport reported it
// failed, disconnected or recovered: messages from it may have been lost
// in between, so its later advertisements cannot vouch for them.
// Sites with a WAL accept its floors again once an anti-entropy session
// with it completes (resumePeerFloor); without a WAL nothing can resend
// what was lost, so the suspension ends when the peer recovers.
func (s *Site) suspendPeerFloor(peer vtime.SiteID) {
	pf := s.peerFloorState(peer)
	pf.from = vtime.Zero
	pf.gapped = true
	s.invalidateGCFloor()
}

// resumePeerFloor accepts peer's floor advertisements again.
func (s *Site) resumePeerFloor(peer vtime.SiteID) {
	if pf, ok := s.peerFloors[peer]; ok {
		pf.gapped = false
	}
}

// advertiseFloor sends this site's moved floor to each graph peer on
// the last message of the batch to it, when that is an Outcome or a
// Write. A peer whose batch ends otherwise, or that gets no batch, waits
// for the floor timer, which sends a standalone GCFloor. Called once per
// batch, before the outbox flushes.
func (s *Site) advertiseFloor() {
	due := s.floorFlushDue
	s.floorFlushDue = false
	peers := s.currentFloorPeers()
	if len(peers) == 0 {
		return
	}
	floor := s.localFloor()
	behind := false
	for _, p := range peers {
		if s.failed[p] {
			continue
		}
		pf := s.peerFloorState(p)
		if !pf.sent.Less(floor) {
			continue
		}
		if msgs := s.outbox[p]; len(msgs) > 0 {
			switch m := msgs[len(msgs)-1].(type) {
			case wire.Outcome:
				m.Floor = floor
				msgs[len(msgs)-1] = m
				pf.sent = floor
				continue
			case wire.Write:
				m.Floor = floor
				msgs[len(msgs)-1] = m
				pf.sent = floor
				continue
			}
		}
		if !due {
			behind = true
			continue
		}
		s.send(p, wire.GCFloor{Floor: floor})
		pf.sent = floor
	}
	if behind {
		s.armFloorTimer()
	}
}

// floorWorkPending reports whether the batch epilogue's advertiseFloor
// would send a floor or arm the floor timer. Quiescent counts such work
// as pending: the epilogue runs after any probe drained into the batch,
// and its sends and timer must not race the simulator's next step.
func (s *Site) floorWorkPending() bool {
	if s.floorFlushDue {
		return true
	}
	if s.floorTimerCancel != nil {
		return false // a behind peer waits for the pending timer
	}
	peers := s.currentFloorPeers()
	if len(peers) == 0 {
		return false
	}
	floor := s.localFloor()
	for _, p := range peers {
		if s.failed[p] {
			continue
		}
		if pf, ok := s.peerFloors[p]; !ok || pf.sent.Less(floor) {
			return true
		}
	}
	return false
}

// floorDebugState reports the GC floor and each graph peer's advertised
// floor for the debug state source.
func (s *Site) floorDebugState() (floor vtime.VT, peers map[string]string) {
	floor = s.localFloor()
	if pf, ok := s.peerFloorMin(); ok && pf.Less(floor) {
		floor = pf
	}
	peers = map[string]string{}
	for _, p := range s.currentFloorPeers() {
		f := vtime.Zero
		if pf, ok := s.peerFloors[p]; ok {
			f = pf.from
		}
		peers[p.String()] = f.String()
	}
	return floor, peers
}
