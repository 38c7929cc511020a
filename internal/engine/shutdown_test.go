package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// startLoneSite builds one started site on its own network.
func startLoneSite(t *testing.T, opts Options) (*Site, *transport.Network) {
	t.Helper()
	net := transport.NewNetwork(transport.Config{})
	ep, err := net.Endpoint(vtime.SiteID(1))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(ep, opts)
	s.Start()
	return s, net
}

// TestStopDrainsNotifications is the regression test for the shutdown
// notification loss: notify() used to silently drop callbacks once
// s.stop closed, and the notifier's post-stop drain raced producers, so
// notifications enqueued around Stop were nondeterministically lost.
// Stop is now deterministic — intake closes only after the event loop
// (the sole producer) has exited, and the notifier drains in full — so
// across 1000 Stop cycles every accepted notification must be
// delivered: Enqueued == Delivered, Dropped == 0, and the user
// callbacks actually ran.
func TestStopDrainsNotifications(t *testing.T) {
	const cycles = 1000
	for c := 0; c < cycles; c++ {
		s, net := startLoneSite(t, Options{})
		ref, err := s.CreateObject(KindInt, "x", int64(0))
		if err != nil {
			t.Fatal(err)
		}
		var ran atomic.Uint64
		if _, err := s.AttachView([]ObjRef{ref}, Optimistic, ViewFuncs{
			Update: func(SnapshotData) { ran.Add(1) },
		}); err != nil {
			t.Fatal(err)
		}
		// Submit without waiting: some of these land their notifications
		// while Stop is already underway — the racy window of the old
		// implementation.
		for k := 0; k < 5; k++ {
			v := int64(k)
			s.Submit(&Txn{Execute: func(tx *Tx) error { return tx.Write(ref, v) }})
		}
		s.Stop()
		st := s.Stats()
		if st.NotifyDropped != 0 {
			t.Fatalf("cycle %d: %d notifications dropped under the default queue limit", c, st.NotifyDropped)
		}
		if st.NotifyEnqueued != st.NotifyDelivered {
			t.Fatalf("cycle %d: enqueued=%d delivered=%d; accepted notifications were lost in Stop",
				c, st.NotifyEnqueued, st.NotifyDelivered)
		}
		if ran.Load() == 0 && st.NotifyEnqueued > 0 {
			t.Fatalf("cycle %d: %d notifications enqueued but no user callback ran", c, st.NotifyEnqueued)
		}
		net.Close()
	}
}

// TestNotifierBackpressureNoDeadlock is the regression test for the
// notifier backpressure deadlock: with the old fixed 4096-slot channel,
// a full buffer blocked the event loop inside notify(), and a user
// callback that re-entered the site API (waiting on the event loop)
// deadlocked the site. The overflow policy now drops-and-counts instead
// of blocking, so a slow re-entrant callback plus a tiny queue limit
// must still make progress and surface the drops on the counter.
func TestNotifierBackpressureNoDeadlock(t *testing.T) {
	s, net := startLoneSite(t, Options{NotifyQueueLimit: 2})
	defer func() {
		s.Stop()
		net.Close()
	}()
	ref, err := s.CreateObject(KindInt, "x", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	var reentered atomic.Uint64
	if _, err := s.AttachView([]ObjRef{ref}, Optimistic, ViewFuncs{
		Update: func(SnapshotData) {
			time.Sleep(time.Millisecond) // slow consumer: queue overflows
			// Re-enter the site API from the callback; this parked
			// forever when the loop was wedged in notify().
			if _, err := s.ReadCommitted(ref); err == nil {
				reentered.Add(1)
			}
		},
		// Commit notifications are lossy (gen-gated) and not coalesced,
		// so with the slow Update above they overflow the 2-slot queue
		// and exercise the drop-and-count policy.
		Commit: func() {},
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 60; k++ {
			v := int64(k)
			if res := s.Submit(&Txn{Execute: func(tx *Tx) error { return tx.Write(ref, v) }}).Wait(); !res.Committed {
				t.Errorf("txn %d: %+v", k, res)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("site deadlocked: event loop blocked on the full notifier queue")
	}
	// Submissions outrun the 1ms-per-callback consumer; give the
	// notifier a moment to deliver what survived the overflow.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && reentered.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if reentered.Load() == 0 {
		t.Fatal("re-entrant callback never completed a site API call")
	}
	if s.Stats().NotifyDropped == 0 {
		t.Error("queue limit 2 with a slow consumer should have dropped notifications")
	}
}

// TestSubmitAfterStopSettlesHandle is the regression test for do()'s
// silent-drop path: posting work to a stopped site used to vanish,
// leaving the returned Handle waiting forever. Every handle-producing
// API must now settle the handle with ErrSiteStopped.
func TestSubmitAfterStopSettlesHandle(t *testing.T) {
	s, net := startLoneSite(t, Options{})
	defer net.Close()
	ref, err := s.CreateObject(KindInt, "x", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()

	resCh := make(chan Result, 1)
	go func() {
		resCh <- s.Submit(&Txn{Execute: func(tx *Tx) error { return tx.Write(ref, 1) }}).Wait()
	}()
	select {
	case res := <-resCh:
		if !errors.Is(res.Err, ErrSiteStopped) {
			t.Fatalf("Submit after Stop: got %+v, want ErrSiteStopped", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit after Stop: handle never settled (silent drop)")
	}

	if res := s.Promote(ref).Wait(); !errors.Is(res.Err, ErrSiteStopped) {
		t.Fatalf("Promote after Stop: got %+v, want ErrSiteStopped", res)
	}
	if res := s.JoinObject(ref, 2, ref.ID()).Wait(); !errors.Is(res.Err, ErrSiteStopped) {
		t.Fatalf("JoinObject after Stop: got %+v, want ErrSiteStopped", res)
	}
}

// keepingScheduler never runs and never releases a callback, the way the
// Go runtime may keep a stopped timer, and its callback, in its timer
// heap until the timer's deadline passes.
type keepingScheduler struct {
	mu  sync.Mutex
	fns []func()
}

func (k *keepingScheduler) AfterFunc(_ time.Duration, fn func()) (cancel func()) {
	k.mu.Lock()
	k.fns = append(k.fns, fn)
	k.mu.Unlock()
	return func() {}
}

// TestStoppedSiteNotHeldByFloorTimer pins that a floor timer still
// pending at Stop does not keep the site's state reachable: a stopped
// timer's callback may outlive the site by up to floorFlushDelay, and a
// process that builds sites one after another (tests, the benchmark's
// rounds) would otherwise hold a dead site's tables for that long.
func TestStoppedSiteNotHeldByFloorTimer(t *testing.T) {
	sched := &keepingScheduler{}
	s, net := startLoneSite(t, Options{Scheduler: sched})
	if err := s.call(s.armFloorTimer); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	net.Close()
	// The site holds pointers to itself, so the finalizer goes on its
	// clock, which nothing but the site points to.
	freed := make(chan struct{})
	runtime.SetFinalizer(s.clock, func(*vtime.Clock) { close(freed) })
	s = nil
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(sched)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a stopped site stays reachable from its pending floor timer's callback")
}
