package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"decaf"
	"decaf/internal/engine"
	"decaf/internal/ids"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wal"
)

// objClass says how a benchmark object is written and checked.
type objClass int

const (
	account objClass = iota // read-modify-write: units<<idBits | last writer id
	field                   // blind Set of the writer's request id
	counter                 // fast-path Add
	list                    // fast-path InsertAfter at the head
)

// Account values carry the id of the request that last wrote them in
// their low bits, so a view callback can tell which transaction it is
// showing and the oracle can tell which write won.
const (
	idBits       = 24
	idMask       = 1<<idBits - 1
	initialUnits = 1 << 20
)

func accountValue(units, req int64) int64 { return units<<idBits | req&idMask }

type objSpec struct {
	class   objClass
	primary vtime.SiteID // the site that creates it; the others join it
	viewed  bool
}

func (o objSpec) initial() any {
	switch o.class {
	case account:
		return accountValue(initialUnits, 0)
	case list:
		return nil
	}
	return int64(0)
}

func (o objSpec) kind() engine.Kind {
	if o.class == list {
		return engine.KindList
	}
	return engine.KindInt
}

// node is one site of a cluster.
type node struct {
	id     vtime.SiteID
	eng    *engine.Site
	facade *decaf.Site // nil for sites built directly on the engine (WAL)
	tcp    *transport.TCP
	log    *wal.Log
	refs   []engine.ObjRef // by object index; immutable once the node is live
	walEnd wal.Stats       // log stats read when the node was stopped
}

func (n *node) stop() {
	if n.facade != nil {
		n.facade.Close()
	} else {
		n.eng.Stop()
	}
	if n.tcp != nil {
		_ = n.tcp.Close() // teardown; the endpoint has nothing left to deliver
	}
	if n.log != nil {
		n.walEnd = n.log.Stats()
		_ = n.log.Close() // teardown of a scratch log
	}
}

// cluster is one set-up instance of a workload: its network, sites and
// replicated objects.
type cluster struct {
	w    *workload
	tap  *netTap
	tr   *tracer
	net  *transport.Network // nil over TCP
	objs []objSpec
	dir  string // WAL root
	vt   *viewTracker

	nextID atomic.Uint32

	sampler *sampler // traced passes only

	mu      sync.Mutex
	nodes   map[vtime.SiteID]*node // guarded by mu; live sites
	all     []*node                // guarded by mu; every site ever started
	targets []*node                // guarded by mu; kill workloads: where writes go
}

// newCluster builds the workload's sites and objects, joins every
// replica and attaches the views: everything up to the first request.
func newCluster(w *workload, tr *tracer, dir string, maxReq int) (*cluster, error) {
	c := &cluster{w: w, tr: tr, tap: newNetTap(tr, w.latency), objs: w.objects(), dir: dir,
		nodes: map[vtime.SiteID]*node{}}
	if !w.tcp {
		c.net = transport.NewNetwork(transport.Config{Latency: w.latency})
	}
	if err := c.startSites(w.sites); err != nil {
		c.close()
		return nil, err
	}
	if err := c.replicate(); err != nil {
		c.close()
		return nil, err
	}
	if w.views {
		if err := c.attachViews(maxReq); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) startSites(n int) error {
	if c.w.tcp {
		return c.startTCP(n)
	}
	for i := 0; i < n; i++ {
		if _, err := c.addSimSite(); err != nil {
			return err
		}
	}
	return nil
}

// addSimSite starts one more site on the simulated network, with a WAL
// when the workload asks for one.
func (c *cluster) addSimSite() (*node, error) {
	id := vtime.SiteID(c.nextID.Add(1))
	ep, err := c.net.Endpoint(id)
	if err != nil {
		return nil, err
	}
	n := &node{id: id, refs: make([]engine.ObjRef, len(c.objs))}
	tep := c.tap.wrap(ep)
	if c.w.wal {
		n.log, err = wal.Open(filepath.Join(c.dir, fmt.Sprintf("site-%d", id)), wal.Options{Sync: wal.SyncBatch})
		if err != nil {
			return nil, fmt.Errorf("open WAL: %w", err)
		}
		n.eng = engine.NewSite(tep, engine.Options{WAL: n.log})
		n.eng.Start()
	} else {
		n.facade = decaf.NewSite(tep, decaf.Options{})
		n.eng = n.facade.Engine()
	}
	c.mu.Lock()
	c.nodes[id] = n
	c.all = append(c.all, n)
	c.mu.Unlock()
	return n, nil
}

// startTCP starts n sites on loopback TCP endpoints in the default
// binary batched mode.
func (c *cluster) startTCP(n int) error {
	var tcps []*transport.TCP
	for i := 1; i <= n; i++ {
		t, err := transport.ListenTCPOptions(vtime.SiteID(i), "127.0.0.1:0", nil, transport.TCPOptions{})
		if err != nil {
			return err
		}
		tcps = append(tcps, t)
		c.all = append(c.all, &node{id: vtime.SiteID(i), tcp: t}) // closed by close() on error
	}
	for _, a := range tcps {
		for _, b := range tcps {
			if a != b {
				a.SetPeerAddr(b.Site(), b.Addr().String())
			}
		}
	}
	for i, t := range tcps {
		n := c.all[i]
		n.refs = make([]engine.ObjRef, len(c.objs))
		n.facade = decaf.NewSite(c.tap.wrap(t), decaf.Options{})
		n.eng = n.facade.Engine()
		c.nodes[n.id] = n
	}
	c.nextID.Store(uint32(n))
	return nil
}

// replicate creates every object at its primary and joins a replica at
// each other site, all joins in flight at once.
func (c *cluster) replicate() error {
	var handles []*engine.Handle
	for i, o := range c.objs {
		root, err := c.nodes[o.primary].eng.CreateObject(o.kind(), fmt.Sprintf("o%d", i), o.initial())
		if err != nil {
			return err
		}
		c.nodes[o.primary].refs[i] = root
		for _, n := range c.nodes {
			if n.id == o.primary {
				continue
			}
			local, err := n.eng.CreateObject(o.kind(), fmt.Sprintf("o%d", i), o.initial())
			if err != nil {
				return err
			}
			n.refs[i] = local
			handles = append(handles, n.eng.JoinObject(local, o.primary, root.ID()))
		}
	}
	for _, h := range handles {
		if res := h.Wait(); !res.Committed {
			return fmt.Errorf("join: %v", res.Err)
		}
	}
	return c.awaitMembers(len(c.nodes), 10*time.Second)
}

// awaitMembers waits until every live site sees want replicas of every
// object it holds.
func (c *cluster) awaitMembers(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		settled := true
		for _, n := range c.live() {
			for _, ref := range n.refs {
				if sites, err := n.eng.ReplicaSites(ref); err != nil || len(sites) != want {
					settled = false
				}
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica graphs did not reach %d members", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// live returns the running sites in ID order.
func (c *cluster) live() []*node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*node, 0, len(c.nodes))
	for _, n := range c.all {
		if c.nodes[n.id] == n {
			out = append(out, n)
		}
	}
	return out
}

// kill crashes a site fail-stop and releases it.
func (c *cluster) kill(id vtime.SiteID) {
	c.mu.Lock()
	n := c.nodes[id]
	delete(c.nodes, id)
	c.mu.Unlock()
	c.net.Kill(id)
	n.stop()
}

func (c *cluster) close() {
	for _, n := range c.live() {
		n.stop()
	}
	if c.net != nil {
		c.net.Close()
	}
	c.mu.Lock()
	for _, n := range c.all {
		if n.eng == nil && n.tcp != nil {
			_ = n.tcp.Close() // endpoint of a site that never started
		}
	}
	c.mu.Unlock()
	c.tap.pumps.Wait()
	if c.dir != "" {
		_ = os.RemoveAll(c.dir) // scratch WALs
	}
}

// viewTracker records, per site, the first time an optimistic and a
// pessimistic view callback showed each request's written value.
type viewTracker struct {
	classOf map[ids.ObjectID]objClass // read-only once views attach
	opt     map[vtime.SiteID][]atomic.Int64
	pess    map[vtime.SiteID][]atomic.Int64
}

func (c *cluster) attachViews(maxReq int) error {
	vt := &viewTracker{classOf: map[ids.ObjectID]objClass{},
		opt: map[vtime.SiteID][]atomic.Int64{}, pess: map[vtime.SiteID][]atomic.Int64{}}
	nodes := c.live()
	for _, n := range nodes {
		for i, ref := range n.refs {
			vt.classOf[ref.ID()] = c.objs[i].class
		}
		vt.opt[n.id] = make([]atomic.Int64, maxReq+1)
		vt.pess[n.id] = make([]atomic.Int64, maxReq+1)
	}
	c.vt = vt
	for _, n := range nodes {
		var refs []engine.ObjRef
		for i, ref := range n.refs {
			if c.objs[i].viewed {
				refs = append(refs, ref)
			}
		}
		if _, err := n.eng.AttachView(refs, engine.Optimistic, engine.ViewFuncs{Update: vt.callback(vt.opt[n.id])}); err != nil {
			return err
		}
		if _, err := n.eng.AttachView(refs, engine.Pessimistic, engine.ViewFuncs{Update: vt.callback(vt.pess[n.id])}); err != nil {
			return err
		}
	}
	return nil
}

func (vt *viewTracker) callback(seen []atomic.Int64) func(engine.SnapshotData) {
	return func(d engine.SnapshotData) {
		now := nowNanos()
		for _, id := range d.Changed {
			v, ok := d.Values[id].(int64)
			if !ok {
				continue
			}
			var req int64
			switch vt.classOf[id] {
			case account:
				req = v & idMask
			case field:
				req = v
			default:
				continue
			}
			if req > 0 && req < int64(len(seen)) {
				seen[req].CompareAndSwap(0, now)
			}
		}
	}
}
