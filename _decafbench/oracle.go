package main

import (
	"fmt"
	"time"

	"decaf/internal/vtime"
)

// settleTimeout bounds the wait for replicas to reach the expected
// state after the load; a replica still wrong then is a violation.
const settleTimeout = 10 * time.Second

// expected derives each object's right final value from the requests
// the generator saw commit: an account holds its initial units plus
// every committed delta, tagged with the id of the committed writer
// with the highest VT; a field holds the id of its highest-VT committed
// Set; a counter holds the sum of committed adds; a list value is its
// length, the number of committed inserts.
func expected(objs []objSpec, reqs []*request) []int64 {
	units := make([]int64, len(objs))
	last := make([]*request, len(objs))
	out := make([]int64, len(objs))
	wrote := func(i int, r *request) {
		if last[i] == nil || last[i].vt.Less(r.vt) {
			last[i] = r
		}
	}
	for _, r := range reqs {
		if !r.committed {
			continue
		}
		switch r.kind {
		case opRMW:
			units[r.a] += r.delta
			wrote(r.a, r)
		case opTransfer:
			units[r.a] -= r.delta
			units[r.b] += r.delta
			wrote(r.a, r)
			wrote(r.b, r)
		case opSet:
			wrote(r.a, r)
		case opAdd:
			out[r.a] += r.delta
		case opInsert:
			out[r.a]++
		}
	}
	for i, o := range objs {
		var id int64
		if last[i] != nil {
			id = last[i].id
		}
		switch o.class {
		case account:
			out[i] = accountValue(initialUnits+units[i], id)
		case field:
			out[i] = id
		}
	}
	return out
}

// verify waits for the cluster to settle and checks it against the
// expected state: every live replica quiescent, its committed and
// current values equal to the expectation, and each site's accounting
// identities intact.
func (c *cluster) verify(reqs []*request) []string {
	want := expected(c.objs, reqs)
	var problems []string
	deadline := time.Now().Add(settleTimeout)
	for {
		problems = c.check(want)
		if len(problems) == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	abandoned := map[vtime.SiteID]uint64{}
	for _, r := range reqs {
		if r.abandoned {
			abandoned[r.origin]++
		}
	}
	for _, n := range c.live() {
		for _, v := range n.eng.Stats().IdentityViolations(abandoned[n.id]) {
			problems = append(problems, fmt.Sprintf("S%d: %s", n.id, v))
		}
	}
	return problems
}

// check compares every live replica with want once.
func (c *cluster) check(want []int64) []string {
	var problems []string
	for _, n := range c.live() {
		if !n.eng.Quiescent() {
			problems = append(problems, fmt.Sprintf("S%d not quiescent", n.id))
			continue
		}
		for i, ref := range n.refs {
			if !ref.Valid() {
				continue
			}
			committed, err := n.eng.ReadCommitted(ref)
			if err != nil {
				problems = append(problems, fmt.Sprintf("S%d o%d: %v", n.id, i, err))
				continue
			}
			current, err := n.eng.ReadCurrent(ref)
			if err != nil {
				problems = append(problems, fmt.Sprintf("S%d o%d: %v", n.id, i, err))
				continue
			}
			for _, got := range []any{committed, current} {
				if v := asInt(got); v != want[i] {
					problems = append(problems, fmt.Sprintf("S%d o%d: holds %d, want %d", n.id, i, v, want[i]))
					break
				}
			}
		}
	}
	return problems
}

// asInt reads an Int value, or a list's length.
func asInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case []any:
		return int64(len(x))
	}
	return -1
}
