package main

import (
	"math/rand"

	"decaf/internal/engine"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

type opKind int

const (
	opRMW      opKind = iota // read an account, write it back changed
	opTransfer               // move units between two accounts
	opSet                    // blind write of a field
	opAdd                    // fast-path counter add
	opInsert                 // fast-path list insert
)

// request is one generated transaction and what became of it.
type request struct {
	id     int64
	kind   opKind
	a, b   int   // object indices
	delta  int64 // units moved or added
	origin vtime.SiteID
	due    int64 // nowNanos when it was due (closed loops: when submitted)

	submitted, applied, done int64
	committed                bool
	abandoned                bool // retry budget exhausted
	vt                       vtime.VT
	execs                    int
}

// body is the transaction the engine executes, possibly several times.
// The last execution's VT is the committed transaction's VT.
func (r *request) body(refs []engine.ObjRef, tr *tracer) func(*engine.Tx) error {
	return func(tx *engine.Tx) error {
		var start int64
		if tr != nil {
			start = nowNanos()
			tr.bindVT(tx.VT(), r.id)
		}
		r.vt = tx.VT()
		r.execs++
		o := txOps{tx: tx, tr: tr, req: r.id}
		var err error
		switch r.kind {
		case opRMW:
			var v int64
			if v, err = o.read(refs[r.a]); err == nil {
				err = o.write(refs[r.a], accountValue(v>>idBits+r.delta, r.id))
			}
		case opTransfer:
			var va, vb int64
			if va, err = o.read(refs[r.a]); err != nil {
				break
			}
			if vb, err = o.read(refs[r.b]); err != nil {
				break
			}
			if err = o.write(refs[r.a], accountValue(va>>idBits-r.delta, r.id)); err == nil {
				err = o.write(refs[r.b], accountValue(vb>>idBits+r.delta, r.id))
			}
		case opSet:
			err = o.write(refs[r.a], r.id)
		case opAdd:
			err = o.call(func() error { return tx.Add(refs[r.a], r.delta) })
		case opInsert:
			err = o.call(func() error {
				_, err := tx.ListInsertAfter(refs[r.a], wire.ElemTag{}, wire.ChildDecl{Kind: wire.KindInt, Value: r.id})
				return err
			})
		}
		if tr != nil {
			tr.add(span{name: "engine.execute", start: start, end: nowNanos(), req: r.id})
		}
		return err
	}
}

// txOps times each call into engine.Tx as an engine.op span when traced.
type txOps struct {
	tx  *engine.Tx
	tr  *tracer
	req int64
}

func (o txOps) call(fn func() error) error {
	if o.tr == nil {
		return fn()
	}
	start := nowNanos()
	err := fn()
	o.tr.add(span{name: "engine.op", start: start, end: nowNanos(), req: o.req})
	return err
}

func (o txOps) read(ref engine.ObjRef) (int64, error) {
	var v any
	err := o.call(func() (err error) { v, err = o.tx.Read(ref); return err })
	n, _ := v.(int64)
	return n, err
}

func (o txOps) write(ref engine.ObjRef, v int64) error {
	return o.call(func() error { return o.tx.Write(ref, v) })
}

// skewed picks an index in [0, n) with probability falling with the
// index, so a few hot objects see most of the traffic.
func skewed(rng *rand.Rand, n int) int {
	u := rng.Float64()
	return int(float64(n) * u * u)
}

// pickKind draws an operation kind from cumulative weights.
func pickKind(rng *rand.Rand, weights [5]float64) opKind {
	u := rng.Float64()
	for k, w := range weights {
		if u < w {
			return opKind(k)
		}
		u -= w
	}
	return opRMW
}
