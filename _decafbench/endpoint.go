package main

import (
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// maxCaptured bounds the messages a traced run keeps for wire sizing.
const maxCaptured = 50000

// netTap is shared by every endpoint of one cluster. Untraced it only
// counts sends and messages. Traced it also times each send, stamps
// every message per ordered site pair so a delivery can be matched to
// its send by FIFO ordinal, and keeps copies of sent messages for the
// wire.* measurements.
type netTap struct {
	tr       *tracer // nil when untraced
	injected time.Duration

	sends     atomic.Uint64
	msgs      atomic.Uint64
	sendNanos atomic.Int64

	mu       sync.Mutex
	inflight map[sitePair][]sendStamp // guarded by mu
	lags     samples                  // guarded by mu
	captured []wire.Message           // guarded by mu

	pumps sync.WaitGroup
}

type sitePair struct{ from, to vtime.SiteID }

type sendStamp struct {
	at int64
	vt vtime.VT
}

func newNetTap(tr *tracer, injected time.Duration) *netTap {
	return &netTap{tr: tr, injected: injected, inflight: map[sitePair][]sendStamp{}}
}

// wrap returns the instrumented endpoint the engine site is given.
func (n *netTap) wrap(ep transport.Endpoint) *tapEndpoint {
	t := &tapEndpoint{Endpoint: ep, tap: n, events: ep.Events()}
	t.batch, _ = ep.(transport.BatchSender)
	if n.tr != nil {
		out := make(chan transport.Event, cap(ep.Events()))
		t.events = out
		n.pumps.Add(1)
		go t.pump(out)
	}
	return t
}

// tapEndpoint forwards every call to the wrapped endpoint unchanged.
type tapEndpoint struct {
	transport.Endpoint
	batch  transport.BatchSender
	tap    *netTap
	events <-chan transport.Event
}

var (
	_ transport.Endpoint    = (*tapEndpoint)(nil)
	_ transport.BatchSender = (*tapEndpoint)(nil)
)

func (t *tapEndpoint) Events() <-chan transport.Event { return t.events }

func (t *tapEndpoint) Send(to vtime.SiteID, sentAt vtime.VT, msg wire.Message) error {
	t.tap.sends.Add(1)
	t.tap.msgs.Add(1)
	if t.tap.tr == nil {
		return t.Endpoint.Send(to, sentAt, msg)
	}
	msgs := []wire.Message{msg}
	start := nowNanos()
	err := t.Endpoint.Send(to, sentAt, msg)
	t.tap.sent(t.Site(), to, msgs, start, err)
	return err
}

func (t *tapEndpoint) SendBatch(to vtime.SiteID, sentAt vtime.VT, msgs []wire.Message) error {
	t.tap.sends.Add(1)
	t.tap.msgs.Add(uint64(len(msgs)))
	var start int64
	if t.tap.tr != nil {
		start = nowNanos()
	}
	var err error
	if t.batch != nil {
		err = t.batch.SendBatch(to, sentAt, msgs)
	} else {
		for _, m := range msgs {
			if err = t.Endpoint.Send(to, sentAt, m); err != nil {
				break
			}
		}
	}
	if t.tap.tr != nil {
		t.tap.sent(t.Site(), to, msgs, start, err)
	}
	return err
}

// sent records one traced send call: its duration as a transport.send
// span attributed to the first message's transaction, and a stamp per
// message for delivery matching.
func (n *netTap) sent(from, to vtime.SiteID, msgs []wire.Message, start int64, err error) {
	end := nowNanos()
	n.sendNanos.Add(end - start)
	n.tr.add(span{name: "transport.send", start: start, end: end, vt: txnVT(msgs[0])})
	if err != nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	p := sitePair{from, to}
	for _, m := range msgs {
		n.inflight[p] = append(n.inflight[p], sendStamp{at: start, vt: txnVT(m)})
		if len(n.captured) < maxCaptured {
			n.captured = append(n.captured, m)
		}
	}
}

// pump forwards the wrapped endpoint's events, stamping each message's
// arrival: delivery lag is arrival minus send minus the injected
// one-way latency.
func (t *tapEndpoint) pump(out chan<- transport.Event) {
	defer t.tap.pumps.Done()
	defer close(out)
	self := t.Site()
	for ev := range t.Endpoint.Events() {
		if ev.Kind == transport.EventMessage {
			t.tap.received(sitePair{ev.From, self})
		}
		out <- ev
	}
}

func (n *netTap) received(p sitePair) {
	now := nowNanos()
	n.mu.Lock()
	q := n.inflight[p]
	if len(q) == 0 {
		n.mu.Unlock()
		return
	}
	st := q[0]
	n.inflight[p] = q[1:]
	n.lags = append(n.lags, now-st.at-int64(n.injected))
	n.mu.Unlock()
	n.tr.add(span{name: "transport.deliver", start: st.at, end: now, vt: st.vt})
}

var vtType = reflect.TypeOf(vtime.VT{})

// txnVT extracts the TxnVT field most protocol messages carry; the zero
// VT for messages that belong to no transaction.
func txnVT(m wire.Message) vtime.VT {
	v := reflect.ValueOf(m)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return vtime.VT{}
	}
	f := v.FieldByName("TxnVT")
	if !f.IsValid() || f.Type() != vtType {
		return vtime.VT{}
	}
	return f.Interface().(vtime.VT)
}

var epoch = time.Now()

// nowNanos is a monotonic clock reading in nanoseconds.
func nowNanos() int64 { return int64(time.Since(epoch)) }
