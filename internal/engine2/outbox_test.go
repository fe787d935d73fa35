package engine2

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"muppet/internal/cluster"
	"muppet/internal/core"
	"muppet/internal/event"
	"muppet/internal/queue"
)

// remoteApp routes one hop across nodes: M (map, subscribed to S0)
// republishes each event on S2; U (update) consumes S1 and S2; OVU
// counts the overflow stream OV. A U event whose value is "gate" parks
// U's thread until release is closed.
type remoteApp struct {
	applied, diverted atomic.Int64
	parked            chan struct{}
	release           chan struct{}
	releaseOnce       sync.Once
}

func newRemoteApp() *remoteApp {
	return &remoteApp{parked: make(chan struct{}, 1), release: make(chan struct{})}
}

func (r *remoteApp) unpark() { r.releaseOnce.Do(func() { close(r.release) }) }

func (r *remoteApp) app() *core.App {
	m := core.MapFunc{FName: "M", Fn: func(emit core.Emitter, in event.Event) {
		emit.Publish("S2", in.Key, in.Value)
	}}
	u := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, _ []byte) {
		if string(in.Value) == "gate" {
			r.parked <- struct{}{}
			<-r.release
			return
		}
		r.applied.Add(1)
	}}
	ovu := core.UpdateFunc{FName: "OVU", Fn: func(emit core.Emitter, in event.Event, _ []byte) {
		r.diverted.Add(1)
	}}
	return core.NewApp("remote").
		Input("S0", "S1", "OV").
		AddMap(m, []string{"S0"}, []string{"S2"}).
		AddUpdate(u, []string{"S1", "S2"}, nil, 0).
		AddUpdate(ovu, []string{"OV"}, nil, 0)
}

// remotePair starts two engine2 nodes over the in-process transport:
// a hosts machine-00 and b hosts machine-01. wrapA, when non-nil,
// decorates a's outbound transport.
func remotePair(t *testing.T, app *core.App, cfgA, cfgB Config, wrapA func(cluster.Transport) cluster.Transport) (a, b *Engine) {
	t.Helper()
	names := []string{"machine-00", "machine-01"}
	reg := cluster.NewInProc()
	var trA cluster.Transport = reg
	if wrapA != nil {
		trA = wrapA(reg)
	}
	ca := cluster.New(cluster.Config{Names: names, Local: names[:1], Transport: trA, Node: "node-a"})
	cb := cluster.New(cluster.Config{Names: names, Local: names[1:], Transport: reg, Node: "node-b"})
	reg.Register(ca)
	reg.Register(cb)
	cfgA.Cluster, cfgB.Cluster = ca, cb
	var err error
	if a, err = New(app, cfgA); err != nil {
		t.Fatal(err)
	}
	if b, err = New(app, cfgB); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// crossKey finds a key whose M and OVU invocations run on node a and
// whose U invocation runs on node b.
func crossKey(t *testing.T, e *Engine) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		k := fmt.Sprintf("k%d", i)
		if e.MachineFor("M", k) == "machine-00" && e.MachineFor("OVU", k) == "machine-00" &&
			e.MachineFor("U", k) == "machine-01" {
			return k
		}
	}
	t.Fatal("no key crosses from machine-00 to machine-01")
	return ""
}

// The batched (outbox) path and the per-event path settle a remote
// overflow identically. Node b's only thread is parked behind a gate
// with an empty queue of capacity 4, so of n offered deliveries exactly
// 4 are accepted and the rest overflow: dropped under Drop, diverted
// under Divert. Offering them through M exercises the worker outbox;
// ingesting them on S1 exercises the per-event Ingest path.
func TestOutboxSettlesLikePerEvent(t *testing.T) {
	const n, capacity = 40, 4
	type outcome struct {
		lost     map[string]uint64
		diverted uint64
	}
	run := func(t *testing.T, policy queue.OverflowPolicy, batched bool) outcome {
		r := newRemoteApp()
		a, b := remotePair(t, r.app(),
			Config{ThreadsPerMachine: 2, QueuePolicy: policy, OverflowStream: "OV"},
			Config{ThreadsPerMachine: 1, QueueCapacity: capacity, QueuePolicy: policy, OverflowStream: "OV"},
			nil)
		defer func() { r.unpark(); a.Stop(); b.Stop() }()
		key := crossKey(t, a)
		a.Ingest(event.Event{Stream: "S1", Key: key, Value: []byte("gate")})
		<-r.parked
		stream := "S1"
		if batched {
			stream = "S0"
		}
		for i := 0; i < n; i++ {
			a.Ingest(event.Event{Stream: stream, TS: event.Timestamp(i + 1), Key: key})
		}
		a.Drain()
		out := outcome{lost: a.LostEvents().Totals(), diverted: a.Stats().Diverted}
		r.unpark()
		b.Drain()
		a.Drain()
		var lost uint64
		for _, c := range out.lost {
			lost += c
		}
		applied := uint64(r.applied.Load())
		if applied != capacity {
			t.Fatalf("applied %d, want %d (the parked queue's capacity)", applied, capacity)
		}
		if applied+lost+out.diverted != n {
			t.Fatalf("applied %d + lost %d + diverted %d != offered %d", applied, lost, out.diverted, n)
		}
		if got := uint64(r.diverted.Load()); got != out.diverted {
			t.Fatalf("overflow stream applied %d, want the %d diverted", got, out.diverted)
		}
		return out
	}
	for _, policy := range []queue.OverflowPolicy{queue.Drop, queue.Divert} {
		t.Run(policy.String(), func(t *testing.T) {
			per := run(t, policy, false)
			bat := run(t, policy, true)
			if !reflect.DeepEqual(per, bat) {
				t.Fatalf("batched %+v, per-event %+v", bat, per)
			}
			if policy == queue.Divert && bat.diverted != n-capacity {
				t.Fatalf("diverted %d, want %d", bat.diverted, n-capacity)
			}
		})
	}
}

// gatedTransport holds every SendBatch until open is closed, after
// announcing it on sending.
type gatedTransport struct {
	cluster.Transport
	sending chan struct{}
	open    chan struct{}
}

func (g *gatedTransport) SendBatch(machine string, id cluster.BatchID, ds []cluster.Delivery) (int, []cluster.BatchReject, error) {
	g.sending <- struct{}{}
	<-g.open
	return g.Transport.SendBatch(machine, id, ds)
}

// A parent whose emits are staged for a remote machine stays unacked
// in the replay log — and unprocessed in the counters — until the
// outbox flush has handed them off, so a crash before the handoff
// replays the parent instead of losing its emits.
func TestParentAckedAfterRemoteHandoff(t *testing.T) {
	r := newRemoteApp()
	gate := &gatedTransport{sending: make(chan struct{}, 1), open: make(chan struct{})}
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate.open) }) }
	a, b := remotePair(t, r.app(), Config{ThreadsPerMachine: 1, ReplayLog: true}, Config{},
		func(tr cluster.Transport) cluster.Transport { gate.Transport = tr; return gate })
	defer func() { openGate(); a.Stop(); b.Stop() }()
	key := crossKey(t, a)
	a.Ingest(event.Event{Stream: "S0", Key: key})
	<-gate.sending
	log := a.machines["machine-00"].log
	if _, _, pending := log.Stats(); pending != 1 {
		t.Fatalf("replay log holds %d unacked envelopes during the handoff, want the parent", pending)
	}
	if p := a.Stats().Processed; p != 0 {
		t.Fatalf("processed = %d before the handoff, want 0", p)
	}
	openGate()
	a.Drain()
	b.Drain()
	if _, _, pending := log.Stats(); pending != 0 {
		t.Fatalf("replay log holds %d unacked envelopes after the handoff, want 0", pending)
	}
	if p := a.Stats().Processed; p != 1 {
		t.Fatalf("processed = %d after the handoff, want 1", p)
	}
	if got := r.applied.Load(); got != 1 {
		t.Fatalf("remote U applied %d, want 1", got)
	}
}
