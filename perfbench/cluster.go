package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"muppet"
	"muppet/internal/cluster"
)

// node is one Muppet node: an engine and the store it owns.
type node struct {
	name  string
	eng   muppet.Engine
	store *muppet.Store
}

// bench is one running cluster of the workload under test.
type bench struct {
	nodes []*node
	dir   string // durable store directory, "" for in-memory stores
}

// startBench builds the workload's cluster. Networked workloads start
// one engine per member, each with its own in-memory store and
// listening on an ephemeral loopback port; member addresses are wired
// in once every listener is bound, so the harness opens no socket of
// its own.
func startBench(w *workload, trace bool, dir string) (*bench, error) {
	b := &bench{dir: dir}
	cfg := muppet.Config{Engine: w.engine, FlushPolicy: w.flush, CacheCapacity: w.cacheCapacity}
	if trace {
		cfg.Observability = muppet.ObservabilityConfig{Tracing: true}
	}
	names := make([]string, w.nodes)
	for i := range names {
		names[i] = fmt.Sprintf("machine-%02d", i)
	}
	for _, name := range names {
		store, err := muppet.OpenStore(muppet.StoreConfig{Dir: dir})
		if err != nil {
			b.stop()
			return nil, fmt.Errorf("open store: %w", err)
		}
		ncfg := cfg
		ncfg.Store = store
		if w.nodes > 1 {
			peers := make(map[string]string, len(names)-1)
			for _, p := range names {
				if p != name {
					peers[p] = "127.0.0.1:1" // replaced below once bound
				}
			}
			ncfg.Network = &muppet.NetworkConfig{Node: name, Listen: "127.0.0.1:0", Peers: peers}
		}
		eng, err := muppet.NewEngine(newApp(), ncfg)
		if err != nil {
			store.Close()
			b.stop()
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		b.nodes = append(b.nodes, &node{name: name, eng: eng, store: store})
	}
	for _, n := range b.nodes {
		for _, p := range b.nodes {
			if p != n {
				n.tcp().AddPeer(p.name, p.tcp().Addr())
			}
		}
	}
	return b, nil
}

// tcp is the node's TCP transport, nil without a network.
func (n *node) tcp() *cluster.TCP {
	t, _ := n.eng.Cluster().Transport().(*cluster.TCP)
	return t
}

// drain waits until every node has processed everything it accepted.
// A node's Drain is node-local and a drained node can receive work
// from one still busy, so passes repeat until one changes nothing.
func (b *bench) drain() {
	processed := func() (sum uint64) {
		for _, n := range b.nodes {
			sum += n.eng.Stats().Processed
		}
		return sum
	}
	for {
		before := processed()
		for _, n := range b.nodes {
			n.eng.Drain()
		}
		if processed() == before {
			return
		}
	}
}

// stop stops every engine, then closes their stores.
func (b *bench) stop() {
	for _, n := range b.nodes {
		n.eng.Stop()
	}
	for _, n := range b.nodes {
		n.store.Close()
	}
	b.nodes = nil
}

// timedSetups starts the workload's cluster k times, timing each start
// from the first OpenStore until every node accepts ingest, and keeps
// the last cluster running. Durable stores get a fresh directory each
// time.
func timedSetups(w *workload, trace bool, tmp string, k int) (*bench, []float64, error) {
	var times []float64
	var b *bench
	for i := 0; i < k; i++ {
		if b != nil {
			b.stop()
			os.RemoveAll(b.dir)
		}
		dir := ""
		if w.durable {
			var err error
			if dir, err = os.MkdirTemp(tmp, "store-"); err != nil {
				return nil, nil, err
			}
		}
		// Collect the previous round's cluster first, so its garbage is
		// not charged to this start.
		runtime.GC()
		start := time.Now()
		var err error
		if b, err = startBench(w, trace, dir); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return b, times, nil
}
