package main

import (
	"io/fs"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"muppet"
	"muppet/internal/obs"
	"muppet/internal/slate"
)

// snapshot is every public stats surface of a cluster at one instant;
// the per-layer metrics are differences of two snapshots.
type snapshot struct {
	processed []uint64 // per node
	stats     muppet.Stats
	cache     slate.CacheStats
	flush     slate.FlushStats
	retries   uint64
	framesOut uint64
	bytesOut  uint64
	fsyncs    uint64
	diskWrite int64
	diskRead  int64
	compact   uint64
	cpu       time.Duration // user+system CPU of the process
	allocs    uint64        // heap objects allocated
	gcCPU     float64       // GC CPU seconds
	totalCPU  float64       // runtime CPU seconds
	trace     map[string]traceQ
}

// traceQ is one muppet_trace_* stage merged across nodes.
type traceQ struct {
	count    uint64
	p50, p99 float64 // seconds, count-weighted mean of the nodes' quantiles
}

type flushStatser interface{ FlushStats() slate.FlushStats }

func takeSnapshot(b *bench) snapshot {
	var s snapshot
	s.trace = make(map[string]traceQ)
	for _, n := range b.nodes {
		st := n.eng.Stats()
		s.processed = append(s.processed, st.Processed)
		s.stats.Processed += st.Processed
		s.stats.LostOverflow += st.LostOverflow
		cs := n.eng.SlateCacheStats()
		s.cache.Hits += cs.Hits
		s.cache.Misses += cs.Misses
		s.cache.StoreLoads += cs.StoreLoads
		s.cache.StoreSaves += cs.StoreSaves
		if f, ok := n.eng.(flushStatser); ok {
			s.flush.Add(f.FlushStats())
		}
		s.retries += n.eng.Cluster().DeliveryStats().Retries
		if t := n.tcp(); t != nil {
			ts := t.Stats()
			s.framesOut += ts.FramesOut
			s.bytesOut += ts.BytesOut
		}
		kv := n.store.Cluster().TotalStats()
		s.fsyncs += kv.Fsyncs
		s.diskWrite += kv.DiskBytesWritten
		s.diskRead += kv.DiskBytesRead
		s.compact += kv.Compactions
		for _, m := range n.eng.Metrics().Gather() {
			if m.Hist == nil || !strings.HasPrefix(m.Name, "muppet_trace_") {
				continue
			}
			q := s.trace[m.Name]
			c := m.Hist.Count
			if c > 0 {
				w0, w1 := float64(q.count), float64(c)
				q.p50 = (q.p50*w0 + quantile(m.Hist, 0.5)*w1) / (w0 + w1)
				q.p99 = (q.p99*w0 + quantile(m.Hist, 0.99)*w1) / (w0 + w1)
				q.count += c
			}
			s.trace[m.Name] = q
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	rm := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(rm)
	s.allocs = rm[0].Value.Uint64()
	s.gcCPU = rm[1].Value.Float64()
	s.totalCPU = rm[2].Value.Float64()
	return s
}

func quantile(h *obs.HistSample, q float64) float64 {
	for _, x := range h.Quantiles {
		if x.Q == q {
			return x.V
		}
	}
	return 0
}

// heapInuse is the runtime's HeapInuse: bytes in in-use heap spans.
func heapInuse() float64 {
	rm := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(rm)
	return float64(rm[0].Value.Uint64() + rm[1].Value.Uint64())
}

// heapWindow is the span over which the sampler keeps one heap peak.
const heapWindow = time.Second

// sampler polls the heap, and in traced runs the deepest queue, until
// stopped. It keeps the peak HeapInuse of every heapWindow.
type sampler struct {
	mu       sync.Mutex
	peaks    []float64 // one per completed window
	depthMax int
	quit     chan struct{}
	done     chan struct{}
}

func startSampler(b *bench, queues bool) *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		windowEnd := time.Now().Add(heapWindow)
		peak := 0.0
		for {
			peak = max(peak, heapInuse())
			depth := 0
			if queues {
				for _, n := range b.nodes {
					for _, d := range n.eng.LargestQueues() {
						depth = max(depth, d)
					}
				}
			}
			s.mu.Lock()
			s.depthMax = max(s.depthMax, depth)
			if time.Now().After(windowEnd) {
				s.peaks = append(s.peaks, peak)
				peak = 0
				windowEnd = windowEnd.Add(heapWindow)
			}
			s.mu.Unlock()
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// heapPeak is the median over the windows completed so far of each
// window's peak HeapInuse. Every window spans several GC cycles, so its
// peak is the heap the collector lets the live set grow to; the median
// discards windows a stall stretched.
func (s *sampler) heapPeak() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(s.peaks)
}

func (s *sampler) stop() {
	close(s.quit)
	<-s.done
}

// mergedEngineLatency is the engines' own ingress-to-slate-update p50
// (Counters().Latency) in ms, merged across nodes weighted by count.
func mergedEngineLatency(b *bench) float64 {
	var sum, cnt float64
	for _, n := range b.nodes {
		h := n.eng.Counters().Latency
		c := float64(h.Count())
		sum += float64(h.Quantile(0.5)) / 1e6 * c
		cnt += c
	}
	if cnt == 0 {
		return 0
	}
	return sum / cnt
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) float64 {
	if dir == "" {
		return 0
	}
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of a traced run: counter
// deltas over the whole measured run (before..after) or, for the
// process layer, over the saturation phase; harness spans; and the
// engines' sampled trace stages.
func layerMetrics(r *run, smp *sampler, diskBytes float64, before, after, satBefore, satAfter snapshot, p pacedResult, sat satResult) map[string]metric {
	events := float64(r.offered)
	m := map[string]metric{}
	us := func(sec float64) float64 { return sec * 1e6 }
	tr := func(stage string) traceQ { return after.trace["muppet_trace_"+stage+"_seconds"] }

	calls := summarize(r.callUS)
	m["ingress.call_p50_us"] = metric{calls.P50, "us"}
	m["ingress.call_p99_us"] = metric{calls.P99, "us"}
	m["ingress.accept_p99_us"] = metric{us(tr("ingest_accept").p99), "us"}

	m["cluster.frames_per_event"] = metric{ratio(float64(after.framesOut-before.framesOut), events), "frames"}
	m["cluster.bytes_per_event"] = metric{ratio(float64(after.bytesOut-before.bytesOut), events), "B"}
	m["cluster.retries"] = metric{float64(after.retries - before.retries), "count"}
	var maxP, sumP float64
	for i := range after.processed {
		d := float64(after.processed[i] - before.processed[i])
		maxP = max(maxP, d)
		sumP += d
	}
	m["cluster.node_skew"] = metric{ratio(maxP, sumP/float64(len(after.processed))), "ratio"}

	m["queue.wait_p50_us"] = metric{us(tr("queue_wait").p50), "us"}
	m["queue.wait_p99_us"] = metric{us(tr("queue_wait").p99), "us"}
	smp.mu.Lock()
	m["queue.depth_max"] = metric{float64(smp.depthMax), "events"}
	smp.mu.Unlock()
	m["queue.lost_overflow"] = metric{float64(after.stats.LostOverflow - before.stats.LostOverflow), "count"}

	m["engine.exec_p50_us"] = metric{us(tr("exec").p50), "us"}
	m["engine.exec_p99_us"] = metric{us(tr("exec").p99), "us"}
	m["engine.emit_p99_us"] = metric{us(tr("emit").p99), "us"}

	hits := float64(after.cache.Hits - before.cache.Hits)
	misses := float64(after.cache.Misses - before.cache.Misses)
	m["slate.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["slate.store_loads_per_event"] = metric{ratio(float64(after.cache.StoreLoads-before.cache.StoreLoads), events), "loads"}
	m["slate.store_saves_per_event"] = metric{ratio(float64(after.cache.StoreSaves-before.cache.StoreSaves), events), "saves"}
	m["slate.flush_records_per_batch"] = metric{ratio(float64(after.flush.Records-before.flush.Records), float64(after.flush.Batches-before.flush.Batches)), "records"}
	m["slate.flush_settle_p99_ms"] = metric{tr("flush_settle").p99 * 1e3, "ms"}

	m["lsm.fsyncs_per_event"] = metric{ratio(float64(after.fsyncs-before.fsyncs), events), "fsyncs"}
	m["lsm.write_bytes_per_event"] = metric{ratio(float64(after.diskWrite-before.diskWrite), events), "B"}
	m["lsm.read_bytes_per_miss"] = metric{ratio(float64(after.diskRead-before.diskRead), misses), "B"}
	m["lsm.compactions"] = metric{float64(after.compact - before.compact), "count"}
	m["lsm.disk_bytes"] = metric{diskBytes, "B"}
	gets := summarize(r.getUS)
	m["lsm.get_p50_us"] = metric{gets.P50, "us"}
	m["lsm.get_p99_us"] = metric{gets.P99, "us"}
	m["lsm.reopen_s"] = metric{r.reopenS, "s"}

	m["query.topk_p50_ms"] = metric{summarize(p.topkMS).P50, "ms"}
	m["query.range_p50_ms"] = metric{summarize(p.rangeMS).P50, "ms"}
	m["query.rows_scanned_per_query"] = metric{ratio(float64(p.qRows), float64(p.qServedOK)), "rows"}
	m["query.wire_bytes_per_query"] = metric{ratio(float64(p.qWire), float64(p.qServedOK)), "B"}

	satEvents := float64(sat.completed)
	m["proc.cpu_us_per_event"] = metric{ratio(float64(satAfter.cpu-satBefore.cpu)/1e3, satEvents), "us"}
	m["proc.allocs_per_event"] = metric{ratio(float64(satAfter.allocs-satBefore.allocs), satEvents), "allocs"}
	m["proc.gc_cpu_frac"] = metric{ratio(satAfter.gcCPU-satBefore.gcCPU, satAfter.totalCPU-satBefore.totalCPU), "ratio"}
	return m
}
