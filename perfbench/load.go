package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"muppet"
	"muppet/internal/slate"
)

// ingestBatchMax bounds the events one IngestBatch call carries.
const ingestBatchMax = 256

// run drives one cluster. A single goroutine offers events; the output
// handlers on every node count completions and record latencies.
type run struct {
	w  *workload
	in *inputs
	b  *bench

	offered  int64 // events offered so far; the next input index
	accepted int64 // events IngestBatch accepted
	applied  int64 // completions, settled by verify
	rr       int
	buf      []muppet.Event

	completed atomic.Int64
	win       atomic.Pointer[window]
	lat       atomic.Pointer[latRec]

	callUS []float64 // IngestBatch spans of the measured paced phase

	ref       map[string]int64 // reference counts, set by verify
	refEPS    float64
	getUS     []float64 // Store.Cluster().Get spans of the verification reads
	reopenS   float64
	verifyErr string
}

func newRun(w *workload, in *inputs, b *bench) *run {
	r := &run{w: w, in: in, b: b, buf: make([]muppet.Event, 0, ingestBatchMax)}
	for _, n := range b.nodes {
		n.eng.AttachOutput("O1", muppet.OutputHandlerFunc(r.output))
	}
	return r
}

// output sees one applied event.
func (r *run) output(ev muppet.Event) {
	now := time.Now().UnixNano()
	r.completed.Add(1)
	if l := r.lat.Load(); l != nil {
		l.observe(ev.Ingress, now)
	}
	if w := r.win.Load(); w != nil {
		w.done()
	}
}

// latRec records the output latency of events whose scheduled time
// falls in [from, to). Slots are claimed atomically, so handlers on
// any goroutine can record without a lock.
type latRec struct {
	from, to int64
	n        atomic.Int64
	ms       []float64
}

func newLatRec(from int64, d time.Duration, capacity int) *latRec {
	return &latRec{from: from, to: from + int64(d), ms: make([]float64, capacity)}
}

func (l *latRec) observe(ingress, now int64) {
	if ingress < l.from || ingress >= l.to {
		return
	}
	if i := l.n.Add(1) - 1; i < int64(len(l.ms)) {
		l.ms[i] = float64(now-ingress) / 1e6
	}
}

func (l *latRec) samples() []float64 {
	return l.ms[:min(l.n.Load(), int64(len(l.ms)))]
}

// send offers the next n inputs to the next node in round-robin
// order. Input i of the call is stamped with Ingress ingress(i).
func (r *run) send(n int, ingress func(i int64) int64) time.Duration {
	r.buf = r.buf[:0]
	for i := int64(0); i < int64(n); i++ {
		ev := r.in.event(r.offered + i)
		ev.Ingress = ingress(i)
		r.buf = append(r.buf, ev)
	}
	eng := r.b.nodes[r.rr%len(r.b.nodes)].eng
	r.rr++
	start := time.Now()
	acc, _ := eng.IngestBatch(r.buf) // rejected events are logged lost; verify accounts for them
	d := time.Since(start)
	r.offered += int64(n)
	r.accepted += int64(acc)
	return d
}

// pacedResult is what the measured paced phase reports.
type pacedResult struct {
	event     dist
	lateP99   float64
	query     dist
	qOffered  int
	qFailed   int
	topkMS    []float64
	rangeMS   []float64
	qRows     uint64
	qWire     uint64
	qServedOK int
}

// paced offers events open-loop at the workload's rate for d. Each
// event's Ingress is its scheduled time, so a stall of the generator or
// the engine is charged to every event due during it. It returns each
// event's lateness: how long after its scheduled time it was offered.
func (r *run) paced(d time.Duration, spans *[]float64) []float64 {
	total := int64(r.w.pacedRate * d.Seconds())
	late := make([]float64, 0, total)
	start := time.Now()
	base := start.UnixNano()
	interval := float64(time.Second) / r.w.pacedRate
	due := func(i int64) int64 { return base + int64(float64(i)*interval) }
	for i := int64(0); i < total; {
		now := time.Now().UnixNano()
		if next := due(i); next > now {
			time.Sleep(time.Duration(next - now))
			continue
		}
		n := int64(0)
		for i+n < total && n < ingestBatchMax && due(i+n) <= now {
			late = append(late, float64(now-due(i+n))/1e6)
			n++
		}
		first := i
		call := r.send(int(n), func(j int64) int64 { return due(first + j) })
		if spans != nil {
			*spans = append(*spans, float64(call)/1e3)
		}
		i += n
	}
	return late
}

// pacedMeasured runs the measured paced phase, with the query
// generator beside it when the workload has one.
func (r *run) pacedMeasured(d time.Duration, qs []muppet.QuerySpec) pacedResult {
	var res pacedResult
	start := time.Now().UnixNano()
	l := newLatRec(start, d, int(r.w.pacedRate*d.Seconds())+ingestBatchMax)
	r.lat.Store(l)
	var wg sync.WaitGroup
	if r.w.queryRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.queries(r.b, qs, r.w.queryRate, d)
		}()
	}
	late := r.paced(d, &r.callUS)
	wg.Wait()
	r.b.drain()
	r.lat.Store(nil)
	res.event = summarize(l.samples())
	res.lateP99 = summarize(late).P99
	return res
}

// genQueries pre-generates the query mix: one top-10-by-count over U1
// for every three narrow range scans of 200 users with a predicate.
func genQueries(seed int64, w *workload) []muppet.QuerySpec {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	qs := make([]muppet.QuerySpec, 256)
	for i := range qs {
		if i%4 == 0 {
			qs[i] = muppet.QuerySpec{Updater: "U1", Agg: "topk", By: "count", K: 10}
			continue
		}
		lo := rng.Intn(w.users - 200)
		qs[i] = muppet.QuerySpec{Updater: "U1", Start: userKey(lo), End: userKey(lo + 200),
			Where: []muppet.QueryPred{{Field: "count", Op: ">=", Value: "2"}}}
	}
	return qs
}

// queries issues qs open-loop at rate per second for d, rotating the
// coordinator node, and times each from its scheduled time.
func (res *pacedResult) queries(b *bench, qs []muppet.QuerySpec, rate float64, d time.Duration) {
	total := int(rate * d.Seconds())
	start := time.Now()
	var lat []float64
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		time.Sleep(time.Until(due))
		spec := qs[i%len(qs)]
		call := time.Now()
		out, err := b.nodes[i%len(b.nodes)].eng.Query(spec)
		done := time.Now()
		res.qOffered++
		if err != nil {
			res.qFailed++
			continue
		}
		lat = append(lat, float64(done.Sub(due))/1e6)
		svc := float64(done.Sub(call)) / 1e6
		if spec.Agg == "topk" {
			res.topkMS = append(res.topkMS, svc)
		} else {
			res.rangeMS = append(res.rangeMS, svc)
		}
		res.qRows += out.Stats.RowsScanned
		res.qWire += out.Stats.WireBytes
		res.qServedOK++
	}
	res.query = summarize(lat)
}

// readbackQueries is how many queries of the mix a workload without
// live queries reads back at rest, closed-loop, after its paced phase.
const readbackQueries = 100

// readback times closed-loop queries of the mix over the state the
// fixed paced phase left, for workloads without live queries.
func (r *run) readback(qs []muppet.QuerySpec) dist {
	if r.w.queryRate > 0 {
		return dist{}
	}
	var lat []float64
	for i := 0; i < readbackQueries; i++ {
		start := time.Now()
		if _, err := r.b.nodes[i%len(r.b.nodes)].eng.Query(qs[i%len(qs)]); err != nil {
			r.verifyErr = fmt.Sprintf("read-back query %d: %v", i, err)
			continue
		}
		lat = append(lat, float64(time.Since(start))/1e6)
	}
	return summarize(lat)
}

// saturationSlice is the span of one completion-rate sample of the
// saturation phase; the phase reports the median sample, so one stall
// does not decide a run's figure.
const saturationSlice = 500 * time.Millisecond

// satResult is the saturation phase's outcome.
type satResult struct {
	eps       float64 // median over slices of the completion rate
	completed int64
	slices    int
}

// saturate runs the windowed closed loop for d: at most
// saturationWindow events outstanding, each offered as soon as an
// earlier one completes. It reports the median completion rate over
// the phase's slices.
func (r *run) saturate(d time.Duration) satResult {
	w := newWindow(saturationWindow)
	r.win.Store(w)
	start := time.Now()
	deadline := start.Add(d)
	timer := time.NewTimer(d)
	defer timer.Stop()
	var rates []float64
	sliceStart, sliceDone := start, int64(0)
	const minSend = 32
	for {
		now := time.Now()
		if el := now.Sub(sliceStart); el >= saturationSlice {
			done := w.completed.Load()
			rates = append(rates, float64(done-sliceDone)/el.Seconds())
			sliceStart, sliceDone = now, done
		}
		if !now.Before(deadline) {
			break
		}
		room := w.room()
		if room < minSend {
			select {
			case <-w.wake:
			case <-timer.C:
			}
			continue
		}
		n := min(room, ingestBatchMax)
		stamp := now.UnixNano()
		r.send(int(n), func(int64) int64 { return stamp })
		w.sent(n)
	}
	r.win.Store(nil)
	return satResult{eps: median(rates), completed: w.completed.Load(), slices: len(rates)}
}

// lostTotal sums every node's lost-event log.
func (r *run) lostTotal() int64 {
	var n int64
	for _, nd := range r.b.nodes {
		for _, v := range nd.eng.LostEvents().Totals() {
			n += int64(v)
		}
	}
	return n
}

// verify is the oracle, run on the drained cluster: every offered event
// is either applied once or logged lost, and the per-user counts read
// back through a Query scan equal the reference exactly when nothing
// was lost, or otherwise sum to what was applied.
func (r *run) verify() bool {
	ref, eps := reference(r.in, r.offered)
	r.ref, r.refEPS = ref, eps
	lost := r.lostTotal()
	r.applied = r.completed.Load()
	fail := func(format string, a ...any) bool {
		r.verifyErr = fmt.Sprintf(format, a...)
		fmt.Fprintln(os.Stderr, "perfbench: oracle:", r.verifyErr)
		return false
	}
	if r.verifyErr != "" {
		return fail("%s", r.verifyErr)
	}
	if r.applied+lost != r.offered {
		return fail("applied %d + lost %d != offered %d (accepted %d)", r.applied, lost, r.offered, r.accepted)
	}
	res, err := r.b.nodes[0].eng.Query(muppet.QuerySpec{Updater: "U1"})
	if err != nil {
		return fail("scan: %v", err)
	}
	got := make(map[string]int64, len(res.Rows))
	var sum int64
	for _, row := range res.Rows {
		var c counter
		if err := json.Unmarshal(row.Value, &c); err != nil {
			return fail("decode %s: %v", row.Key, err)
		}
		got[row.Key] = c.Count
		sum += c.Count
	}
	if lost > 0 {
		if sum != r.applied {
			return fail("counts sum to %d, applied %d", sum, r.applied)
		}
		return true
	}
	if len(got) != len(ref) {
		return fail("%d users in the scan, %d in the reference", len(got), len(ref))
	}
	for k, want := range ref {
		if got[k] != want {
			return fail("user %s: count %d, reference %d", k, got[k], want)
		}
	}
	// Every node flushes, and each user's slate must then be in the
	// store of exactly the node that owns it.
	for _, n := range r.b.nodes {
		n.eng.FlushSlates()
	}
	for k, want := range ref {
		found := 0
		for _, n := range r.b.nodes {
			v, ok, err := r.timedGet(n.store, k)
			if err != nil {
				return fail("get %s: %v", k, err)
			}
			if ok {
				found++
				if v != want {
					return fail("stored %s: count %d, reference %d", k, v, want)
				}
			}
		}
		if found != 1 {
			return fail("user %s stored on %d nodes", k, found)
		}
	}
	return true
}

// timedGet reads one user's U1 slate straight from a store, timing the
// call as an lsm.get span.
func (r *run) timedGet(s *muppet.Store, user string) (int64, bool, error) {
	start := time.Now()
	v, ok, _, err := s.Cluster().Get(user, "U1", muppet.One)
	r.getUS = append(r.getUS, float64(time.Since(start))/1e3)
	if err != nil || !ok {
		return 0, ok, err
	}
	raw, err := slate.Decode(v)
	if err != nil {
		return 0, false, fmt.Errorf("decode %s: %w", user, err)
	}
	var c counter
	if err := json.Unmarshal(raw, &c); err != nil {
		return 0, false, fmt.Errorf("decode %s: %w", user, err)
	}
	return c.Count, true, nil
}

// verifyReopened closes the durable store of the stopped single-node
// cluster, reopens its directory as a restarted node would, and checks
// every user's slate read back from it against the reference.
func (r *run) verifyReopened() bool {
	start := time.Now()
	s, err := muppet.OpenStore(muppet.StoreConfig{Dir: r.b.dir})
	r.reopenS = time.Since(start).Seconds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: oracle: reopen:", err)
		return false
	}
	defer s.Close()
	for k, want := range r.ref {
		got, ok, err := r.timedGet(s, k)
		if err != nil || !ok || got != want {
			fmt.Fprintf(os.Stderr, "perfbench: oracle: reopened %s: count %d (found %v, err %v), reference %d\n", k, got, ok, err, want)
			return false
		}
	}
	return true
}
