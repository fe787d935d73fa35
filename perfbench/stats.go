package main

import (
	"math"
	"sort"
	"sync/atomic"
)

// dist is a latency summary: the median, the 99th percentile and the
// number of samples both were taken from.
type dist struct {
	P50, P99 float64
	N        int
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// sorted samples, or 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// summarize sorts samples in place and returns their median and p99.
func summarize(samples []float64) dist {
	sort.Float64s(samples)
	return dist{P50: percentile(samples, 0.50), P99: percentile(samples, 0.99), N: len(samples)}
}

// failFrac is the share of offered work that did not complete: events
// offered but never applied plus queries that failed, over everything
// offered. A lost or rejected event counts as missing every latency
// limit.
func failFrac(evOffered, evApplied, qOffered, qFailed int64) float64 {
	total := evOffered + qOffered
	if total == 0 {
		return 0
	}
	return float64(evOffered-evApplied+qFailed) / float64(total)
}

// window is the closed-loop admission control of the saturation
// phase: at most limit events are outstanding, where an event is
// outstanding from the moment it is offered until its output event is
// seen. The sender calls room and sent; output handlers call done from
// any goroutine.
type window struct {
	limit     int64
	offered   int64 // sender-owned
	completed atomic.Int64
	wake      chan struct{}
}

func newWindow(limit int64) *window {
	return &window{limit: limit, wake: make(chan struct{}, 1)}
}

// room is how many more events may be offered now.
func (w *window) room() int64 {
	return w.limit - (w.offered - w.completed.Load())
}

// sent records n offered events.
func (w *window) sent(n int64) { w.offered += n }

// done records one completion and wakes a waiting sender.
func (w *window) done() {
	w.completed.Add(1)
	select {
	case w.wake <- struct{}{}:
	default:
	}
}
