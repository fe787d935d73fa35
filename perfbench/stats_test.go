package main

import (
	"math"
	"sync"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(200 - i) // 200..1, unsorted
	}
	d := summarize(samples)
	if d.N != 200 {
		t.Fatalf("N = %d, want 200", d.N)
	}
	// Nearest rank: p50 is the 100th smallest, p99 the 198th.
	if d.P50 != 100 || d.P99 != 198 {
		t.Fatalf("p50=%v p99=%v, want 100 and 198", d.P50, d.P99)
	}
	for _, tc := range []struct {
		in   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2}, 0.5, 1},
		{[]float64{1, 2}, 0.99, 2},
		{[]float64{1, 2, 3}, 0.01, 1},
	} {
		if got := percentile(tc.in, tc.q); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.in, tc.q, got, tc.want)
		}
	}
}

func TestWindowCompletionAccounting(t *testing.T) {
	w := newWindow(10)
	if w.room() != 10 {
		t.Fatalf("fresh room = %d, want 10", w.room())
	}
	w.sent(8)
	if w.room() != 2 {
		t.Fatalf("after 8 sent: room %d, want 2", w.room())
	}
	// Completions arrive from many handler goroutines at once.
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.done()
		}()
	}
	wg.Wait()
	if w.room() != 7 {
		t.Fatalf("after 5 done: room %d, want 7", w.room())
	}
	select {
	case <-w.wake:
	default:
		t.Fatal("a completion left no wake-up for the sender")
	}
	// Wake-ups coalesce: the buffer holds one pending signal at most.
	select {
	case <-w.wake:
		t.Fatal("more than one wake-up was buffered")
	default:
	}
	w.sent(7)
	if w.room() != 0 {
		t.Fatalf("full window has room %d", w.room())
	}
}

func TestFailFrac(t *testing.T) {
	for _, tc := range []struct {
		name                                string
		evOffered, applied, qOffered, qFail int64
		want                                float64
	}{
		{"nothing offered", 0, 0, 0, 0, 0},
		{"all applied", 1000, 1000, 10, 0, 0},
		{"lost events", 1000, 990, 0, 0, 0.01},
		{"failed queries count too", 990, 990, 10, 5, 0.005},
		{"both", 900, 800, 100, 100, 0.2},
	} {
		if got := failFrac(tc.evOffered, tc.applied, tc.qOffered, tc.qFail); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: failFrac = %v, want %v", tc.name, got, tc.want)
		}
	}
}
