package cluster

import (
	"fmt"
	"testing"
)

func dedupID(seq uint64) BatchID { return BatchID{Sender: "node-a", Epoch: 1, Seq: seq} }

// fill applies seqs in order, committing each, and fails on any
// spurious duplicate.
func fill(t *testing.T, tab *dedupTable, seqs ...uint64) {
	t.Helper()
	for _, seq := range seqs {
		e, dup := tab.begin(dedupID(seq))
		if dup || e == nil {
			t.Fatalf("seq %d: entry=%v dup=%v, want fresh cached apply", seq, e, dup)
		}
		e.commit(int(seq), nil, nil)
	}
}

// The window is exactly the last `window` seqs up to the maximum: the
// oldest of them is still absorbed with its cached outcome, and the
// seq one older is applied uncached without evicting the live slot it
// shares with the maximum.
func TestDedupWindowBoundary(t *testing.T) {
	const window = 8
	tab := newDedupTable(window)
	for seq := uint64(1); seq <= 20; seq++ {
		fill(t, tab, seq)
	}
	// The window is seqs 13..20.
	e, dup := tab.begin(dedupID(13))
	if !dup || e.accepted != 13 {
		t.Fatalf("oldest in-window seq 13: entry=%+v dup=%v, want cached outcome 13", e, dup)
	}
	if e, dup := tab.begin(dedupID(12)); dup || e != nil {
		t.Fatalf("seq 12 (window behind max 20): entry=%v dup=%v, want uncached apply", e, dup)
	}
	// Seq 12 shares seq 20's slot; the uncached apply left it intact.
	if e, dup := tab.begin(dedupID(20)); !dup || e.accepted != 20 {
		t.Fatalf("max seq 20 after the stale apply: entry=%+v dup=%v, want cached outcome 20", e, dup)
	}
	if n := tab.size(); n != window {
		t.Fatalf("size = %d, want %d", n, window)
	}
}

// Seqs reach a receiver sparsely because the sender's counter is
// shared across destinations: empty slots stay empty, a fresh seq
// overwrites only a slot whose seq has left the window, and size
// counts exactly the occupied slots.
func TestDedupSparseSeqs(t *testing.T) {
	const window = 8
	tab := newDedupTable(window)
	fill(t, tab, 1, 4, 6)
	if n := tab.size(); n != 3 {
		t.Fatalf("size = %d, want 3", n)
	}
	// Seq 9 lands in seq 1's slot (1 is outside the window 2..9) and
	// overwrites it: the resident count is unchanged.
	fill(t, tab, 9)
	if n := tab.size(); n != 3 {
		t.Fatalf("size after overwrite = %d, want 3", n)
	}
	for _, seq := range []uint64{4, 6, 9} {
		if _, dup := tab.begin(dedupID(seq)); !dup {
			t.Fatalf("seq %d not deduplicated", seq)
		}
	}
	// A never-seen seq inside the window is fresh even though its
	// neighbours are resident, and takes an empty slot.
	fill(t, tab, 7)
	if n := tab.size(); n != 4 {
		t.Fatalf("size = %d, want 4", n)
	}
	// Seq 1 is now out of the window: applied uncached.
	if e, dup := tab.begin(dedupID(1)); dup || e != nil {
		t.Fatalf("seq 1: entry=%v dup=%v, want uncached apply", e, dup)
	}
	// A jump far past the window overwrites nothing live and keeps
	// every resident entry counted once.
	fill(t, tab, 1000)
	if n := tab.size(); n != 5 {
		t.Fatalf("size after jump = %d, want 5", n)
	}
	if _, dup := tab.begin(dedupID(9)); dup {
		t.Fatal("seq 9 deduplicated after leaving the window")
	}
}

// size is a counter over every sender's occupied slots, and a new
// sender incarnation releases the old one's count.
func TestDedupSizeAcrossSenders(t *testing.T) {
	tab := newDedupTable(4)
	for seq := uint64(1); seq <= 3; seq++ {
		for _, s := range []string{"node-a", "node-b"} {
			e, _ := tab.begin(BatchID{Sender: s, Epoch: 1, Seq: seq})
			e.commit(1, nil, nil)
		}
	}
	if n := tab.size(); n != 6 {
		t.Fatalf("size = %d, want 6", n)
	}
	e, _ := tab.begin(BatchID{Sender: "node-a", Epoch: 2, Seq: 1})
	e.commit(1, nil, nil)
	if n := tab.size(); n != 4 {
		t.Fatalf("size after node-a restart = %d, want 4", n)
	}
}

// BenchmarkDedupBegin shows begin's cost does not grow with the
// window: each op claims a fresh seq, overwriting the slot of the seq
// one window behind once the ring is full.
func BenchmarkDedupBegin(b *testing.B) {
	for _, window := range []int{64, 4096} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			tab := newDedupTable(window)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, _ := tab.begin(dedupID(uint64(i + 1)))
				e.commit(1, nil, nil)
			}
		})
	}
}
