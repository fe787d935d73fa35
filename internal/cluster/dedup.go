package cluster

import "sync"

// Receiver-side delivery deduplication. Retried batches (and chaos
// duplicates) arrive carrying the same BatchID; the hosting node must
// apply each sequenced batch to its queues exactly once, and answer
// every duplicate with the original outcome — at-least-once on the
// wire, exactly-once at the queue boundary.
//
// The window is keyed by sender identity. Each sender incarnation owns
// a fixed ring of window slots indexed by seq % window; a slot holds
// one (seq, outcome) pair. The window is the last `window` seqs up to
// the highest one seen: a seq inside it finds its own slot (a
// duplicate) or a slot holding an older, out-of-window seq (fresh: the
// slot is overwritten). A seq older than the window is applied
// uncached and never touches a slot, because the slot it maps to may
// belong to a live seq (the seq exactly window behind the maximum
// shares the maximum's slot). A retry never lags thousands of batches
// behind, so the window only needs to out-live the sender's bounded
// retry horizon. Every operation is O(1); seqs may reach a receiver
// sparsely (one sender counter is shared across destinations), which
// only leaves some slots empty.

// dedupEntry caches one sequenced batch's delivery outcome. done is
// closed when the first delivery finishes, so a duplicate racing the
// original waits for the real outcome instead of re-applying.
type dedupEntry struct {
	done     chan struct{}
	accepted int
	rejects  []BatchReject
	err      error
}

// dedupSlot is one ring position: the seq it caches and its outcome
// (nil while empty).
type dedupSlot struct {
	seq   uint64
	entry *dedupEntry
}

// senderWindow is one sender incarnation's recent delivery history.
type senderWindow struct {
	epoch    uint64
	maxSeq   uint64
	resident int // occupied slots
	slots    []dedupSlot
}

// dedupTable is a cluster node's per-sender dedup state.
type dedupTable struct {
	mu       sync.Mutex
	window   uint64
	resident int // occupied slots across senders
	senders  map[string]*senderWindow
}

func newDedupTable(window int) *dedupTable {
	return &dedupTable{
		window:  uint64(window),
		senders: make(map[string]*senderWindow),
	}
}

// begin claims the right to apply the batch identified by id. It
// returns (entry, false) when the caller must apply the batch and
// commit the outcome into entry, and (entry, true) when the batch is a
// duplicate — the caller waits on entry.done and returns the cached
// outcome. A nil entry means the batch must be applied without caching
// (a stale epoch from a previous incarnation of the sender, or a seq
// older than the window).
func (t *dedupTable) begin(id BatchID) (*dedupEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sw := t.senders[id.Sender]
	if sw == nil || sw.epoch < id.Epoch {
		// First contact with this sender incarnation: any previous
		// incarnation's window is stale (its seq counter restarted), so
		// it is dropped whole.
		if sw != nil {
			t.resident -= sw.resident
		}
		sw = &senderWindow{epoch: id.Epoch, slots: make([]dedupSlot, t.window)}
		t.senders[id.Sender] = sw
	}
	if id.Epoch < sw.epoch {
		return nil, false
	}
	if id.Seq+t.window <= sw.maxSeq {
		return nil, false
	}
	slot := &sw.slots[id.Seq%t.window]
	if slot.entry != nil && slot.seq == id.Seq {
		return slot.entry, true
	}
	if slot.entry == nil {
		sw.resident++
		t.resident++
	}
	e := &dedupEntry{done: make(chan struct{})}
	*slot = dedupSlot{seq: id.Seq, entry: e}
	if id.Seq > sw.maxSeq {
		sw.maxSeq = id.Seq
	}
	return e, false
}

// commit records the applied batch's outcome and releases any
// duplicates waiting on it.
func (e *dedupEntry) commit(accepted int, rejects []BatchReject, err error) {
	e.accepted = accepted
	e.rejects = rejects
	e.err = err
	close(e.done)
}

// size reports the total occupied slots across senders.
func (t *dedupTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.resident
}
