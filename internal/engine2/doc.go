// Package engine2 implements Muppet 2.0 (Section 4.5 of the paper):
// the thread-pool execution engine developed at WalmartLabs.
//
// Per machine, the engine starts a dedicated pool of worker threads,
// each capable of running any map or update function; a single central
// slate cache shared by all threads; and a background flusher that
// writes dirty slates to the durable key-value store without blocking
// map and update calls.
//
// Incoming events are dispatched to one of two candidate queues (a
// primary and a secondary, chosen by hashing <event key, destination
// function>): if either queue's thread is already processing this
// (key, function), the event follows it; otherwise it goes to the
// primary unless the secondary is significantly shorter. This bounds
// slate contention to at most two workers per slate while letting a
// hot key's load spill onto a second thread — the hotspot relief of
// Sections 4.5 and 5.
//
// # Contract
//
// An Engine is built with New, fed through Ingest/IngestBatch (and the
// shared ingress.Driver), drained with Drain, and torn down exactly
// once with Stop. Slate reads observe the central cache merged with
// the durable store. Subscribe is only valid on streams the
// application declared as outputs and panics otherwise.
//
// # Concurrency
//
// The central slate cache is striped-locked, so two threads updating
// different keys never contend on one lock, and the two-choice
// dispatch bounds writers of any single slate to two threads. The
// flusher snapshots dirty slates under the stripe locks and performs
// store writes outside them. Stop and the rejoin path's thread
// restarts are serialized by a dedicated mutex so a restart cannot
// Add to a WaitGroup that Stop is Waiting on; output subscriptions
// are closed exactly once behind the engine sink's lock.
//
// # Failure invariants
//
// A machine crash loses its queued events and its dirty (unflushed)
// slates; both are counted exactly in the failover Report. The
// write-through flush policy (or the slate group-commit WAL) closes
// the dirty-slate window; the event replay log closes the queued
// window with at-least-once redelivery. Failover ordering is owned by
// internal/recovery.
//
// In node mode a worker thread stages the outputs it sends to machines
// other nodes host and hands them off in one batch per destination
// when its queue runs dry or the batch reaches 128 deliveries. A
// processed event is acknowledged in the replay log, counted as
// processed, and released from the in-flight tracker only after its
// remote outputs are handed off: a crash before the handoff replays
// the event (at-least-once) rather than losing its outputs, and Drain
// cannot return while outputs sit staged. Every delivery a send fails
// to place — per event or batched — goes through one disposition
// (divert, drop, machine-down, transient) with the same loss
// accounting.
package engine2
