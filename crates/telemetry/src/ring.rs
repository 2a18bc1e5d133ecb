//! A bounded, structured event ring for rare, high-signal occurrences.
//!
//! Counters answer "how many"; the ring answers "what, when, and with
//! what context" for the last N notable events (alarms, sheds, decode
//! errors with their source address, revocation installs, snapshots).
//! Events are rare by construction — per-alarm, per-shed, per-error, not
//! per-report — so the ring takes a plain mutex; the lock-free guarantee
//! of this crate applies to the per-report paths (histograms, counters,
//! gauges), which never touch it.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What happened. Serialized by variant name into exported JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A sequential detector crossed its threshold (`a` = node id).
    AlarmFired,
    /// The overload gate refused a batch (`a` = rows, detail = peer +
    /// shed reason).
    Shed,
    /// A wire frame failed to decode (detail = peer + `WireError`).
    DecodeError,
    /// The response controller installed a new revocation list
    /// (`a` = revoked count, `b` = quarantined count).
    RevocationInstall,
    /// A versioned `ServeSnapshot` was taken (`a` = snapshot version).
    Snapshot,
    /// The engine rejected a batch (`a` = rows, detail = error).
    EngineError,
}

/// One structured event. `a`/`b` are kind-specific numeric payloads
/// (documented per [`EventKind`] variant); `detail` carries free-form
/// context (peer address, error text) and stays empty on hot-ish kinds
/// like [`EventKind::AlarmFired`] so pushing one never allocates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryEvent {
    /// Monotone sequence number; gaps reveal ring overwrites.
    pub seq: u64,
    /// Nanoseconds since the owning registry's epoch (runtime start).
    pub at_nanos: u64,
    /// Event class.
    pub kind: EventKind,
    /// Pipeline round the event belongs to (0 when not applicable).
    pub round: u64,
    /// First kind-specific payload.
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
    /// Free-form context; empty unless the kind documents otherwise.
    pub detail: String,
}

#[derive(Debug, Default)]
struct RingInner {
    events: VecDeque<TelemetryEvent>,
    next_seq: u64,
    dropped: u64,
}

/// Bounded MPMC event buffer: pushes past capacity evict the oldest entry
/// and bump a `dropped` counter, so memory is fixed and the reader can
/// tell how much history it lost.
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    inner: Mutex<RingInner>,
    /// Events a sampling producer chose not to record (see
    /// [`note_sampled_out`](Self::note_sampled_out)). Outside the mutex:
    /// the whole point of sampling is that the skip path stays a single
    /// relaxed add, lock-free and allocation-free.
    sampled_out: AtomicU64,
}

impl EventRing {
    /// An empty ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner::default()),
            sampled_out: AtomicU64::new(0),
        }
    }

    /// Appends an event, stamping its sequence number. Oldest-out on
    /// overflow.
    pub fn push(&self, mut event: TelemetryEvent) {
        let mut inner = self.inner.lock().expect("event ring poisoned");
        event.seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Oldest-to-newest copy of the retained events.
    pub fn recent(&self) -> Vec<TelemetryEvent> {
        let inner = self.inner.lock().expect("event ring poisoned");
        inner.events.iter().cloned().collect()
    }

    /// How many events have been evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("event ring poisoned").dropped
    }

    /// Total events ever pushed (== next sequence number).
    pub fn pushed(&self) -> u64 {
        self.inner.lock().expect("event ring poisoned").next_seq
    }

    /// Records that `n` events were *sampled out*: a flood-prone producer
    /// (the wire front door's per-NACK shed events) decided not
    /// to push them, so the ring stays cheap under exactly the overload
    /// it exists to observe. The reader can reconstruct true event rates
    /// from recorded events plus this count.
    #[inline]
    pub fn note_sampled_out(&self, n: u64) {
        self.sampled_out.fetch_add(n, Ordering::Relaxed);
    }

    /// How many events producers sampled out instead of pushing.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: EventKind, round: u64) -> TelemetryEvent {
        TelemetryEvent {
            seq: 0,
            at_nanos: 0,
            kind,
            round,
            a: 0,
            b: 0,
            detail: String::new(),
        }
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let ring = EventRing::new(4);
        for round in 0..10 {
            ring.push(event(EventKind::AlarmFired, round));
        }
        let recent = ring.recent();
        assert_eq!(recent.len(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.pushed(), 10);
        // Newest four survive, sequence numbers are contiguous.
        let seqs: Vec<u64> = recent.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(recent[0].round, 6);
    }

    #[test]
    fn sampled_out_counts_without_touching_the_ring() {
        let ring = EventRing::new(4);
        ring.push(event(EventKind::Shed, 0));
        ring.note_sampled_out(15);
        ring.note_sampled_out(1);
        assert_eq!(ring.sampled_out(), 16);
        assert_eq!(ring.pushed(), 1, "sampling out pushes nothing");
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn events_round_trip_through_json() {
        let e = TelemetryEvent {
            seq: 3,
            at_nanos: 1234,
            kind: EventKind::DecodeError,
            round: 7,
            a: 42,
            b: 0,
            detail: "127.0.0.1:9 bad checksum".to_string(),
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: TelemetryEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
