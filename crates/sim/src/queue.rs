//! Pending-event queue.
//!
//! Two interchangeable backends live behind the same [`EventQueue`] API:
//!
//! * [`QueueBackend::Wheel`] (the default) — a hierarchical timer wheel:
//!   11 levels of 64 power-of-two tick buckets (6 bits per level, so the
//!   levels together cover the full `u64` microsecond range). Level 0
//!   buckets hold exact ticks; level `l ≥ 1` buckets span `64^l` ticks
//!   and cascade lazily into finer levels as the wheel's cursor reaches
//!   them. Each level keeps a 64-bit occupancy bitmap, so finding the
//!   next non-empty bucket is a couple of bit ops instead of a heap
//!   sift; scheduling is O(1) and popping is O(1) amortized (each event
//!   cascades at most `LEVELS - 1` times). Bucket lists are intrusive
//!   singly-linked lists over an internal slab, so the steady-state hot
//!   path performs no allocation at all.
//!
//! * [`QueueBackend::Heap`] — the original binary min-heap on
//!   `(time, sequence)`, kept as the reference implementation. The
//!   differential property test in `tests/queue_differential.rs` proves
//!   the wheel pops the exact same `(time, event)` sequence.
//!
//! Both backends deliver simultaneous events in FIFO schedule order via
//! a monotone sequence number; stability matters for determinism. In the
//! wheel, FIFO falls out structurally: bucket lists append in schedule
//! (= sequence) order, and cascades redistribute a bucket front-to-back
//! into finer buckets that are provably empty at cascade time, so the
//! relative order of same-tick events is preserved end to end.
//!
//! # Monotone-insertion invariant
//!
//! `EventQueue::schedule` requires `at >=` the delivery time of the last
//! event popped (the *watermark*). A caller that schedules follow-ups
//! from the instant it just popped upholds this by construction, and
//! the queue enforces it: a `debug_assert!` trips on violations in
//! debug builds, and release builds clamp the instant up to the
//! watermark: the clock never runs backwards. The wheel's bucket arithmetic relies on this invariant: the
//! internal cursor only ever advances, and a scheduled tick below it
//! would land in an already-drained bucket and never be delivered.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Index bits per wheel level (64 slots each).
const SLOT_BITS: u32 = 6;
/// Buckets per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels: 11 × 6 bits = 66 bits, covering every `u64` tick.
const LEVELS: usize = 11;
/// Null link in the node slab.
const NIL: u32 = u32::MAX;

/// Which data structure backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Hierarchical timer wheel (the default; O(1) schedule/pop).
    #[default]
    Wheel,
    /// Binary min-heap on `(time, seq)` (the reference implementation).
    Heap,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) pair on top.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Slab node for the wheel's intrusive bucket lists.
struct Node<E> {
    at: u64,
    seq: u64,
    next: u32,
    /// `None` only while the node sits on the free list.
    event: Option<E>,
}

/// The hierarchical timer wheel backend.
struct TimerWheel<E> {
    /// `(head, tail)` node indices per bucket, flat-indexed
    /// `level * SLOTS + slot`; `NIL` head marks an empty bucket.
    buckets: Vec<(u32, u32)>,
    /// Per-level occupancy bitmap: bit `s` set ⇔ bucket `s` non-empty.
    occupied: [u64; LEVELS],
    /// Node slab; freed nodes chain through `free`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// Lower bound (in ticks) on every pending event; advances only on
    /// cascade, and is always ≤ the queue watermark between operations.
    cursor: u64,
    len: usize,
}

impl<E> TimerWheel<E> {
    fn with_capacity(capacity: usize) -> Self {
        TimerWheel {
            buckets: vec![(NIL, NIL); LEVELS * SLOTS],
            occupied: [0; LEVELS],
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            cursor: 0,
            len: 0,
        }
    }

    /// The level whose bucket granularity distinguishes `t` from the
    /// cursor, and the bucket index of `t` within that level.
    ///
    /// Requires `t >= self.cursor` (the monotone-insertion invariant):
    /// XOR then locates the highest differing 6-bit group.
    #[inline]
    fn level_and_slot(&self, t: u64) -> (usize, usize) {
        let diff = t ^ self.cursor;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((t >> (SLOT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    fn alloc(&mut self, at: u64, seq: u64, event: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.at = at;
            node.seq = seq;
            node.next = NIL;
            node.event = Some(event);
            idx
        } else {
            self.nodes.push(Node {
                at,
                seq,
                next: NIL,
                event: Some(event),
            });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Appends node `idx` to the bucket its `at` tick maps to.
    fn link(&mut self, idx: u32) {
        let at = self.nodes[idx as usize].at;
        let (level, slot) = self.level_and_slot(at);
        let bi = level * SLOTS + slot;
        let (head, tail) = self.buckets[bi];
        if head == NIL {
            self.buckets[bi] = (idx, idx);
            self.occupied[level] |= 1 << slot;
        } else {
            self.nodes[tail as usize].next = idx;
            self.buckets[bi] = (head, idx);
        }
    }

    /// Schedules an event. `t` must be ≥ the cursor (guaranteed by the
    /// watermark clamp in [`EventQueue::schedule`]).
    fn push(&mut self, t: u64, seq: u64, event: E) {
        debug_assert!(t >= self.cursor, "wheel insert below cursor");
        let idx = self.alloc(t, seq, event);
        self.link(idx);
        self.len += 1;
    }

    /// The earliest pending delivery time, **without mutating** the
    /// wheel.
    ///
    /// Deliberately cascade-free: a cascade advances the cursor, and the
    /// engine's peek-then-break-on-deadline path may schedule between a
    /// peek and the next pop — an insert below an advanced cursor would
    /// land in a drained bucket. Level-0 buckets store exact ticks, so
    /// their minimum is exact; for a coarser level the first occupied
    /// bucket is min-scanned (amortized against the cascade that will
    /// walk the same list).
    fn peek(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let level = (0..LEVELS).find(|&l| self.occupied[l] != 0)?;
        let slot = self.occupied[level].trailing_zeros() as usize;
        if level == 0 {
            // Exact: reconstruct the tick from the cursor's window base.
            return Some((self.cursor & !(SLOTS as u64 - 1)) | slot as u64);
        }
        let (mut idx, _) = self.buckets[level * SLOTS + slot];
        let mut min = u64::MAX;
        while idx != NIL {
            let node = &self.nodes[idx as usize];
            min = min.min(node.at);
            idx = node.next;
        }
        Some(min)
    }

    /// Removes and returns the earliest `(tick, event)` pair; FIFO among
    /// same-tick events.
    fn pop(&mut self) -> Option<(u64, E)> {
        loop {
            if self.len == 0 {
                return None;
            }
            if self.occupied[0] != 0 {
                // Level 0 holds exact ticks; the lowest occupied bucket
                // is the earliest event, and its list head is the
                // earliest sequence number at that tick.
                let slot = self.occupied[0].trailing_zeros() as usize;
                let (head, tail) = self.buckets[slot];
                let node = &mut self.nodes[head as usize];
                let at = node.at;
                let event = node.event.take().expect("linked node carries an event");
                let next = node.next;
                node.next = self.free;
                self.free = head;
                if next == NIL {
                    self.buckets[slot] = (NIL, NIL);
                    self.occupied[0] &= !(1u64 << slot);
                } else {
                    self.buckets[slot] = (next, tail);
                }
                self.len -= 1;
                return Some((at, event));
            }
            // Level 0 empty: cascade the first occupied bucket of the
            // lowest occupied level down one step. Advancing the cursor
            // to that bucket's base is sound because every finer bucket
            // below it is empty (we just checked all lower levels).
            let level = (1..LEVELS)
                .find(|&l| self.occupied[l] != 0)
                .expect("len > 0 implies an occupied level");
            let slot = self.occupied[level].trailing_zeros() as usize;
            let bi = level * SLOTS + slot;
            let (mut idx, _) = self.buckets[bi];
            self.buckets[bi] = (NIL, NIL);
            self.occupied[level] &= !(1u64 << slot);
            // New cursor: keep the bits above this level, set this
            // level's group to `slot`, zero everything finer.
            let group_shift = SLOT_BITS as usize * level;
            let above_shift = group_shift + SLOT_BITS as usize;
            let above = if above_shift >= 64 {
                0
            } else {
                (self.cursor >> above_shift) << above_shift
            };
            self.cursor = above | ((slot as u64) << group_shift);
            // Relink front-to-back: preserves schedule order within any
            // target bucket (all strictly finer buckets are empty here,
            // so cascaded nodes can only queue behind each other).
            while idx != NIL {
                let next = self.nodes[idx as usize].next;
                self.nodes[idx as usize].next = NIL;
                self.link(idx);
                idx = next;
            }
        }
    }
}

enum Backend<E> {
    Wheel(TimerWheel<E>),
    Heap(BinaryHeap<Entry<E>>),
}

/// A time-ordered queue of pending events.
///
/// Simultaneous events are delivered in the order they were scheduled
/// (FIFO), independent of backend internals. Insertions must respect the
/// monotone-insertion invariant documented at the [module level](self):
/// never schedule below the last popped time.
pub struct EventQueue<E> {
    backend: Backend<E>,
    next_seq: u64,
    /// Delivery time of the last popped event; the floor for inserts.
    watermark: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the default (timer wheel) backend.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::Wheel)
    }

    /// Creates an empty queue on an explicit backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        Self::with_backend_and_capacity(backend, 0)
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_backend_and_capacity(QueueBackend::Wheel, capacity)
    }

    /// Creates an empty queue on an explicit backend, with room for
    /// `capacity` events.
    pub fn with_backend_and_capacity(backend: QueueBackend, capacity: usize) -> Self {
        let backend = match backend {
            QueueBackend::Wheel => Backend::Wheel(TimerWheel::with_capacity(capacity)),
            QueueBackend::Heap => Backend::Heap(BinaryHeap::with_capacity(capacity)),
        };
        EventQueue {
            backend,
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// The backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.backend {
            Backend::Wheel(_) => QueueBackend::Wheel,
            Backend::Heap(_) => QueueBackend::Heap,
        }
    }

    /// Schedules `event` for delivery at `at`.
    ///
    /// `at` must be ≥ the delivery time of the last popped event (see
    /// the module-level invariant). Debug builds assert; release builds
    /// clamp up to the watermark, so a violating event is delivered at
    /// the earliest still-representable instant rather than lost.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.watermark,
            "EventQueue::schedule below watermark: {at:?} < {:?}",
            self.watermark
        );
        let at = at.max(self.watermark);
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.backend {
            Backend::Wheel(w) => w.push(at.0, seq, event),
            Backend::Heap(h) => h.push(Entry { at, seq, event }),
        }
    }

    /// Removes and returns the earliest event, with its delivery time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let popped = match &mut self.backend {
            Backend::Wheel(w) => w.pop().map(|(t, e)| (SimTime(t), e)),
            Backend::Heap(h) => h.pop().map(|e| (e.at, e.event)),
        };
        if let Some((at, _)) = popped {
            self.watermark = at;
        }
        popped
    }

    /// The delivery time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Wheel(w) => w.peek().map(SimTime),
            Backend::Heap(h) => h.peek().map(|e| e.at),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Wheel(w) => w.len,
            Backend::Heap(h) => h.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    const BACKENDS: [QueueBackend; 2] = [QueueBackend::Wheel, QueueBackend::Heap];

    #[test]
    fn pops_in_time_order() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime::from_secs(3), "c");
            q.schedule(SimTime::from_secs(1), "a");
            q.schedule(SimTime::from_secs(2), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{backend:?}");
        }
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            let t = SimTime::from_secs(1);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{backend:?}");
        }
    }

    #[test]
    fn peek_matches_pop() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            assert_eq!(q.peek_time(), None);
            q.schedule(SimTime::from_secs(5), ());
            q.schedule(SimTime::from_secs(2), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)), "{backend:?}");
            let (t, ()) = q.pop().unwrap();
            assert_eq!(t, SimTime::from_secs(2), "{backend:?}");
        }
    }

    #[test]
    fn len_and_empty() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            assert!(q.is_empty());
            q.schedule(SimTime::ZERO, 1u8);
            q.schedule(SimTime::ZERO, 2u8);
            assert_eq!(q.len(), 2, "{backend:?}");
            q.pop();
            q.pop();
            assert!(q.is_empty(), "{backend:?}");
        }
    }

    #[test]
    fn far_future_events_cascade_correctly() {
        // Spread events across every wheel level, including ticks whose
        // high bits exercise the topmost (partial) level.
        let mut q = EventQueue::new();
        let ticks = [
            0u64,
            1,
            63,
            64,
            65,
            4095,
            4096,
            1 << 30,
            (1 << 30) + 1,
            1 << 45,
            1 << 62,
            u64::MAX - 1,
            u64::MAX,
        ];
        for (i, &t) in ticks.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut sorted: Vec<(u64, usize)> =
            ticks.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        sorted.sort();
        let popped: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.0, e))
            .collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // Re-scheduling after pops exercises cursor advance + re-insert
        // near the watermark (the engine's steady-state pattern).
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 0u32);
        q.schedule(SimTime(1_000_000), 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.0, e), (10, 0));
        // Insert between the watermark and the far event.
        q.schedule(SimTime(500), 2);
        q.schedule(SimTime(10), 3); // exactly at the watermark
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.0, e)).collect();
        assert_eq!(order, vec![(10, 3), (500, 2), (1_000_000, 1)]);
    }

    #[test]
    fn same_tick_fifo_across_cascades() {
        // Events at one far tick scheduled before AND after unrelated
        // cascades must still pop in schedule order.
        let mut q = EventQueue::new();
        let far = 1u64 << 20;
        q.schedule(SimTime(far), 0u32);
        q.schedule(SimTime(5), 100);
        q.schedule(SimTime(far), 1);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 100);
        q.schedule(SimTime(far), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "below watermark"))]
    fn schedule_below_watermark_asserts_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        q.pop();
        q.schedule(SimTime(50), ());
        // Release builds clamp instead of panicking.
        assert_eq!(q.peek_time(), Some(SimTime(100)));
    }

    #[test]
    fn reuses_slab_nodes() {
        // A bounded schedule/pop cycle must not grow the slab without
        // bound: steady state allocates nothing.
        let mut q = EventQueue::new();
        for round in 0u64..10_000 {
            q.schedule(SimTime(round), round);
            let (t, e) = q.pop().unwrap();
            assert_eq!((t.0, e), (round, round));
        }
        if let Backend::Wheel(w) = &q.backend {
            assert!(w.nodes.len() <= 2, "slab grew to {}", w.nodes.len());
        } else {
            panic!("default backend must be the wheel");
        }
    }
}
