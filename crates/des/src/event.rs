//! The pending-event set.
//!
//! [`EventQueue`] is a facade over a pluggable storage backend
//! ([`QueueCore`]): by default the ladder queue ([`crate::ladder`],
//! amortized O(1) enqueue/dequeue at million-entry depth), or the
//! original binary heap ([`crate::heap_ref`]) when `peas-des` is built
//! with `--features heap-queue`. Both backends honor the same total
//! order — strictly ascending `(time, sequence)`, so events scheduled
//! for the same instant fire in schedule order — which is why swapping
//! them cannot perturb a simulation: every pop is uniquely determined.
//!
//! Cancellation is lazy and lives in the facade, not the backend: a
//! cancelled id is cleared from the pending bitvector and its entry
//! rides through the backend as a tombstone, skipped on pop. That keeps
//! `cancel` O(1) and backends oblivious to liveness.

use std::fmt;

use crate::time::SimTime;

/// Opaque handle to a scheduled event, usable to cancel it.
///
/// Ids are unique within one [`EventQueue`] and never reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// A sentinel id no queue ever issues (sequence numbers are dense from
    /// zero, so `u64::MAX` is unreachable). Lets flat timer tables mark an
    /// empty slot without the niche cost of `Option<EventId>` per entry;
    /// cancelling it is a no-op (`EventQueue::cancel` returns `false`).
    pub const NONE: EventId = EventId(u64::MAX);

    /// Whether this is the [`EventId::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self == EventId::NONE
    }
}

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EventId({})", self.0)
    }
}

/// Storage backend for [`EventQueue`]: a multiset of `(time, seq,
/// payload)` entries popped in strictly ascending `(time, seq)` order.
///
/// Keys are raw nanosecond timestamps plus the facade-issued dense
/// sequence number, so `(time, seq)` is unique — the pop order is a
/// *total* order and every conforming implementation yields the
/// identical stream. Backends never see cancellation: the facade skips
/// tombstoned entries after popping them.
pub trait QueueCore<E> {
    /// Stores one entry. `seq` values arrive dense and monotonically
    /// increasing across the queue's lifetime.
    fn push(&mut self, time: u64, seq: u64, payload: E);
    /// Removes and returns the entry with the smallest `(time, seq)`.
    fn pop(&mut self) -> Option<(u64, u64, E)>;
    /// The smallest `(time, seq)` key without removing it. Takes `&mut`
    /// because bucketed backends may need to restructure to find it.
    fn peek_key(&mut self) -> Option<(u64, u64)>;
    /// Drops all entries.
    fn clear(&mut self);
    /// Approximate heap bytes owned by the backend's storage.
    fn memory_bytes(&self) -> usize;
}

/// The backend selected at compile time: the ladder queue by default,
/// or the binary-heap reference under `--features heap-queue` (the
/// escape hatch for bisecting a suspected ladder bug against golden
/// fingerprints).
#[cfg(not(feature = "heap-queue"))]
pub type DefaultCore<E> = crate::ladder::LadderCore<E>;
/// The backend selected at compile time (heap reference: the
/// `heap-queue` feature is enabled).
#[cfg(feature = "heap-queue")]
pub type DefaultCore<E> = crate::heap_ref::HeapCore<E>;

/// [`EventQueue`] pinned to the binary-heap reference backend,
/// regardless of feature flags. Used by the differential proptests.
pub type HeapEventQueue<E> = EventQueue<E, crate::heap_ref::HeapCore<E>>;
/// [`EventQueue`] pinned to the ladder backend, regardless of feature
/// flags. Used by the differential proptests.
pub type LadderEventQueue<E> = EventQueue<E, crate::ladder::LadderCore<E>>;

/// A fired event as returned by [`EventQueue::pop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fired<E> {
    /// The instant the event was scheduled for.
    pub time: SimTime,
    /// The handle it was scheduled under.
    pub id: EventId,
    /// The event payload.
    pub payload: E,
}

/// Priority queue of timestamped events with stable FIFO tie-breaking and
/// O(1) cancellation.
///
/// # Examples
///
/// ```
/// use peas_des::event::EventQueue;
/// use peas_des::time::SimTime;
///
/// let mut q: EventQueue<_> = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop().unwrap().payload, "sooner");
/// assert_eq!(q.pop().unwrap().payload, "later");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E, C: QueueCore<E> = DefaultCore<E>> {
    core: C,
    /// Ids of scheduled events that have neither fired nor been cancelled.
    pending: PendingBits,
    next_seq: u64,
    /// Largest live pending count ever observed (queue-depth telemetry).
    high_water: usize,
    _payload: std::marker::PhantomData<E>,
}

/// Pending-membership set over the dense, monotonically issued event ids:
/// one bit per id ever issued, so insert/remove/contains are branch-light
/// word operations instead of hashing. Memory grows by one bit per
/// scheduled event and is never reclaimed until [`EventQueue::clear`].
#[derive(Default)]
struct PendingBits {
    words: Vec<u64>,
    live: usize,
}

impl PendingBits {
    #[inline]
    fn insert(&mut self, id: u64) {
        let (w, mask) = ((id / 64) as usize, 1u64 << (id % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        debug_assert_eq!(self.words[w] & mask, 0, "event id issued twice");
        self.words[w] |= mask;
        self.live += 1;
    }

    /// Clears the bit; `true` if it was set.
    #[inline]
    fn remove(&mut self, id: u64) -> bool {
        let (w, mask) = ((id / 64) as usize, 1u64 << (id % 64));
        match self.words.get_mut(w) {
            Some(word) if *word & mask != 0 => {
                *word &= !mask;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    #[inline]
    fn contains(&self, id: u64) -> bool {
        self.words
            .get((id / 64) as usize)
            .is_some_and(|word| word & (1 << (id % 64)) != 0)
    }

    fn clear(&mut self) {
        self.words.clear();
        self.live = 0;
    }
}

impl<E, C: QueueCore<E> + Default> Default for EventQueue<E, C> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E, C: QueueCore<E> + Default> EventQueue<E, C> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E, C> {
        EventQueue {
            core: C::default(),
            pending: PendingBits::default(),
            next_seq: 0,
            high_water: 0,
            _payload: std::marker::PhantomData,
        }
    }
}

impl<E, C: QueueCore<E>> EventQueue<E, C> {
    /// Schedules `payload` to fire at `time`, returning a cancellable handle.
    ///
    /// Events for equal times fire in the order they were scheduled.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = EventId(seq);
        self.core.push(time.as_nanos(), seq, payload);
        self.pending.insert(seq);
        self.high_water = self.high_water.max(self.pending.live);
        id
    }

    /// Cancels a pending event. Returns `true` if the event was still
    /// pending, `false` if it already fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // Removing from `pending` is the single source of truth; the
        // backend entry becomes a tombstone that pops skip lazily.
        self.pending.remove(id.0)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Fired<E>> {
        while let Some((time, seq, payload)) = self.core.pop() {
            if self.pending.remove(seq) {
                return Some(Fired {
                    time: SimTime::from_nanos(time),
                    id: EventId(seq),
                    payload,
                });
            }
            // else: cancelled tombstone, skip
        }
        None
    }

    /// Removes and returns the earliest pending event if it fires
    /// strictly before `horizon`; `None` otherwise (queue untouched
    /// except for tombstones drained off the front).
    ///
    /// One backend probe per delivered event, versus the two a
    /// peek-then-pop loop costs — this is the simulator's hot path.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<Fired<E>> {
        loop {
            let (time, seq) = self.core.peek_key()?;
            if !self.pending.contains(seq) {
                // Tombstone: discard and look again.
                self.core.pop();
                continue;
            }
            if time >= horizon.as_nanos() {
                return None;
            }
            let (time, seq, payload) = self.core.pop()?;
            self.pending.remove(seq);
            return Some(Fired {
                time: SimTime::from_nanos(time),
                id: EventId(seq),
                payload,
            });
        }
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drain tombstones off the top so peek reflects a live event.
        while let Some((time, seq)) = self.core.peek_key() {
            if self.pending.contains(seq) {
                return Some(SimTime::from_nanos(time));
            }
            self.core.pop();
        }
        None
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.pending.live
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending.live == 0
    }

    /// Total number of events ever scheduled (monotone counter).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Largest number of simultaneously live pending events ever
    /// observed. Monotone; survives pops but not [`EventQueue::clear`].
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Approximate heap bytes held by the queue: backend storage plus
    /// the pending bitvector.
    pub fn memory_bytes(&self) -> usize {
        self.core.memory_bytes() + self.pending.words.capacity() * 8
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.core.clear();
        self.pending.clear();
        self.high_water = 0;
    }
}

impl<E, C: QueueCore<E>> fmt::Debug for EventQueue<E, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.pending.live)
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<_> = EventQueue::new();
        q.schedule(t(3), 'c');
        q.schedule(t(1), 'a');
        q.schedule(t(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|f| f.payload)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut q: EventQueue<_> = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|f| f.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q: EventQueue<_> = EventQueue::new();
        let a = q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(q.pop().is_none());
        let _ = b;
    }

    #[test]
    fn cancel_twice_is_false() {
        let mut q: EventQueue<_> = EventQueue::new();
        let a = q.schedule(t(1), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut q: EventQueue<_> = EventQueue::new();
        let a = q.schedule(t(1), ());
        assert!(q.pop().is_some());
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut other: EventQueue<_> = EventQueue::new();
        let foreign = other.schedule(t(1), ());
        // `foreign` has seq 0 which this queue never issued.
        assert!(!q.cancel(foreign));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q: EventQueue<_> = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q: EventQueue<_> = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q: EventQueue<_> = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn fired_reports_schedule_time_and_id() {
        let mut q: EventQueue<_> = EventQueue::new();
        let id = q.schedule(t(7), 42);
        let fired = q.pop().unwrap();
        assert_eq!(fired.time, t(7));
        assert_eq!(fired.id, id);
        assert_eq!(fired.payload, 42);
    }

    #[test]
    fn pop_before_delivers_only_earlier_events() {
        let mut q: EventQueue<_> = EventQueue::new();
        q.schedule(t(1), 1);
        q.schedule(t(5), 5);
        assert_eq!(q.pop_before(t(5)).unwrap().payload, 1);
        // Event exactly at the horizon does not fire.
        assert!(q.pop_before(t(5)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(t(6)).unwrap().payload, 5);
        assert!(q.pop_before(t(100)).is_none());
    }

    #[test]
    fn pop_before_skips_cancelled_tombstones() {
        let mut q: EventQueue<_> = EventQueue::new();
        let a = q.schedule(t(1), "cancelled");
        q.schedule(t(2), "kept");
        q.cancel(a);
        assert_eq!(q.pop_before(t(10)).unwrap().payload, "kept");
        assert!(q.pop_before(t(10)).is_none());
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q: EventQueue<_> = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        for i in 0..10 {
            q.schedule(t(i), ());
        }
        for _ in 0..10 {
            q.pop();
        }
        assert_eq!(q.high_water(), 10);
        q.schedule(t(50), ());
        // A later, shallower refill does not lower the mark.
        assert_eq!(q.high_water(), 10);
    }

    #[test]
    fn memory_bytes_is_nonzero_when_loaded() {
        let mut q: EventQueue<_> = EventQueue::new();
        for i in 0..1000u64 {
            q.schedule(SimTime::from_nanos(i * 17), i);
        }
        assert!(q.memory_bytes() > 0);
    }

    #[test]
    fn heap_and_ladder_queues_agree_on_a_mixed_run() {
        // A quick inline differential check; the heavyweight version with
        // arbitrary interleavings lives in tests/proptests.rs.
        fn drive<C: QueueCore<u64> + Default>() -> Vec<(SimTime, u64)> {
            let mut q: EventQueue<u64, C> = EventQueue::new();
            let mut cancel_me = Vec::new();
            for i in 0..500u64 {
                let id = q.schedule(SimTime::from_nanos((i * 131) % 977), i);
                if i % 7 == 0 {
                    cancel_me.push(id);
                }
            }
            for id in cancel_me {
                q.cancel(id);
            }
            let mut out = Vec::new();
            while let Some(f) = q.pop() {
                out.push((f.time, f.payload));
            }
            out
        }
        assert_eq!(
            drive::<crate::heap_ref::HeapCore<u64>>(),
            drive::<crate::ladder::LadderCore<u64>>()
        );
    }
}
