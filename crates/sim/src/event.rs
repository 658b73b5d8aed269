//! The kernel's event queue.
//!
//! [`EventQueue`] is the hot path of every simulation: the packet-level
//! inner loop does one push and one pop per hop, so scheduler cost
//! dominates wall-clock exactly as it does in ns-3-class network
//! simulators. Instead of a single `BinaryHeap` over the whole pending
//! set, the queue is a two-tier ladder/calendar structure:
//!
//! * a **near-future tier** — a ring of time buckets covering the near
//!   future, where the dense short-delay traffic (cache/DRAM hops a few
//!   ns apart) lands in O(1), with only the currently-active bucket kept
//!   in order (a sorted run, plus a small heap for out-of-order keys);
//! * an **overflow tier** — a four-ary min-heap for events beyond the
//!   ring's window (statistics windows, poll timers, request gaps).
//!
//! The bucket width is **adaptive**: each queue keeps an exponential
//! moving average of how far ahead of the window pushes land and, at
//! bucket-drain boundaries, narrows or widens the buckets so the active
//! bucket stays a handful of events. Dense traffic (thousands of events
//! spread over a few hundred time units) would otherwise pile the whole
//! backlog into one wide active bucket and degenerate to a single heap —
//! the regime where the fixed-width ladder lost to `BinaryHeap`. Pushes
//! into the overflow tier are deferred into an unsorted tail and
//! bulk-heapified on the next read, so far-future timers cost O(1) at
//! push time.
//!
//! Events migrate from the overflow tier into the ring as simulated time
//! advances, so each event pays O(1) bucket moves (a small-heap push/pop
//! at worst) instead of an O(log n) traversal of the full set. A drained
//! active bucket is refilled lazily, on the next pop, so the follow-ups a
//! delivered event schedules are filed against a window that still starts
//! at its own time. The external contract is unchanged: pops come in
//! exact `(time, seq)` order, where `seq` is the monotonic insertion
//! number.
//!
//! **Keys and payloads are stored apart.** Every tier holds only 24-byte
//! keys — `(time, seq, dst, slot)` — and the payloads live in a
//! free-listed slab owned by the queue, indexed by `slot`. A payload is
//! written once on push and read once on pop; every sift level, bucket
//! append, refill and tier migration in between moves only the key. The
//! kernel's payload (`PardEvent`, 48 B) would otherwise be copied inside a
//! 72-byte record at each of those steps. The slab reuses the most
//! recently freed slot first, so it stays as large as the peak number of
//! pending events and the hot slots stay in cache.

use std::cmp::Ordering;
use std::mem::MaybeUninit;

use crate::component::ComponentId;
use crate::time::Time;

/// An event scheduled for delivery to a component.
#[derive(Debug)]
pub struct ScheduledEvent<E> {
    /// Delivery time.
    pub time: Time,
    /// Monotonic insertion sequence number; breaks ties deterministically.
    pub seq: u64,
    /// Destination component.
    pub dst: ComponentId,
    /// Payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so a `std::collections::BinaryHeap` (a max-heap) pops
        // the earliest event — the queue's original single-heap layout,
        // kept as public API for reference implementations and benches;
        // ties broken by insertion order for determinism.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Log2 of the widest bucket in quarter-nanosecond units: 64 units =
/// 16 ns per bucket, a few cache/DRAM hops. The adaptive width starts
/// here and narrows (down to one unit) when observed inter-event deltas
/// are small.
const MAX_BUCKET_SHIFT: u32 = 6;
/// Ring size (power of two). 64 buckets x 16 ns ≈ 1 µs of near future at
/// the widest setting.
const NUM_BUCKETS: usize = 64;
const RING_MASK: usize = NUM_BUCKETS - 1;
/// EMA seed for the push-distance average; chosen so a fresh queue
/// starts at `MAX_BUCKET_SHIFT` and only narrows on evidence.
const EMA_INIT: u64 = 32 << MAX_BUCKET_SHIFT;
/// Pushes farther ahead than this are timers (statistics windows, poll
/// intervals), not data-path traffic; they bypass the EMA so one
/// far-future event can't widen the buckets under dense load.
const EMA_DIST_CAP: u64 = (NUM_BUCKETS as u64 * 4) << MAX_BUCKET_SHIFT;

/// What the ladder tiers actually move: an event's ordering key, its
/// destination, and the slab slot holding its payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Key {
    pub(crate) time: Time,
    pub(crate) seq: u64,
    pub(crate) dst: ComponentId,
    slot: u32,
}

impl Key {
    /// Strict `(time, seq)` order — the queue's whole contract.
    #[inline]
    fn before(&self, other: &Key) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

/// A four-ary min-heap of [`Key`]s: the overflow tier, and the active
/// bucket's side heap.
///
/// A wider fan-out halves the tree depth relative to a binary heap and
/// keeps the children of a node in one or two cache lines. The backing
/// vectors are never shrunk or replaced, so steady-state operation
/// performs no allocations. Both sift loops use the "hole" technique (as
/// `std::collections::BinaryHeap` does): the moving key is held aside,
/// ancestors/descendants are shifted into the hole, and the key is
/// written once at its final position.
#[derive(Debug)]
struct FourAryHeap {
    items: Vec<Key>,
    /// Deferred pushes, unsorted. [`FourAryHeap::absorb`] folds them into
    /// `items` before the next read, amortising bursts of far-future
    /// pushes into one bulk heapify instead of a sift each.
    tail: Vec<Key>,
    /// Earliest timestamp in `tail` (`Time::MAX` when it is empty).
    tail_min: Time,
}

impl FourAryHeap {
    fn with_capacity(cap: usize) -> Self {
        FourAryHeap {
            items: Vec::with_capacity(cap),
            tail: Vec::new(),
            tail_min: Time::MAX,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.items.len() + self.tail.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.items.is_empty() && self.tail.is_empty()
    }

    /// The heap minimum's timestamp. Callers must [`absorb`] any deferred
    /// tail first (the active-bucket heap never defers).
    ///
    /// [`absorb`]: FourAryHeap::absorb
    #[inline]
    fn peek_time(&self) -> Option<Time> {
        debug_assert!(self.tail.is_empty());
        self.items.first().map(|k| k.time)
    }

    /// The earliest pending timestamp, deferred tail included, without
    /// absorbing it (`Time::MAX` when empty).
    #[inline]
    fn earliest(&self) -> Time {
        self.items.first().map_or(self.tail_min, |k| k.time.min(self.tail_min))
    }

    /// Queues `key` without restoring heap order; O(1).
    #[inline]
    fn push_deferred(&mut self, key: Key) {
        self.tail_min = self.tail_min.min(key.time);
        self.tail.push(key);
    }

    /// Folds the deferred tail into the heap: a large tail is appended
    /// and bulk-heapified (O(n) total, cheaper than n sifts), a small one
    /// sifted in key by key.
    fn absorb(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        self.tail_min = Time::MAX;
        if self.tail.len() > self.items.len() / 4 {
            self.items.append(&mut self.tail);
            self.heapify();
        } else {
            // Keep the buffer so steady-state deferral never allocates.
            let mut tail = std::mem::take(&mut self.tail);
            for key in tail.drain(..) {
                self.push(key);
            }
            self.tail = tail;
        }
    }

    fn heapify(&mut self) {
        let len = self.items.len();
        if len > 1 {
            for i in (0..=(len - 2) / 4).rev() {
                let key = self.items[i];
                Self::sift_hole(&mut self.items, i, key);
            }
        }
    }

    #[inline]
    fn push(&mut self, key: Key) {
        let mut i = self.items.len();
        self.items.push(key);
        let items = &mut self.items[..];
        while i > 0 {
            let parent = (i - 1) / 4;
            let p = items[parent];
            if !key.before(&p) {
                break;
            }
            items[i] = p;
            i = parent;
        }
        items[i] = key;
    }

    /// Sifts `key` down from the hole at `i`, writing it at its final
    /// position.
    #[inline]
    fn sift_hole(items: &mut [Key], mut i: usize, key: Key) {
        let len = items.len();
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let end = (first + 4).min(len);
            let mut best = first;
            for c in first + 1..end {
                if items[c].before(&items[best]) {
                    best = c;
                }
            }
            if !items[best].before(&key) {
                break;
            }
            items[i] = items[best];
            i = best;
        }
        items[i] = key;
    }

    #[inline]
    fn pop(&mut self) -> Option<Key> {
        let root = *self.items.first()?;
        self.remove_root();
        Some(root)
    }

    /// Removes the minimum (the heap must be non-empty): the last key
    /// fills the root hole and sifts down.
    #[inline]
    fn remove_root(&mut self) {
        debug_assert!(self.tail.is_empty());
        if let Some(last) = self.items.pop() {
            if !self.items.is_empty() {
                Self::sift_hole(&mut self.items, 0, last);
            }
        }
    }
}

/// The active bucket: a sorted run plus a side heap.
///
/// In the dense regime the active bucket is a time unit or two wide, so
/// its keys mostly share one timestamp and local pushes arrive in seq
/// order. Such a key extends `run` — a vector sorted ascending from
/// `head` — and
/// the next pop takes `run[head]`: O(1) each way, with no data-dependent
/// branches. A key that would break the order (a wider bucket's earlier
/// timestamp) goes to `side`, a four-ary
/// heap, and each pop takes the smaller of the two fronts. The worst case
/// is therefore the plain heap's; the common case is a FIFO.
#[derive(Debug)]
struct ActiveBucket {
    /// Sorted ascending over `head..`; consumed keys sit below `head`
    /// until the run drains, when both reset to empty.
    run: Vec<Key>,
    head: usize,
    side: FourAryHeap,
}

impl ActiveBucket {
    fn with_capacity(cap: usize) -> Self {
        ActiveBucket {
            run: Vec::with_capacity(cap),
            head: 0,
            side: FourAryHeap::with_capacity(0),
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.run.is_empty() && self.side.is_empty()
    }

    #[inline]
    fn push(&mut self, key: Key) {
        match self.run.last() {
            Some(last) if key.before(last) => self.side.push(key),
            _ => self.run.push(key),
        }
    }

    #[inline]
    fn peek_time(&self) -> Option<Time> {
        match (self.run.get(self.head), self.side.items.first()) {
            (Some(r), Some(s)) => Some(r.time.min(s.time)),
            (Some(r), None) => Some(r.time),
            (None, s) => s.map(|s| s.time),
        }
    }

    /// Removes and returns the minimum key; the bucket must be non-empty.
    /// The key is read from its home array on either path, so no
    /// `Option` is assembled and re-read on the way out.
    #[inline]
    fn pop_min(&mut self) -> Key {
        let from_side = match (self.run.get(self.head), self.side.items.first()) {
            (Some(r), Some(s)) => s.before(r),
            (Some(_), None) => false,
            (None, _) => true,
        };
        if from_side {
            let key = self.side.items[0];
            self.side.remove_root();
            return key;
        }
        let key = self.run[self.head];
        self.head += 1;
        if self.head == self.run.len() {
            self.run.clear();
            self.head = 0;
        }
        key
    }

    /// Takes `bucket`'s keys as the new run by swapping buffers with it
    /// (the bucket gets the drained run's empty buffer, so the ladder's
    /// bucket → active transitions neither copy nor allocate). A bucket
    /// is in push order, which is already `(time, seq)` order whenever its
    /// keys share one timestamp; otherwise the handful of keys is sorted.
    #[inline]
    fn refill_from(&mut self, bucket: &mut Vec<Key>) {
        debug_assert!(self.is_empty());
        std::mem::swap(&mut self.run, bucket);
        if !self.run.is_sorted_by(|a, b| !b.before(a)) {
            self.run.sort_unstable_by_key(|k| (k.time, k.seq));
        }
    }
}

/// The payload store: one slot per pending event.
///
/// A slot holds an initialised payload exactly while a key naming it is
/// in one of the queue's tiers; vacant slot indices wait on `free`, most
/// recently freed on top. Payloads are plain `MaybeUninit` memory rather
/// than an enum of occupied/vacant, so a push is one write of the payload
/// and a pop one read, with no tag to check and no vacant marker to store
/// back — and the queue's `Drop` releases whatever is still pending.
#[derive(Debug)]
struct Slab<E> {
    slots: Vec<MaybeUninit<E>>,
    free: Vec<u32>,
}

impl<E> Slab<E> {
    fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
        }
    }

    #[inline(always)]
    fn insert(&mut self, event: E) -> u32 {
        if std::mem::size_of::<E>() == 0 {
            // A zero-sized payload needs no storage (as in `Vec`): it is
            // forgotten here and read back from no bytes in `take`.
            std::mem::forget(event);
            return 0;
        }
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].write(event);
                slot
            }
            None => {
                let slot = self.slots.len();
                assert!(slot < u32::MAX as usize, "more than 2^32 - 1 pending events");
                self.slots.push(MaybeUninit::new(event));
                slot as u32
            }
        }
    }

    /// Moves the payload out of `slot` and frees the slot.
    ///
    /// # Safety
    ///
    /// `slot` must hold a payload: it was returned by [`Slab::insert`] and
    /// has not been taken since. The queue guarantees this by taking each
    /// slot once, when the one key naming it leaves the tiers.
    #[inline]
    unsafe fn take(&mut self, slot: u32) -> E {
        if std::mem::size_of::<E>() == 0 {
            // SAFETY: a zero-sized value is read from any aligned non-null
            // pointer, and `insert` forgot exactly one per live key.
            return unsafe { std::ptr::NonNull::<E>::dangling().as_ptr().read() };
        }
        self.free.push(slot);
        // SAFETY: per the contract, the slot is initialised; it is on the
        // free list now, so nothing reads it again before the next
        // `insert` overwrites it.
        unsafe { self.slots[slot as usize].assume_init_read() }
    }
}

/// A deterministic time-ordered event queue.
///
/// Events with equal timestamps are delivered in insertion order, which
/// (combined with seeded RNGs) makes every simulation run reproducible.
/// Internally a two-tier ladder (bucket ring + four-ary overflow heap)
/// over ordering keys, with the payloads in a slab; the comment at the
/// top of `crates/sim/src/event.rs` describes the layout.
///
/// # Example
///
/// ```
/// use pard_sim::{ComponentId, EventQueue, Time};
/// let mut q: EventQueue<&str> = EventQueue::new();
/// let dst = ComponentId::from_raw(0);
/// q.push(Time::from_ns(5), dst, "later");
/// q.push(Time::from_ns(1), dst, "sooner");
/// assert_eq!(q.pop().unwrap().event, "sooner");
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The active bucket: every pending event earlier than
    /// `base + (1 << shift)` lives here, so its minimum is the queue's
    /// global minimum whenever it is non-empty (a drained bucket is
    /// refilled on the next pop; see [`EventQueue::settle`]).
    cur: ActiveBucket,
    /// `ring[(ring_head + d - 1) & RING_MASK]` holds the span
    /// `[base + d*W, base + (d+1)*W)` for `d` in `1..=NUM_BUCKETS`,
    /// where `W = 1 << shift`.
    ring: Vec<Vec<Key>>,
    /// Occupancy bitmap: bit `s` is set iff `ring[s]` is non-empty, so
    /// `refill` can jump over empty buckets in one `trailing_zeros`
    /// instead of walking them (sparse mid-range traffic — DRAM timing,
    /// refresh — would otherwise pay up to `NUM_BUCKETS` probes per pop).
    ring_occ: u64,
    ring_head: usize,
    /// Events currently stored in the ring (excluding `cur`).
    near_len: usize,
    /// Events at or beyond `base + (NUM_BUCKETS+1)*W`.
    overflow: FourAryHeap,
    /// Reusable buffer for [`EventQueue::rebucket`].
    scratch: Vec<Key>,
    /// Payloads of every pending event, indexed by [`Key::slot`].
    slab: Slab<E>,
    /// Start of the active bucket's span, a multiple of `1 << shift`.
    base: u64,
    /// Log2 of the current bucket width, in `[0, MAX_BUCKET_SHIFT]`.
    shift: u32,
    /// EMA of recent push distances (`time - base`, capped at
    /// [`EMA_DIST_CAP`]); drives the adaptive `shift`.
    ema: u64,
    len: usize,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for about `cap` pending events
    /// before the first reallocation of the hot tiers.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            cur: ActiveBucket::with_capacity(cap / 2),
            ring: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            ring_occ: 0,
            ring_head: 0,
            near_len: 0,
            overflow: FourAryHeap::with_capacity(cap / 2),
            scratch: Vec::new(),
            slab: Slab::with_capacity(cap),
            base: 0,
            shift: MAX_BUCKET_SHIFT,
            ema: EMA_INIT,
            len: 0,
            next_seq: 0,
        }
    }

    /// Aligns `units` down to the current bucket width.
    #[inline]
    fn align(&self, units: u64) -> u64 {
        units & !((1u64 << self.shift) - 1)
    }

    /// The narrowest bucket shift whose ring still covers a pending span
    /// of `NUM_BUCKETS / 2` events at the observed mean push distance —
    /// i.e. the smallest `s` with `32 << s >= ema`, capped at
    /// [`MAX_BUCKET_SHIFT`].
    #[inline]
    fn shift_for(ema: u64) -> u32 {
        // `32 << s >= ema` iff `1 << s >= ceil(ema / 32)`; for
        // `ema > 32` that is the bit length of `(ema - 1) / 32`.
        if ema <= 32 {
            0
        } else {
            (64 - ((ema - 1) >> 5).leading_zeros()).min(MAX_BUCKET_SHIFT)
        }
    }

    /// Schedules `event` for `dst` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is [`ComponentId::UNWIRED`] — that means wiring code
    /// forgot to connect a port.
    #[inline(always)]
    pub fn push(&mut self, time: Time, dst: ComponentId, event: E) {
        assert!(
            !dst.is_unwired(),
            "event scheduled for an unwired component port"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        // Inlined into the sender, so the payload is built straight into
        // its slab slot; only the key's fields cross into `place`.
        let slot = self.slab.insert(event);
        self.place(time, seq, dst, slot);
    }

    /// Files a new key into the tier its timestamp falls in. Takes the
    /// fields as scalars: they travel in registers, where a `Key`
    /// argument would be spilled by the caller field by field and
    /// reloaded here in wider words, stalling on store forwarding.
    fn place(&mut self, time: Time, seq: u64, dst: ComponentId, slot: u32) {
        let key = Key {
            time,
            seq,
            dst,
            slot,
        };
        let tu = time.units();
        let dist = tu.saturating_sub(self.base);
        if dist <= EMA_DIST_CAP {
            self.ema = (self.ema * 7 + dist) >> 3;
        }
        if self.len == 0 {
            // Rebase the ladder on the first event so a queue that idles
            // and refills never walks the ring to catch up; an empty ring
            // is also the cheapest point to adopt the adaptive width.
            self.shift = Self::shift_for(self.ema);
            self.base = self.align(tu);
            self.cur.push(key);
        } else if tu < self.base.saturating_add(1 << self.shift) {
            // Active span, or a push earlier than everything pending
            // (the kernel never does this, but the public API allows it);
            // either way `cur` keeps the global minimum.
            self.cur.push(key);
        } else {
            let d = (tu - self.base) >> self.shift;
            if d <= NUM_BUCKETS as u64 {
                self.ring_insert((self.ring_head + d as usize - 1) & RING_MASK, key);
            } else {
                self.overflow.push_deferred(key);
            }
        }
        self.len += 1;
    }

    #[inline]
    fn ring_insert(&mut self, slot: usize, key: Key) {
        self.ring[slot].push(key);
        self.ring_occ |= 1 << slot;
        self.near_len += 1;
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let key = self.pop_key()?;
        // SAFETY: `key` was just popped and its payload not yet taken.
        let event = unsafe { self.take_payload(&key) };
        Some(ScheduledEvent {
            time: key.time,
            seq: key.seq,
            dst: key.dst,
            event,
        })
    }

    /// The kernel's half of [`EventQueue::pop`]: removes the earliest key
    /// and leaves its payload in the slab for [`EventQueue::take_payload`].
    /// The kernel moves the payload straight from its slot into the
    /// handler call instead of through a `ScheduledEvent` temporary.
    #[inline(always)]
    pub(crate) fn pop_key(&mut self) -> Option<Key> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        self.len -= 1;
        Some(self.cur.pop_min())
    }

    /// Moves out the payload of a key returned by [`EventQueue::pop_key`].
    ///
    /// # Safety
    ///
    /// `key` must come from `pop_key` on this queue, and its payload must
    /// not have been taken already.
    #[inline(always)]
    pub(crate) unsafe fn take_payload(&mut self, key: &Key) -> E {
        // SAFETY: a popped key is the only one naming its slot, and per
        // the contract the slot still holds its payload.
        unsafe { self.slab.take(key.slot) }
    }

    /// Refills a drained active bucket, so `cur` holds the global minimum.
    ///
    /// Deliberately lazy: `pop` leaves `cur` empty when it takes the
    /// bucket's last event and refills on the *next* pop. In between, the
    /// kernel delivers that event and its handler schedules follow-ups at
    /// `now + delay`. The window still starts at `now`, so those keys land
    /// in their own buckets (or, at zero delay, append to `cur` in seq
    /// order). An eager refill would first slide the window to the next
    /// occupied bucket, and every follow-up due before it would fall into
    /// `cur` as an out-of-order key.
    #[inline]
    fn settle(&mut self) {
        if self.cur.is_empty() && self.len > 0 {
            self.refill();
        }
    }

    /// The earliest pending timestamp, refilling the active bucket first
    /// if it drained: the kernel's form of [`EventQueue::peek_time`],
    /// which must not mutate and so has to search the next bucket instead.
    #[inline]
    pub(crate) fn next_time(&mut self) -> Option<Time> {
        self.settle();
        self.cur.peek_time()
    }

    /// Re-establishes "`cur` holds the global minimum" after the active
    /// bucket drained: advance the ladder to the next occupied bucket, or
    /// jump straight to the overflow tier's minimum. The common case —
    /// the ring holds the next event and the width still fits — is kept
    /// small enough to inline into `pop`.
    #[inline]
    fn refill(&mut self) {
        debug_assert!(self.cur.is_empty() && self.len > 0);
        let desired = Self::shift_for(self.ema);
        if self.near_len > 0 && desired.abs_diff(self.shift) < 2 {
            self.advance_to_next_bucket();
        } else {
            self.refill_slow(desired);
        }
    }

    /// [`EventQueue::refill`]'s other cases: a width change first, or an
    /// empty ring.
    #[inline(never)]
    fn refill_slow(&mut self, desired: u32) {
        if self.near_len > 0 {
            // The observed traffic density no longer matches the bucket
            // width (hysteresis of one step avoids thrash); redistribute
            // the ring under the new geometry, then bring back any
            // overflow events the new coverage reaches — a widened ring
            // may now cover events deferred under the narrow one, and
            // the jump below must not skip past them.
            self.rebucket(desired);
            self.pull_overflow();
            if !self.cur.is_empty() {
                return;
            }
        }
        if self.near_len > 0 {
            self.advance_to_next_bucket();
            return;
        }
        // Everything pending is in the overflow tier: jump the ladder to
        // its minimum instead of sliding bucket by bucket. The ring is
        // empty, so adopting the adaptive width here is free.
        self.overflow.absorb();
        debug_assert!(self.overflow.len() == self.len);
        self.shift = desired;
        let t = self.overflow.peek_time().expect("overflow holds the rest");
        self.base = self.align(t.units());
        self.pull_overflow();
        if self.cur.is_empty() {
            // Only reachable when the window end saturated at u64::MAX;
            // fall back to serving straight from the overflow heap (its
            // pop order is exact, so the contract holds).
            let key = self.overflow.pop().expect("overflow non-empty");
            self.cur.push(key);
        }
    }

    /// Jumps the window straight to the next occupied ring bucket and
    /// makes it the active bucket.
    #[inline]
    fn advance_to_next_bucket(&mut self) {
        debug_assert!(self.near_len > 0 && self.ring_occ != 0);
        let rot = self.ring_occ.rotate_right(self.ring_head as u32);
        let d = rot.trailing_zeros() as usize + 1;
        let slot = (self.ring_head + d - 1) & RING_MASK;
        self.base += (d as u64) << self.shift;
        self.ring_head = (self.ring_head + d) & RING_MASK;
        self.ring_occ &= !(1u64 << slot);
        self.near_len -= self.ring[slot].len();
        // The bucket keeps a buffer; after the head advance this slot is
        // the ring's far end, where the pull below may land events.
        self.cur.refill_from(&mut self.ring[slot]);
        // The window slid `d` buckets forward; migrate any overflow
        // events the ring now covers. They land at offsets
        // `>= NUM_BUCKETS + 1 - d`, i.e. in the ring, never in `cur`.
        self.pull_overflow();
    }

    /// Redistributes the ring's events under bucket width `1 << new_shift`.
    ///
    /// Only called with `cur` empty. Events may land in `cur` (the new,
    /// narrower active span), back in the ring, or — when the coverage
    /// shrank — in the overflow tier. `cur` keeps the global minimum
    /// afterwards: anything left in the overflow tier was at least
    /// `(NUM_BUCKETS + 1)` old bucket widths past `base`, which the new
    /// active span (at most `1 << MAX_BUCKET_SHIFT` wide) cannot reach.
    fn rebucket(&mut self, new_shift: u32) {
        debug_assert!(self.cur.is_empty());
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut occ = self.ring_occ;
        while occ != 0 {
            let slot = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            scratch.append(&mut self.ring[slot]);
        }
        self.ring_occ = 0;
        self.ring_head = 0;
        self.near_len = 0;
        self.shift = new_shift;
        // Narrowing keeps `base` aligned (old widths are multiples of
        // new); widening aligns it down, which only grows the span.
        self.base = self.align(self.base);
        for key in scratch.drain(..) {
            let tu = key.time.units();
            if tu < self.base.saturating_add(1 << new_shift) {
                self.cur.push(key);
            } else {
                let d = (tu - self.base) >> new_shift;
                if d <= NUM_BUCKETS as u64 {
                    self.ring_insert((d as usize - 1) & RING_MASK, key);
                } else {
                    self.overflow.push_deferred(key);
                }
            }
        }
        self.scratch = scratch;
    }

    /// Moves overflow events that now fall inside the near window into
    /// the ring (or `cur`, after a jump rebases the ladder onto them).
    #[inline]
    fn pull_overflow(&mut self) {
        let end = self
            .base
            .saturating_add((NUM_BUCKETS as u64 + 1) << self.shift);
        // Usually nothing is due inside the window (or nothing is in the
        // tier at all): one comparison, and the deferred tail waits.
        if self.overflow.earliest().units() < end {
            self.pull_overflow_until(end);
        }
    }

    #[inline(never)]
    fn pull_overflow_until(&mut self, end: u64) {
        self.overflow.absorb();
        while let Some(t) = self.overflow.peek_time() {
            if t.units() >= end {
                break;
            }
            let key = self.overflow.pop().expect("peeked event exists");
            let tu = key.time.units();
            debug_assert!(tu >= self.base);
            if tu < self.base + (1 << self.shift) {
                self.cur.push(key);
            } else {
                let d = ((tu - self.base) >> self.shift) as usize;
                self.ring_insert((self.ring_head + d - 1) & RING_MASK, key);
            }
        }
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(t) = self.cur.peek_time() {
            return Some(t);
        }
        // The active bucket drained and is refilled lazily: the minimum is
        // in the next occupied ring bucket (buckets partition the window
        // in time order, and the overflow tier lies beyond it) or, with
        // the ring empty, in the overflow heap or its deferred tail.
        if self.near_len > 0 {
            let rot = self.ring_occ.rotate_right(self.ring_head as u32);
            let slot = (self.ring_head + rot.trailing_zeros() as usize) & RING_MASK;
            return self.ring[slot].iter().map(|k| k.time).min();
        }
        Some(self.overflow.earliest()).filter(|_| !self.overflow.is_empty())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        if !std::mem::needs_drop::<E>() {
            return;
        }
        let cur = self.cur.run[self.cur.head..].iter().chain(&self.cur.side.items);
        let ring = self.ring.iter().flatten();
        let overflow = self.overflow.items.iter().chain(&self.overflow.tail);
        let slots: Vec<u32> = cur.chain(ring).chain(overflow).map(|k| k.slot).collect();
        for slot in slots {
            // SAFETY: every key in the tiers names a distinct live slot,
            // and each is taken exactly once here.
            drop(unsafe { self.slab.take(slot) });
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    fn dst(i: u32) -> ComponentId {
        ComponentId::from_raw(i)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), dst(0), 30);
        q.push(Time::from_ns(10), dst(0), 10);
        q.push(Time::from_ns(20), dst(0), 20);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(7), dst(0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ns(9), dst(1), ());
        q.push(Time::from_ns(3), dst(1), ());
        assert_eq!(q.peek_time(), Some(Time::from_ns(3)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "unwired")]
    fn pushing_to_unwired_port_panics() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, ComponentId::UNWIRED, ());
    }

    #[test]
    fn events_far_beyond_the_ring_come_back_in_order() {
        // One event per tier: active bucket, mid-ring, far overflow.
        let mut q = EventQueue::with_capacity(8);
        q.push(Time::from_us(500), dst(0), "overflow");
        q.push(Time::from_ns(1), dst(0), "cur");
        q.push(Time::from_ns(300), dst(0), "ring");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["cur", "ring", "overflow"]);
    }

    #[test]
    fn equal_time_ties_survive_tier_migration() {
        // Push a far-future event, drain past it so it migrates through
        // the overflow tier, and interleave a same-time push: `seq`
        // order must still decide.
        let far = Time::from_us(300);
        let mut q = EventQueue::new();
        q.push(far, dst(0), 0u32); // seq 0, starts in overflow
        q.push(Time::from_ns(1), dst(0), 99);
        assert_eq!(q.pop().unwrap().event, 99);
        // The jump rebased the ladder onto `far`; a fresh push at the
        // same instant gets a later seq and must pop second.
        q.push(far, dst(0), 1u32); // seq 2
        assert_eq!(q.pop().unwrap().event, 0);
        assert_eq!(q.pop().unwrap().event, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_tracks_reference_order() {
        // Deterministic mixed workload crossing every tier boundary.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time units, seq)
        let mut seq = 0u64;
        let mut push = |q: &mut EventQueue<u64>, reference: &mut Vec<(u64, u64)>, units: u64| {
            q.push(Time::from_units(units), dst(0), seq);
            reference.push((units, seq));
            seq += 1;
        };
        for i in 0..2_000u64 {
            // Cluster near the front, sprinkle far-future timers.
            push(&mut q, &mut reference, (i * 7) % 257);
            if i % 5 == 0 {
                push(&mut q, &mut reference, 10_000 + (i * 31) % 5_000);
            }
            if i % 3 == 0 {
                let popped = q.pop().unwrap();
                reference.sort();
                let expect = reference.remove(0);
                assert_eq!((popped.time.units(), popped.seq), expect);
            }
        }
        reference.sort();
        for expect in reference {
            let popped = q.pop().unwrap();
            assert_eq!((popped.time.units(), popped.seq), expect);
        }
        assert!(q.pop().is_none());
    }

    /// Hold-`k` churn against a sort oracle: `steps` pop+push rounds with
    /// per-step delays from `delay(i)`, verifying exact `(time, seq)`
    /// order throughout.
    fn churn_oracle(k: u64, steps: u64, delay: impl Fn(u64) -> u64) -> EventQueue<u64> {
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        for i in 0..k {
            let t = delay(i);
            q.push(Time::from_units(t), dst(0), seq);
            reference.push((t, seq));
            seq += 1;
        }
        for i in 0..steps {
            let popped = q.pop().unwrap();
            reference.sort_unstable();
            let expect = reference.remove(0);
            assert_eq!((popped.time.units(), popped.seq), expect, "step {i}");
            let t = popped.time.units() + delay(i);
            q.push(Time::from_units(t), dst(0), seq);
            reference.push((t, seq));
            seq += 1;
        }
        reference.sort_unstable();
        for expect in reference {
            let popped = q.pop().unwrap();
            assert_eq!((popped.time.units(), popped.seq), expect);
        }
        assert!(q.pop().is_none());
        q
    }

    #[test]
    fn dense_churn_narrows_the_buckets_and_keeps_order() {
        // 512 pending events spread over <256 units: the fixed-width
        // ladder would pile most of them into a couple of wide buckets.
        // A deterministic LCG supplies deltas in 1..=16.
        let mut x = 0x9e3779b97f4a7c15u64;
        let deltas: Vec<u64> = (0..1024)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 60) + 1
            })
            .collect();
        let q = churn_oracle(512, 4096, |i| deltas[(i % 1024) as usize]);
        assert!(
            q.shift < MAX_BUCKET_SHIFT,
            "dense traffic should have narrowed the buckets (shift {})",
            q.shift
        );
    }

    #[test]
    fn sparse_after_dense_widens_the_buckets_again() {
        // Dense phase drags the width down; a sparse phase (deltas ~40x
        // wider) must widen it back without breaking order.
        let q = churn_oracle(256, 8192, |i| {
            if i < 4096 {
                1 + i % 8
            } else {
                300 + i % 200
            }
        });
        assert!(
            q.shift >= 2,
            "sparse traffic should have widened the buckets (shift {})",
            q.shift
        );
    }

    #[test]
    fn widening_rebucket_recovers_deferred_overflow_events() {
        // Regression: under a narrow width, mid-range events are
        // deferred to the overflow tier; a later widening rebucket must
        // bring them back before the window jumps past them. Dense
        // traffic with mid-range timers sprinkled in, then a sparse
        // phase to force the widening.
        churn_oracle(256, 12_288, |i| {
            if i < 8192 {
                if i % 16 == 0 {
                    300 + (i % 7) * 100
                } else {
                    1 + i % 8
                }
            } else {
                400 + i % 300
            }
        });
    }

    #[test]
    fn deferred_overflow_pushes_pop_in_order() {
        // A burst of far-future timers lands in the overflow tail
        // unsorted; draining must absorb and order them exactly.
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), dst(0), 0u64);
        let times = [900u64, 300, 700, 300, 500, 100, 800];
        for (i, &us) in times.iter().enumerate() {
            q.push(Time::from_us(us), dst(0), i as u64 + 1);
        }
        assert_eq!(q.len(), times.len() + 1);
        let mut order: Vec<u64> = Vec::new();
        while let Some(ev) = q.pop() {
            order.push(ev.event);
        }
        // Sorted by (time, seq): the tie at 300 µs keeps insertion order.
        assert_eq!(order, vec![0, 6, 2, 4, 5, 3, 7, 1]);
    }

    #[test]
    fn len_counts_all_tiers() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), dst(0), ());
        q.push(Time::from_ns(200), dst(0), ());
        q.push(Time::from_ms(5), dst(0), ());
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    /// A payload that counts live instances, so the tests catch a slab
    /// slot that is dropped twice, never dropped, or handed out twice.
    struct Tracked {
        id: u64,
        live: std::rc::Rc<std::cell::Cell<i64>>,
    }

    impl Tracked {
        fn new(id: u64, live: &std::rc::Rc<std::cell::Cell<i64>>) -> Self {
            live.set(live.get() + 1);
            Tracked {
                id,
                live: live.clone(),
            }
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.live.set(self.live.get() - 1);
        }
    }

    /// What the randomized equivalence run exercised, summed over cases.
    #[derive(Default)]
    struct Coverage {
        shift_changes: u64,
        overflow_pulls: u64,
        empty_rebases: u64,
        max_slots: usize,
        max_live: usize,
    }

    /// One randomized run: interleaves `push`, `peek_time` and `pop`
    /// through dense, sparse and far-timer phases, mirroring every
    /// operation on a `BinaryHeap<ScheduledEvent>` — the queue's original
    /// single-heap layout — and demanding identical pops.
    fn equivalence_case(rng: &mut crate::rng::Xoshiro256pp, cov: &mut Coverage) {
        use crate::rng::Rng;
        use std::collections::BinaryHeap;

        let live = std::rc::Rc::new(std::cell::Cell::new(0i64));
        let mut q: EventQueue<Tracked> = EventQueue::new();
        let mut reference: BinaryHeap<ScheduledEvent<u64>> = BinaryHeap::new();
        let mut seq = 0u64; // mirrors the queue's own counter
        let mut now = 0u64;
        let mut id = 0u64;
        let mut was_empty = true;
        let steps = rng.gen_range(2_000usize..6_000);
        for step in 0..steps {
            // Phases of ~500 steps: dense near-horizon churn (narrows the
            // buckets), sparse wide deltas (widens them), and bursts of
            // far timers (overflow tier, deferred tail, pulls).
            let phase = (step / 500) % 3;
            let shift_before = q.shift;
            let overflow_before = q.overflow.len();
            let op = rng.gen_range(0u32..100);
            if op < 48 || reference.is_empty() {
                let delay = match phase {
                    0 => rng.gen_range(0u64..12),
                    1 => rng.gen_range(200u64..3_000),
                    _ if op % 4 == 0 => rng.gen_range(20_000u64..2_000_000),
                    _ => rng.gen_range(0u64..400),
                };
                let t = now + delay;
                let dst = ComponentId::from_raw(rng.gen_range(0u32..8));
                q.push(Time::from_units(t), dst, Tracked::new(id, &live));
                reference.push(ScheduledEvent {
                    time: Time::from_units(t),
                    seq,
                    dst,
                    event: id,
                });
                seq += 1;
                if was_empty {
                    cov.empty_rebases += 1;
                    was_empty = false;
                }
                id += 1;
            } else if op < 52 {
                // Drain everything: the next push rebases the ladder.
                while let Some(expect) = reference.pop() {
                    let got = q.pop().expect("queue ran dry before the reference");
                    assert_eq!((got.time, got.seq, got.dst, got.event.id), (expect.time, expect.seq, expect.dst, expect.event));
                    now = got.time.units();
                }
                assert!(q.pop().is_none());
            } else {
                assert_eq!(q.peek_time(), reference.peek().map(|e| e.time), "step {step}");
                let expect = reference.pop().expect("reference non-empty");
                let got = q.pop().expect("queue non-empty");
                assert_eq!(
                    (got.time, got.seq, got.dst, got.event.id),
                    (expect.time, expect.seq, expect.dst, expect.event),
                    "step {step}"
                );
                now = got.time.units();
            }
            assert_eq!(q.len(), reference.len());
            assert_eq!(live.get(), reference.len() as i64, "a payload leaked or was freed twice");
            was_empty |= reference.is_empty();
            cov.shift_changes += u64::from(q.shift != shift_before);
            cov.overflow_pulls += u64::from(q.overflow.len() < overflow_before);
            cov.max_slots = cov.max_slots.max(q.slab.slots.len());
            cov.max_live = cov.max_live.max(reference.len());
        }
        // Dropping the queue releases whatever is still pending.
        drop(q);
        assert_eq!(live.get(), 0, "dropping the queue must drop pending payloads");
    }

    #[test]
    fn randomized_equivalence_with_binary_heap_reference() {
        let mut cov = Coverage::default();
        crate::check::cases("event_queue.binary_heap_equivalence", 48, |rng| {
            equivalence_case(rng, &mut cov)
        });
        assert!(cov.shift_changes > 0, "no bucket-width change (rebucket or rebase)");
        assert!(cov.overflow_pulls > 0, "nothing migrated out of the overflow tier");
        assert!(cov.empty_rebases > 48, "the queue never drained and refilled");
        // Slot reuse: the slab never grows past the peak live count.
        assert!(
            cov.max_slots <= cov.max_live,
            "slab grew to {} slots for {} live events",
            cov.max_slots,
            cov.max_live
        );
    }

    #[test]
    fn rebucket_under_a_lazy_refill_keeps_order() {
        // A drained active bucket is refilled on the next pop, after the
        // handler's follow-ups were filed against the old window; a width
        // change at that refill must still honour them.
        let mut q = EventQueue::new();
        let mut seq_order = Vec::new();
        for i in 0..64u64 {
            q.push(Time::from_units(i * 2), dst(0), i);
        }
        let mut now = 0;
        for i in 0..2_000u64 {
            let ev = q.pop().unwrap();
            assert!(ev.time.units() >= now);
            now = ev.time.units();
            seq_order.push((ev.time.units(), ev.seq));
            // Alternate dense and wide follow-ups so the EMA swings the
            // width back and forth across refills.
            let delay = if (i / 200) % 2 == 0 { 1 + i % 3 } else { 500 + i % 97 };
            q.push(Time::from_units(now + delay), dst(0), i);
        }
        let mut sorted = seq_order.clone();
        sorted.sort_unstable();
        assert_eq!(seq_order, sorted);
    }

    #[test]
    fn peek_time_sees_through_a_drained_active_bucket() {
        // Popping the active bucket's last event leaves it empty until the
        // next pop; `peek_time` must still report the next ring bucket's
        // minimum (scanning it: bucket order is push order) and then the
        // overflow tier's, deferred tail included.
        let mut q = EventQueue::new();
        q.push(Time::from_units(0), dst(0), 0u32); // rebases: base 0, width 64
        q.push(Time::from_units(110), dst(0), 1); // ring bucket [64, 128)
        q.push(Time::from_units(100), dst(0), 2); // same bucket, earlier
        q.push(Time::from_units(2_000_000), dst(0), 3); // overflow tail
        q.push(Time::from_units(1_000_000), dst(0), 4); // overflow tail
        assert_eq!(q.pop().unwrap().event, 0);
        assert!(q.cur.is_empty(), "the refill is deferred to the next pop");
        assert_eq!(q.peek_time(), Some(Time::from_units(100)));
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 1);
        assert!(q.cur.is_empty() && q.near_len == 0 && !q.overflow.tail.is_empty());
        assert_eq!(q.peek_time(), Some(Time::from_units(1_000_000)));
        assert_eq!(q.pop().unwrap().event, 4);
        assert_eq!(q.peek_time(), Some(Time::from_units(2_000_000)));
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn zero_sized_payloads_are_dropped_exactly_once() {
        // Zero-sized payloads bypass the slab's storage; each push must
        // still come back out (popped or dropped with the queue) once.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Z;
        impl Drop for Z {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(Time::from_units(i * 37 % 1_000), dst(0), Z);
        }
        for _ in 0..40 {
            drop(q.pop().unwrap());
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 40);
        assert!(q.slab.slots.is_empty() && q.slab.free.is_empty());
        drop(q);
        assert_eq!(DROPS.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn shift_for_is_the_smallest_covering_width() {
        // The closed form must match the definition: the smallest `s` in
        // `0..=MAX_BUCKET_SHIFT` with `32 << s >= ema`.
        for ema in 0..(64u64 << MAX_BUCKET_SHIFT) {
            let mut s = 0;
            while s < MAX_BUCKET_SHIFT && (32u64 << s) < ema {
                s += 1;
            }
            assert_eq!(EventQueue::<()>::shift_for(ema), s, "ema {ema}");
        }
        assert_eq!(EventQueue::<()>::shift_for(u64::MAX), MAX_BUCKET_SHIFT);
    }
}
