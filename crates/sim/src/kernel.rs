//! The simulation kernel: component registry + event loop.
//!
//! Two kernels share the same component model and `(time, seq)` delivery
//! contract:
//!
//! * [`Simulation`] — the sequential kernel: one event queue, one loop.
//! * [`PartitionedSimulation`] — the conservative parallel-DES kernel:
//!   the component graph is split into *domains*, each with its own
//!   ladder queue, synchronized by barrier epochs whose width is the
//!   minimum cross-domain link latency (the *lookahead*). A cross-domain
//!   send at time `t` arrives no earlier than `t + lookahead`, so every
//!   domain can drain to the epoch horizon before exchanging time-stamped
//!   event batches. See `DESIGN.md` §12 for the architecture and the
//!   determinism argument.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::audit;
use crate::component::{Component, ComponentId};
use crate::event::{EventQueue, ScheduledEvent};
use crate::sync::{Mailbox, Mutex};
use crate::time::Time;
use crate::trace::{self, TraceVal};

/// Bit position of the domain index inside a composite sequence number.
///
/// Every event pushed by the partitioned kernel carries
/// `seq = (domain << SEQ_DOMAIN_SHIFT) | per-domain counter`: local pushes
/// allocate from their domain queue's counter (rebased to the domain's
/// space), and cross-domain sends allocate from the *sender's* counter at
/// send time and carry the seq with the event. Delivery order at any
/// destination is lexicographic `(time, seq)` — a pure function of the
/// schedule, independent of thread count and of when remote batches are
/// ingested. 2^48 events per domain of headroom before spaces could
/// collide.
const SEQ_DOMAIN_SHIFT: u32 = 48;

/// Cross-domain routing state attached to a domain's [`Simulation`].
struct RouteState<E> {
    /// Owning domain per component id (shared, read-only).
    domain_of: Arc<[u32]>,
    /// The domain this queue belongs to.
    home: u32,
    /// Cross-domain sends staged during the current epoch window, each
    /// carrying a seq allocated from this domain's counter.
    outbox: Vec<ScheduledEvent<E>>,
}

/// The scheduling context handed to a component while it handles an event.
///
/// `Ctx` is the only way components interact with the rest of the machine:
/// they read the clock with [`Ctx::now`] and schedule events with
/// [`Ctx::send`] / [`Ctx::send_at`].
pub struct Ctx<'a, E> {
    now: Time,
    self_id: ComponentId,
    queue: &'a mut EventQueue<E>,
    stop_requested: &'a mut bool,
    route: Option<&'a mut RouteState<E>>,
}

impl<E> Ctx<'_, E> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the component currently handling an event.
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedules `event` for `dst`, `delay` after the current time.
    #[inline(always)]
    pub fn send(&mut self, dst: ComponentId, delay: Time, event: E) {
        self.push_routed(dst, self.now + delay, event);
    }

    /// Schedules `event` for `dst` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — delivering events backwards in time
    /// would break causality.
    #[inline(always)]
    pub fn send_at(&mut self, dst: ComponentId, at: Time, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        self.push_routed(dst, at, event);
    }

    /// Local pushes go straight to the queue; under the partitioned
    /// kernel, sends to a foreign domain are staged in the outbox with a
    /// seq carried from this domain's counter (see `SEQ_DOMAIN_SHIFT`).
    ///
    /// Always inlined into the sending handler, so a local send writes
    /// its payload straight into the queue's slab slot.
    #[inline(always)]
    fn push_routed(&mut self, dst: ComponentId, at: Time, event: E) {
        if let Some(route) = self.route.as_deref_mut() {
            if route.domain_of.get(dst.raw() as usize).copied() != Some(route.home) {
                Self::stage_foreign(route, self.queue, dst, at, event);
                return;
            }
        }
        self.queue.push(at, dst, event);
    }

    #[cold]
    #[inline(never)]
    fn stage_foreign(
        route: &mut RouteState<E>,
        queue: &mut EventQueue<E>,
        dst: ComponentId,
        at: Time,
        event: E,
    ) {
        assert!(
            !dst.is_unwired(),
            "event scheduled for an unwired component port"
        );
        let seq = queue.allocate_seq();
        route.outbox.push(ScheduledEvent {
            time: at,
            seq,
            dst,
            event,
        });
    }

    /// Asks the kernel to stop after the current event is handled.
    ///
    /// Under the sequential kernel the run loop exits before the next
    /// event; under the partitioned kernel the stop takes effect at the
    /// end of the current barrier epoch (at most one lookahead later), so
    /// every domain halts at the same horizon.
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// A complete simulated machine: a registry of components and the event loop
/// that drives them.
///
/// See the [crate-level documentation](crate) for a full example.
pub struct Simulation<E> {
    components: Vec<Option<Box<dyn Component<E>>>>,
    queue: EventQueue<E>,
    now: Time,
    stop_requested: bool,
    events_processed: u64,
    /// Observer invoked for every delivered event (see
    /// [`set_event_hook`](Simulation::set_event_hook)). `None` in normal
    /// operation, so the delivery loop pays only a branch. `Send` because
    /// the partitioned kernel moves domain simulations to worker threads.
    event_hook: Option<Box<dyn FnMut(Time, ComponentId, &E) + Send>>,
    /// `(time, seq)` of the last delivered event; the invariant auditor
    /// checks lexicographic pop order against it. Only touched when
    /// auditing is on.
    audit_last: Option<(Time, u64)>,
    /// Cross-domain routing, present only when this simulation is one
    /// domain of a [`PartitionedSimulation`]. `None` costs the sequential
    /// hot path a single branch in [`Ctx::send`].
    route: Option<Box<RouteState<E>>>,
}

impl<E: 'static> Simulation<E> {
    /// Creates an empty simulation at time zero.
    ///
    /// The queue reserves nothing up front and grows to the peak pending
    /// count, so the heap a machine holds (one queue per machine, and one
    /// per partitioned domain) follows the traffic it really has.
    pub fn new() -> Self {
        Simulation {
            components: Vec::new(),
            queue: EventQueue::new(),
            now: Time::ZERO,
            stop_requested: false,
            events_processed: 0,
            event_hook: None,
            audit_last: None,
            route: None,
        }
    }

    /// Installs an observer called for every delivered event, before the
    /// destination component handles it.
    ///
    /// The hook is a pure observer — it receives the delivery time, the
    /// destination, and a borrow of the event, and cannot schedule events
    /// or mutate components, so it can never perturb a run. The system
    /// model uses it to feed the kernel trace category
    /// ([`crate::trace`]); harnesses may use it for ad-hoc event counting.
    /// Pass-through cost when no hook is installed is a single branch.
    /// The hook must be `Send` so a domain simulation can move to a
    /// partitioned-kernel worker.
    pub fn set_event_hook(&mut self, hook: Option<Box<dyn FnMut(Time, ComponentId, &E) + Send>>) {
        self.event_hook = hook;
    }

    /// Registers a component and returns its id.
    pub fn add_component(&mut self, component: Box<dyn Component<E>>) -> ComponentId {
        let id = ComponentId::from_raw(self.components.len() as u32);
        self.components.push(Some(component));
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Schedules an event from outside the simulation (e.g. test or harness
    /// code), `delay` after the current time.
    pub fn post(&mut self, dst: ComponentId, delay: Time, event: E) {
        self.queue.push(self.now + delay, dst, event);
    }

    /// Runs `f` with a typed mutable reference to the component `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale or if the component is not a `T`.
    pub fn with_component<T: 'static, F, R>(&mut self, id: ComponentId, f: F) -> R
    where
        F: FnOnce(&mut T) -> R,
    {
        let slot = self
            .components
            .get_mut(id.raw() as usize)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("no component registered with {id:?}"));
        let any = slot.as_any_mut();
        let typed = any
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("component {id:?} is not the requested type"));
        f(typed)
    }

    /// Delivers the next pending event, if any. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop_key() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event queue produced a past event");
        if audit::enabled() {
            // Invariant 6: time never runs backwards, and deliveries come
            // in exact lexicographic (time, seq) order.
            if ev.time < self.now {
                audit::violation(
                    audit::AuditKind::Clock,
                    ev.time,
                    u16::MAX,
                    "past_event",
                    &[
                        ("now_units", TraceVal::U(self.now.units())),
                        ("seq", TraceVal::U(ev.seq)),
                    ],
                );
            }
            if let Some((last_time, last_seq)) = self.audit_last {
                // A partitioned domain legally delivers same-time causal
                // appends out of seq order: a zero-latency forward of a
                // remote arrival allocates a fresh local seq, and the
                // composite prefix (the *sender's* domain index) may sort
                // below the remote one. Domain kernels therefore audit
                // clock monotonicity and duplicated seqs; only the
                // sequential kernel owns the exact lexicographic contract.
                let regressed = if self.route.is_some() {
                    ev.time < last_time
                        || (ev.time == last_time && ev.seq == last_seq)
                } else {
                    (ev.time, ev.seq) <= (last_time, last_seq)
                };
                if regressed {
                    audit::violation(
                        audit::AuditKind::Clock,
                        ev.time,
                        u16::MAX,
                        "delivery_order",
                        &[
                            ("seq", TraceVal::U(ev.seq)),
                            ("last_seq", TraceVal::U(last_seq)),
                            ("last_units", TraceVal::U(last_time.units())),
                        ],
                    );
                }
            }
            self.audit_last = Some((ev.time, ev.seq));
        }
        self.now = ev.time;
        self.events_processed += 1;
        // SAFETY: `ev` was just popped from this queue; its payload is
        // taken once, here.
        let event = unsafe { self.queue.take_payload(&ev) };
        if let Some(hook) = &mut self.event_hook {
            hook(self.now, ev.dst, &event);
        }

        // `Ctx` reaches the queue, the stop flag and the routing state but
        // never the component table, so the destination can be borrowed in
        // place while it schedules events to anyone, itself included.
        let component = self.components[ev.dst.raw() as usize]
            .as_deref_mut()
            .unwrap_or_else(|| panic!("event delivered to missing component {:?}", ev.dst));
        let mut ctx = Ctx {
            now: self.now,
            self_id: ev.dst,
            queue: &mut self.queue,
            stop_requested: &mut self.stop_requested,
            route: self.route.as_deref_mut(),
        };
        component.handle(event, &mut ctx);
        true
    }

    /// Delivers every pending event strictly before `end_excl` (the
    /// partitioned kernel's epoch window) and returns the earliest pending
    /// time left, the one that ended the window. Does not advance the
    /// clock past the last delivered event and does not consume a stop
    /// request — the epoch coordinator observes stops at the barrier.
    fn run_window(&mut self, end_excl: Time) -> Option<Time> {
        loop {
            match self.queue.next_time() {
                Some(t) if t < end_excl => {
                    self.step();
                }
                head => return head,
            }
        }
    }

    /// Consumes a pending stop request, clearing the flag.
    ///
    /// Both run loops check (and reset) the flag through this single
    /// path, so a stop requested by the last event before *any* exit —
    /// including one at exactly a `run_until` deadline — is observed
    /// before another event can be delivered.
    #[inline]
    fn take_stop(&mut self) -> bool {
        std::mem::take(&mut self.stop_requested)
    }

    /// Runs until the event queue drains or a component requests a stop.
    pub fn run(&mut self) {
        loop {
            if self.take_stop() || !self.step() {
                return;
            }
        }
    }

    /// Runs until simulated time reaches `deadline` (events at exactly
    /// `deadline` are delivered), the queue drains, or a stop is requested.
    pub fn run_until(&mut self, deadline: Time) {
        loop {
            if self.take_stop() {
                return;
            }
            match self.queue.next_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => {
                    // Advance the clock to the deadline even if idle, so that
                    // successive run_until calls observe monotonic time.
                    if self.now < deadline {
                        self.now = deadline;
                    }
                    return;
                }
            }
        }
    }

    /// Runs for `span` of simulated time from the current clock.
    pub fn run_for(&mut self, span: Time) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }
}

impl<E: 'static> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// One domain of a [`PartitionedSimulation`]: a full sequential kernel
/// owning a slice of the component graph, plus its private trace buffer.
struct DomainState<E> {
    sim: Simulation<E>,
    trace: trace::DomainBuffer,
    /// The domain queue's earliest pending time, cached so that planning
    /// an epoch peeks no queue: set by the window that stopped at it and
    /// lowered by every post and arrival. Always equals what
    /// `sim.queue.next_time()` would return.
    head: Option<Time>,
}

impl<E: 'static> DomainState<E> {
    #[inline]
    fn lower_head(&mut self, at: Time) {
        if self.head.is_none_or(|h| at < h) {
            self.head = Some(at);
        }
    }

    /// Enqueues a cross-domain arrival under the seq its sender allocated.
    #[inline]
    fn arrive(&mut self, ev: ScheduledEvent<E>) {
        self.lower_head(ev.time);
        self.sim.queue.push_with_seq(ev.time, ev.seq, ev.dst, ev.event);
    }

    /// One domain window, the step both drivers run: delivers every event
    /// before `end_excl`, caches the new head, and leaves what the
    /// exchange needs in `out` — the stop flag, the staged trace records
    /// when `live_trace` is set, and the cross-domain sends. The outbox is
    /// swapped into `out`, not moved, so both vectors keep their capacity
    /// from epoch to epoch. A domain whose head is at or past `end_excl`
    /// has nothing to deliver and is skipped.
    ///
    /// With `live_trace` off the caller has parked one inert buffer on
    /// this thread for the whole run call (see [`InertTrace`]).
    fn run_window(&mut self, end_excl: Time, live_trace: bool, out: &mut WindowOut<E>) {
        if self.head.is_none_or(|h| h >= end_excl) {
            return;
        }
        if live_trace {
            trace::enter_domain(std::mem::take(&mut self.trace));
        }
        self.head = self.sim.run_window(end_excl);
        if live_trace {
            self.trace = trace::exit_domain();
            out.lines.extend(self.trace.drain_staged());
        }
        let route = self.sim.route.as_mut().expect("domain simulations always route");
        if !route.outbox.is_empty() {
            debug_assert!(out.outbox.is_empty(), "last epoch's sends were not exchanged");
            std::mem::swap(&mut route.outbox, &mut out.outbox);
        }
        out.stop |= self.sim.take_stop();
    }
}

/// What one domain window leaves for the epoch exchange.
struct WindowOut<E> {
    /// Cross-domain sends, each carrying its sender-allocated seq.
    outbox: Vec<ScheduledEvent<E>>,
    /// Staged trace records (live tracing only), in emission order.
    lines: Vec<(u64, trace::Staged)>,
    /// A component requested a stop.
    stop: bool,
    /// The domain's head after the window, for a coordinator that cannot
    /// read it from the domain (the threaded driver's workers own theirs).
    next: Option<Time>,
}

impl<E> Default for WindowOut<E> {
    fn default() -> Self {
        WindowOut {
            outbox: Vec::new(),
            lines: Vec::new(),
            stop: false,
            next: None,
        }
    }
}

/// Parks one inert trace buffer on the current thread until dropped: the
/// trace fast path. When no domain traces, parking each domain's own inert
/// buffer around each window would drop exactly the emits one buffer
/// parked for the whole run call drops, since inert buffers are all
/// alike. Dropping unparks it, on unwind too.
struct InertTrace;

impl InertTrace {
    fn park() -> Self {
        trace::enter_domain(trace::DomainBuffer::default());
        InertTrace
    }
}

impl Drop for InertTrace {
    fn drop(&mut self) {
        drop(trace::exit_domain());
    }
}

/// What the epoch coordinator decides to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpochPlan {
    /// No event remains before the run horizon.
    Done,
    /// The serial domain owns the globally earliest timestamp: run its
    /// events at exactly this time on the coordinator, with every other
    /// domain parked at the barrier (exclusive access to shared state).
    Serial(Time),
    /// Run every worker domain up to (exclusive) this horizon.
    Window(Time),
}

/// Plans one epoch. Both drivers (inline and threaded) call this with the
/// same inputs, so they produce the identical epoch sequence.
///
/// Invariant relied on: `min_pending >= horizon` — every pending event is
/// at or after the committed horizon (cross-domain arrivals land at or
/// after the epoch that produced them; external posts land at or after the
/// clock, which never trails the horizon).
fn plan_epoch(
    horizon: Time,
    min_pending: Option<Time>,
    serial_peek: Option<Time>,
    lookahead: Time,
    end_excl: Time,
) -> EpochPlan {
    let Some(m) = min_pending else {
        return EpochPlan::Done;
    };
    if m >= end_excl {
        return EpochPlan::Done;
    }
    let start = if horizon > m { horizon } else { m };
    if let Some(ts) = serial_peek {
        if ts <= start {
            return EpochPlan::Serial(ts);
        }
    }
    let mut end = start + lookahead;
    if end_excl < end {
        end = end_excl;
    }
    if let Some(ts) = serial_peek {
        if ts < end {
            end = ts;
        }
    }
    EpochPlan::Window(end)
}

/// Asserts the conservative-PDES bound on one cross-domain arrival: it
/// must land at or after `min_arrival`, the epoch horizon the receivers
/// drained to, or the partition plan undercut a real link latency. Both
/// drivers route every cross-domain send through this check.
#[inline]
fn assert_arrival<E>(ev: &ScheduledEvent<E>, min_arrival: Time) {
    if ev.time < min_arrival {
        lookahead_violated(ev.dst, ev.time, min_arrival);
    }
}

#[cold]
#[inline(never)]
fn lookahead_violated(dst: ComponentId, at: Time, min_arrival: Time) -> ! {
    panic!(
        "cross-domain event for {dst:?} arrives at {at:?}, before the epoch horizon \
         {min_arrival:?}: the partition plan's lookahead exceeds this link's real latency"
    );
}

/// Routes one epoch's cross-domain sends for the threaded driver, leaving
/// `outbox` empty with its capacity: serial-bound events go straight into
/// the serial queue (the coordinator owns it), worker-bound events are
/// staged per destination for [`flush_staged`].
fn route_outbox<E: 'static>(
    outbox: &mut Vec<ScheduledEvent<E>>,
    min_arrival: Time,
    domain_of: &[u32],
    serial_idx: Option<usize>,
    serial_state: &mut Option<DomainState<E>>,
    staged: &mut [Vec<ScheduledEvent<E>>],
    inboxes: &[Mailbox<ScheduledEvent<E>>],
) {
    for ev in outbox.drain(..) {
        assert_arrival(&ev, min_arrival);
        let dest = domain_of[ev.dst.raw() as usize] as usize;
        if Some(dest) == serial_idx {
            serial_state
                .as_mut()
                .expect("serial-bound event without a serial domain")
                .arrive(ev);
        } else {
            if staged[dest].capacity() == 0 {
                staged[dest] = inboxes[dest].lease();
            }
            staged[dest].push(ev);
        }
    }
}

/// Deposits staged batches into their destination mailboxes and folds the
/// earliest staged arrival into the coordinator's pending-time map.
fn flush_staged<E>(
    staged: &mut [Vec<ScheduledEvent<E>>],
    inboxes: &[Mailbox<ScheduledEvent<E>>],
    next: &mut [Option<Time>],
) {
    for (dest, batch) in staged.iter_mut().enumerate() {
        if batch.is_empty() {
            continue;
        }
        let earliest = batch.iter().map(|ev| ev.time).min().expect("non-empty batch");
        next[dest] = Some(next[dest].map_or(earliest, |n| n.min(earliest)));
        inboxes[dest].put(std::mem::take(batch));
    }
}

/// Merges one epoch's trace lines from every domain into the global ring
/// in sequential order: `(time, domain)` ascending, per-domain emission
/// order preserved (stable sort). Domain order at equal times matches the
/// sequential kernel because composite seqs put the domain in the high
/// bits.
fn sink_epoch_trace(mut lines: Vec<(u64, u32, trace::Staged)>) {
    if lines.is_empty() {
        return;
    }
    lines.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    trace::sink_staged(lines.into_iter().map(|(_, _, staged)| staged));
}

/// Spin-waits for `cond`, backing off to `yield_now` once the barrier has
/// clearly stalled (epochs are microseconds apart, so the hot spin wins).
fn spin_until(cond: impl Fn() -> bool) {
    let mut tries = 0u32;
    while !cond() {
        if tries < (1 << 14) {
            std::hint::spin_loop();
            tries += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

/// `epoch_end` sentinel telling workers to exit their epoch loop.
const EXIT: u64 = u64::MAX;

/// The conservative parallel-DES kernel: one simulation timeline, executed
/// by several sequential kernels in barrier-synchronized epochs.
///
/// [`PartitionedSimulation::new`] consumes a built [`Simulation`] and a
/// *domain map* (one domain index per component). Each domain becomes a
/// private [`Simulation`] — own ladder queue, own clock — and components
/// keep their global [`ComponentId`]s. Cross-domain sends are staged in a
/// per-domain outbox during an epoch and exchanged at the barrier; the
/// epoch width is the *lookahead*: the minimum cross-domain link latency,
/// so an event sent at time `t` can only arrive at `t + lookahead` or
/// later — never inside a window another domain is still executing.
///
/// # Determinism
///
/// Every event carries a composite sequence number
/// `(domain << 48) | per-domain counter` (see `SEQ_DOMAIN_SHIFT`), and
/// every queue delivers in lexicographic `(time, seq)` order. Both are
/// pure functions of the schedule, so the delivered event order — and
/// therefore every figure, trace line, and statistic — is byte-identical
/// at any worker count, including the inline single-thread driver.
///
/// # The serial domain
///
/// One domain may be marked *serial* (the PRM in the PARD machine: it
/// reads statistics owned by other domains when triggers fire). Whenever
/// the serial domain owns the globally earliest timestamp, the coordinator
/// runs those events alone, with every other domain parked at the barrier,
/// so its cross-domain reads observe exactly the pre-timestamp state — the
/// same state the sequential kernel would show it.
///
/// # Divergences from [`Simulation`]
///
/// * [`Ctx::request_stop`] halts at the end of the current epoch (at most
///   one lookahead late), not after the current event.
/// * Event hooks do not survive partitioning; install per-domain hooks
///   with [`PartitionedSimulation::set_event_hooks`].
/// * A tracer must be installed *before* partitioning: each domain
///   snapshots the trace configuration into a private buffer at
///   construction.
pub struct PartitionedSimulation<E> {
    domains: Vec<DomainState<E>>,
    domain_of: Arc<[u32]>,
    serial: Option<u32>,
    lookahead: Time,
    /// All events strictly before this horizon have been delivered; the
    /// committed front of the whole timeline.
    horizon: Time,
    now: Time,
    events_base: u64,
    audit_shared: bool,
    /// This machine's conservation-ledger scope: several partitioned
    /// machines may audit concurrently (the fleet layer), so each keys its
    /// ledger entries under a unique scope installed on whichever thread
    /// runs its domain windows.
    audit_scope: u64,
    /// When set, overrides the worker-count heuristics outright (tests
    /// pin the threaded driver regardless of machine parallelism).
    forced_workers: Option<usize>,
}

impl<E: Send + 'static> PartitionedSimulation<E> {
    /// Partitions `sim` into domains per `domain_of` (one domain index per
    /// component, in registration order).
    ///
    /// `serial` optionally names the barrier-serialized domain, and
    /// `lookahead` is the minimum cross-domain link latency — the caller
    /// (see `pard-icn`'s domain planner) is responsible for it being a
    /// true lower bound; the kernel asserts it at every exchange.
    ///
    /// # Panics
    ///
    /// Panics if `domain_of` does not cover every component, if `serial`
    /// names a domain outside the map, or if `lookahead` is zero (a zero
    /// lookahead admits no parallelism — keep those components in one
    /// domain).
    pub fn new(sim: Simulation<E>, domain_of: Vec<u32>, serial: Option<u32>, lookahead: Time) -> Self {
        let Simulation {
            components,
            mut queue,
            now,
            stop_requested: _,
            events_processed,
            event_hook: _,
            audit_last: _,
            route: _,
        } = sim;
        assert!(
            lookahead > Time::ZERO,
            "partitioning requires a positive lookahead"
        );
        assert_eq!(
            components.len(),
            domain_of.len(),
            "domain map must cover every registered component"
        );
        let ndom = domain_of
            .iter()
            .copied()
            .max()
            .map(|m| m as usize + 1)
            .expect("cannot partition an empty simulation");
        assert!(
            (ndom as u32) < (1 << (64 - SEQ_DOMAIN_SHIFT)).min(u32::MAX as u64) as u32,
            "too many domains for the composite seq space"
        );
        if let Some(s) = serial {
            assert!((s as usize) < ndom, "serial domain {s} not in the domain map");
        }

        let domain_of: Arc<[u32]> = domain_of.into();
        let count = components.len();
        let mut domains: Vec<DomainState<E>> = (0..ndom)
            .map(|d| {
                let mut dom = Simulation::new();
                dom.components = (0..count).map(|_| None).collect();
                dom.queue.set_seq_base((d as u64) << SEQ_DOMAIN_SHIFT);
                dom.now = now;
                dom.route = Some(Box::new(RouteState {
                    domain_of: domain_of.clone(),
                    home: d as u32,
                    outbox: Vec::new(),
                }));
                DomainState {
                    sim: dom,
                    trace: trace::DomainBuffer::snapshot(),
                    head: None,
                }
            })
            .collect();

        for (i, slot) in components.into_iter().enumerate() {
            domains[domain_of[i] as usize].sim.components[i] = slot;
        }
        // Drain the original queue in pop order — global (time, seq) order
        // — so each domain's counter hands out seqs in delivery order.
        // This runs once at construction, so the rebased seqs are the same
        // at any worker count.
        while let Some(ev) = queue.pop() {
            let d = domain_of[ev.dst.raw() as usize] as usize;
            domains[d].lower_head(ev.time);
            domains[d].sim.queue.push(ev.time, ev.dst, ev.event);
        }

        // One simulation now spans several worker threads: conservation
        // flows cross domains, so the audit ledger must be shared. The
        // machine's warm-up entries (if it ran sequentially first) migrate
        // in rekeyed to its fresh scope, which every domain window
        // installs while it executes.
        let audit_scope = audit::alloc_ledger_scope();
        let audit_shared = audit::enabled();
        if audit_shared {
            audit::share_ledger_scoped(audit_scope);
        }

        PartitionedSimulation {
            domains,
            domain_of,
            serial,
            lookahead,
            horizon: now,
            now,
            events_base: events_processed,
            audit_shared,
            audit_scope,
            forced_workers: None,
        }
    }

    /// Installs one event hook per domain: `make(d)` is called once for
    /// each domain index and may return `None` to leave that domain
    /// unobserved. The per-domain hooks replace the single sequential hook
    /// (which cannot be shared across worker threads).
    pub fn set_event_hooks<F>(&mut self, mut make: F)
    where
        F: FnMut(u32) -> Option<Box<dyn FnMut(Time, ComponentId, &E) + Send>>,
    {
        for (d, dom) in self.domains.iter_mut().enumerate() {
            dom.sim.set_event_hook(make(d as u32));
        }
    }

    /// Committed simulated time (the deadline of the last `run_until`, or
    /// the time of the last delivered event after a stop).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events delivered, including those before partitioning.
    pub fn events_processed(&self) -> u64 {
        self.events_base + self.domains.iter().map(|d| d.sim.events_processed()).sum::<u64>()
    }

    /// Number of registered components (across all domains).
    pub fn component_count(&self) -> usize {
        self.domain_of.len()
    }

    /// Number of domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// The barrier epoch width.
    pub fn lookahead(&self) -> Time {
        self.lookahead
    }

    /// Schedules an event from outside the simulation, `delay` after the
    /// committed time, directly into the owning domain's queue.
    pub fn post(&mut self, dst: ComponentId, delay: Time, event: E) {
        let dom = &mut self.domains[self.domain_of[dst.raw() as usize] as usize];
        let at = self.now + delay;
        dom.lower_head(at);
        dom.sim.queue.push(at, dst, event);
    }

    /// Runs `f` with a typed mutable reference to component `id` (see
    /// [`Simulation::with_component`]).
    pub fn with_component<T: 'static, F, R>(&mut self, id: ComponentId, f: F) -> R
    where
        F: FnOnce(&mut T) -> R,
    {
        let d = self.domain_of[id.raw() as usize] as usize;
        self.domains[d].sim.with_component(id, f)
    }

    /// Runs until simulated time reaches `deadline` (events at exactly
    /// `deadline` are delivered), every queue drains, or a component
    /// requests a stop (which takes effect at the current epoch horizon).
    pub fn run_until(&mut self, deadline: Time) {
        let end_excl = Time::from_units(deadline.units().saturating_add(1));
        let stopped = self.advance(end_excl);
        if stopped {
            let reached = self
                .domains
                .iter()
                .map(|d| d.sim.now())
                .max()
                .unwrap_or(self.now);
            if reached > self.now {
                self.now = reached;
            }
            // Re-anchor the horizon at the committed clock so later posts
            // (which land at `now + delay`) keep the pending-events ≥
            // horizon invariant the epoch planner relies on.
            self.horizon = self.now;
        } else {
            if deadline > self.now {
                self.now = deadline;
            }
            self.horizon = deadline;
        }
    }

    /// Runs for `span` of simulated time from the committed clock.
    pub fn run_for(&mut self, span: Time) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    /// Pins the worker count, bypassing the `PARD_WORKERS` /
    /// `PARD_THREADS` / machine-parallelism heuristics (`None` restores
    /// them). The schedule is identical at every setting; this only
    /// chooses which driver executes it, so determinism tests use it to
    /// force the threaded driver on single-core machines.
    pub fn set_workers(&mut self, workers: Option<usize>) {
        self.forced_workers = workers;
    }

    /// How many worker threads the next advance will use. Collapses to the
    /// inline driver when only one worker domain exists or when the fault
    /// layer is installed (its run state is thread-local and scoped worker
    /// threads are born fresh each call, which would diverge from the
    /// sequential schedule).
    fn worker_count(&self) -> usize {
        let worker_domains = self.domains.len() - usize::from(self.serial.is_some());
        if worker_domains <= 1 || crate::fault::installed() {
            return 1;
        }
        if let Some(n) = self.forced_workers {
            return n.clamp(1, worker_domains);
        }
        // `PARD_WORKERS` forces the worker count outright (determinism
        // tests exercise the threaded driver on any machine). Otherwise
        // `PARD_THREADS` caps the pool, additionally clamped to one less
        // than the machine's parallelism: the epoch barrier is a spin
        // barrier that the coordinator thread spins on too, and
        // `workers + 1` spinning threads on fewer cores serialize through
        // the scheduler at every epoch — orders of magnitude slower than
        // the inline driver, with the identical schedule either way.
        if let Ok(v) = std::env::var("PARD_WORKERS") {
            match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => return n.min(worker_domains),
                _ => {
                    // Hard error, not a silent fallback: a run asked to
                    // pin its worker count must not quietly run with a
                    // heuristic one (the `PARD_FAULT_PLAN` contract).
                    eprintln!("PARD_WORKERS: bad worker count {v:?} (want an integer >= 1)");
                    std::process::exit(2);
                }
            }
        }
        let hw = std::thread::available_parallelism().map_or(1, usize::from);
        crate::par::thread_count()
            .min(worker_domains)
            .min(hw.saturating_sub(1))
            .max(1)
    }

    fn advance(&mut self, end_excl: Time) -> bool {
        debug_assert!(
            self.domains.iter().all(|d| d.head == d.sim.queue.peek_time()),
            "a cached domain head drifted from its queue"
        );
        let workers = self.worker_count();
        // Install this machine's ledger scope for the calling thread (the
        // inline driver's windows and the threaded driver's serial domain
        // both run here); worker threads install it themselves.
        let prev_scope = audit::set_ledger_scope(self.audit_scope);
        // Every buffer snapshots the same tracer at construction, so the
        // domains trace all together or not at all.
        let live_trace = self.domains.iter().any(|d| !d.trace.is_inert());
        let _inert = (!live_trace).then(InertTrace::park);
        let stopped = if workers <= 1 {
            self.advance_inline(end_excl, live_trace)
        } else {
            self.advance_threaded(end_excl, workers, live_trace)
        };
        audit::set_ledger_scope(prev_scope);
        stopped
    }

    /// Routes every window's cross-domain sends straight into their
    /// destination queues (each checked by [`assert_arrival`] against
    /// `min_arrival`), merges this epoch's trace records, and returns
    /// whether any window requested a stop.
    fn exchange(&mut self, min_arrival: Time, outs: &mut [WindowOut<E>]) -> bool {
        let mut stopped = false;
        let mut lines: Vec<(u64, u32, trace::Staged)> = Vec::new();
        for (d, out) in outs.iter_mut().enumerate() {
            stopped |= std::mem::take(&mut out.stop);
            lines.extend(out.lines.drain(..).map(|(t, rec)| (t, d as u32, rec)));
            for ev in out.outbox.drain(..) {
                assert_arrival(&ev, min_arrival);
                self.domains[self.domain_of[ev.dst.raw() as usize] as usize].arrive(ev);
            }
        }
        sink_epoch_trace(lines);
        stopped
    }

    /// The single-thread driver: the exact epoch sequence of the threaded
    /// driver, executed in domain order on the calling thread. Returns
    /// `true` if a stop was requested.
    ///
    /// An epoch costs a few compares beyond the events it delivers: the
    /// planner reads cached heads, domains with nothing before the
    /// horizon are skipped, and the exchange allocates nothing.
    fn advance_inline(&mut self, end_excl: Time, live_trace: bool) -> bool {
        let mut outs: Vec<WindowOut<E>> =
            self.domains.iter().map(|_| WindowOut::default()).collect();
        loop {
            let min_pending = self.domains.iter().filter_map(|d| d.head).min();
            let serial_peek = self.serial.and_then(|s| self.domains[s as usize].head);
            let plan = plan_epoch(self.horizon, min_pending, serial_peek, self.lookahead, end_excl);
            let horizon = match plan {
                EpochPlan::Done => return false,
                EpochPlan::Serial(ts) => {
                    let s = self.serial.expect("serial plan without a serial domain") as usize;
                    let end = Time::from_units(ts.units().saturating_add(1));
                    self.domains[s].run_window(end, live_trace, &mut outs[s]);
                    ts
                }
                EpochPlan::Window(e) => {
                    for (d, dom) in self.domains.iter_mut().enumerate() {
                        if Some(d as u32) != self.serial {
                            dom.run_window(e, live_trace, &mut outs[d]);
                        }
                    }
                    e
                }
            };
            let stopped = self.exchange(horizon, &mut outs);
            self.horizon = horizon;
            if stopped {
                return true;
            }
        }
    }

    /// The threaded driver: worker domains are pinned round-robin onto
    /// `workers` scoped threads for the duration of this call; the
    /// coordinator (calling thread) plans epochs, releases the workers
    /// through a spin-generation barrier, exchanges outboxes between
    /// epochs, and runs the serial domain itself. Returns `true` if a stop
    /// was requested.
    ///
    /// Panics on any thread (including strict-audit aborts and the
    /// lookahead check on the coordinator) are caught at the epoch
    /// boundary, reported through the barrier so every thread exits
    /// cleanly, and resumed on the coordinator after the domains have been
    /// reassembled.
    fn advance_threaded(&mut self, end_excl: Time, workers: usize, live_trace: bool) -> bool {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

        let ndom = self.domains.len();
        let serial_idx = self.serial.map(|s| s as usize);
        let audit_scope = self.audit_scope;
        let domain_of = self.domain_of.clone();
        let lookahead = self.lookahead;
        let mut horizon = self.horizon;
        let mut next: Vec<Option<Time>> = self.domains.iter().map(|d| d.head).collect();

        let slots: Vec<Mutex<Option<DomainState<E>>>> = self
            .domains
            .drain(..)
            .map(|d| Mutex::new(Some(d)))
            .collect();
        let mut serial_state: Option<DomainState<E>> =
            serial_idx.map(|i| slots[i].lock().take().expect("serial domain present"));
        let worker_domains: Vec<usize> = (0..ndom).filter(|&d| Some(d) != serial_idx).collect();

        let inboxes: Vec<Mailbox<ScheduledEvent<E>>> = (0..ndom).map(|_| Mailbox::new()).collect();
        let results: Vec<Mutex<WindowOut<E>>> =
            (0..ndom).map(|_| Mutex::new(WindowOut::default())).collect();
        let epoch_end = AtomicU64::new(0);
        let generation = AtomicU64::new(0);
        let done: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let mut stopped = false;

        std::thread::scope(|scope| {
            for w in 0..workers {
                let mine: Vec<usize> = worker_domains
                    .iter()
                    .enumerate()
                    .filter(|(rank, _)| rank % workers == w)
                    .map(|(_, &d)| d)
                    .collect();
                let slots = &slots;
                let inboxes = &inboxes;
                let results = &results;
                let epoch_end = &epoch_end;
                let generation = &generation;
                let done = &done[w];
                let panic_slot = &panic_slot;
                scope.spawn(move || {
                    audit::set_ledger_scope(audit_scope);
                    let _inert = (!live_trace).then(InertTrace::park);
                    let mut states: Vec<(usize, DomainState<E>)> = mine
                        .iter()
                        .map(|&d| (d, slots[d].lock().take().expect("domain unclaimed")))
                        .collect();
                    let mut scratch: Vec<ScheduledEvent<E>> = Vec::new();
                    let mut my_gen = 0u64;
                    loop {
                        spin_until(|| generation.load(Ordering::Acquire) > my_gen);
                        my_gen += 1;
                        // The Acquire load of `generation` synchronizes
                        // with the coordinator's Release store, which
                        // happens after `epoch_end` was written.
                        let e_units = epoch_end.load(Ordering::Relaxed);
                        if e_units == EXIT {
                            done.store(my_gen, Ordering::Release);
                            break;
                        }
                        let e = Time::from_units(e_units);
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            for (d, state) in states.iter_mut() {
                                // Ingest remote arrivals before the window:
                                // an arrival at the previous horizon is
                                // inside this window.
                                inboxes[*d].take_into(&mut scratch);
                                for ev in scratch.drain(..) {
                                    state.arrive(ev);
                                }
                                let mut out = results[*d].lock();
                                state.run_window(e, live_trace, &mut out);
                                out.next = state.head;
                            }
                        }));
                        let failed = outcome.is_err();
                        if let Err(payload) = outcome {
                            panic_slot.lock().get_or_insert(payload);
                        }
                        done.store(my_gen, Ordering::Release);
                        if failed {
                            break;
                        }
                    }
                    for (d, state) in states {
                        *slots[d].lock() = Some(state);
                    }
                });
            }

            let mut gen = 0u64;
            let mut staged: Vec<Vec<ScheduledEvent<E>>> = (0..ndom).map(|_| Vec::new()).collect();
            let mut serial_out = WindowOut::default();
            // Workers are parked at the barrier whenever the coordinator
            // can panic, so catching here lets it release them with EXIT.
            let coordinated = catch_unwind(AssertUnwindSafe(|| loop {
                let serial_peek = serial_state.as_ref().and_then(|s| s.head);
                let min_pending = worker_domains
                    .iter()
                    .filter_map(|&d| next[d])
                    .chain(serial_peek)
                    .min();
                let mut lines: Vec<(u64, u32, trace::Staged)> = Vec::new();
                match plan_epoch(horizon, min_pending, serial_peek, lookahead, end_excl) {
                    EpochPlan::Done => break,
                    EpochPlan::Serial(ts) => {
                        // Workers are parked at the barrier: the serial
                        // domain has the machine to itself.
                        let state = serial_state
                            .as_mut()
                            .expect("serial plan without a serial domain");
                        let end = Time::from_units(ts.units().saturating_add(1));
                        state.run_window(end, live_trace, &mut serial_out);
                        let sd = serial_idx.expect("serial plan without a serial index") as u32;
                        lines.extend(serial_out.lines.drain(..).map(|(t, rec)| (t, sd, rec)));
                        stopped |= std::mem::take(&mut serial_out.stop);
                        route_outbox(
                            &mut serial_out.outbox,
                            ts,
                            &domain_of,
                            serial_idx,
                            &mut serial_state,
                            &mut staged,
                            &inboxes,
                        );
                        horizon = ts;
                    }
                    EpochPlan::Window(e) => {
                        epoch_end.store(e.units(), Ordering::Relaxed);
                        gen += 1;
                        generation.store(gen, Ordering::Release);
                        spin_until(|| done.iter().all(|d| d.load(Ordering::Acquire) >= gen));
                        if panic_slot.lock().is_some() {
                            break;
                        }
                        for &d in &worker_domains {
                            let mut out = results[d].lock();
                            stopped |= std::mem::take(&mut out.stop);
                            next[d] = out.next;
                            lines.extend(out.lines.drain(..).map(|(t, rec)| (t, d as u32, rec)));
                            route_outbox(
                                &mut out.outbox,
                                e,
                                &domain_of,
                                serial_idx,
                                &mut serial_state,
                                &mut staged,
                                &inboxes,
                            );
                        }
                        horizon = e;
                    }
                }
                flush_staged(&mut staged, &inboxes, &mut next);
                sink_epoch_trace(lines);
                if stopped {
                    break;
                }
            }));
            if let Err(payload) = coordinated {
                panic_slot.lock().get_or_insert(payload);
            }

            epoch_end.store(EXIT, Ordering::Relaxed);
            gen += 1;
            generation.store(gen, Ordering::Release);
        });

        if let Some(state) = serial_state.take() {
            *slots[serial_idx.expect("serial state implies serial index")].lock() = Some(state);
        }
        self.domains = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every domain returned after the scope"))
            .collect();
        // Sends routed in the last epoch wait in the mailboxes for the
        // next window to ingest them, but windows only run inside this
        // call: hand them to their domains' queues before the mailboxes
        // go out of scope, or every `run_for` boundary drops them.
        let mut batch: Vec<ScheduledEvent<E>> = Vec::new();
        for (d, inbox) in inboxes.iter().enumerate() {
            inbox.take_into(&mut batch);
            for ev in batch.drain(..) {
                self.domains[d].arrive(ev);
            }
        }
        self.horizon = horizon;
        if let Some(payload) = panic_slot.into_inner() {
            resume_unwind(payload);
        }
        stopped
    }
}

impl<E> Drop for PartitionedSimulation<E> {
    fn drop(&mut self) {
        if self.audit_shared {
            audit::release_shared_ledger();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_as_any;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Msg {
        Ping,
        Pong,
    }

    struct Pinger {
        peer: ComponentId,
        pongs: u32,
        limit: u32,
    }

    impl Component<Msg> for Pinger {
        fn name(&self) -> &str {
            "pinger"
        }
        fn handle(&mut self, ev: Msg, ctx: &mut Ctx<'_, Msg>) {
            match ev {
                Msg::Pong => {
                    self.pongs += 1;
                    if self.pongs < self.limit {
                        ctx.send(self.peer, Time::from_ns(1), Msg::Ping);
                    }
                }
                Msg::Ping => ctx.send(self.peer, Time::from_ns(1), Msg::Ping),
            }
        }
        impl_as_any!();
    }

    struct Ponger {
        peer: ComponentId,
    }

    impl Component<Msg> for Ponger {
        fn name(&self) -> &str {
            "ponger"
        }
        fn handle(&mut self, ev: Msg, ctx: &mut Ctx<'_, Msg>) {
            if ev == Msg::Ping {
                ctx.send(self.peer, Time::from_ns(1), Msg::Pong);
            }
        }
        impl_as_any!();
    }

    fn build(limit: u32) -> (Simulation<Msg>, ComponentId) {
        let mut sim = Simulation::new();
        let pinger_id = sim.add_component(Box::new(Pinger {
            peer: ComponentId::UNWIRED,
            pongs: 0,
            limit,
        }));
        let ponger_id = sim.add_component(Box::new(Ponger { peer: pinger_id }));
        sim.with_component::<Pinger, _, _>(pinger_id, |p| p.peer = ponger_id);
        sim.post(ponger_id, Time::ZERO, Msg::Ping);
        (sim, pinger_id)
    }

    #[test]
    fn ping_pong_round_trips() {
        let (mut sim, pinger) = build(5);
        sim.run();
        sim.with_component::<Pinger, _, _>(pinger, |p| assert_eq!(p.pongs, 5));
        // 5 pongs: ping->pong pairs plus the initial ping.
        assert_eq!(sim.events_processed(), 10);
    }

    #[test]
    fn run_until_respects_deadline_and_advances_clock() {
        let (mut sim, _) = build(1_000_000);
        sim.run_until(Time::from_ns(10));
        assert_eq!(sim.now(), Time::from_ns(10));
        // Events at 1ns intervals: at most ~10 delivered.
        assert!(sim.events_processed() <= 11);

        // Idle advance: no events pending beyond the deadline.
        let mut idle: Simulation<Msg> = Simulation::new();
        idle.run_until(Time::from_us(3));
        assert_eq!(idle.now(), Time::from_us(3));
    }

    #[test]
    fn run_for_is_relative() {
        let (mut sim, _) = build(1_000_000);
        sim.run_for(Time::from_ns(4));
        sim.run_for(Time::from_ns(4));
        assert_eq!(sim.now(), Time::from_ns(8));
    }

    struct Stopper;
    impl Component<Msg> for Stopper {
        fn name(&self) -> &str {
            "stopper"
        }
        fn handle(&mut self, _ev: Msg, ctx: &mut Ctx<'_, Msg>) {
            ctx.request_stop();
        }
        impl_as_any!();
    }

    #[test]
    fn request_stop_halts_run() {
        let mut sim = Simulation::new();
        let id = sim.add_component(Box::new(Stopper));
        sim.post(id, Time::from_ns(1), Msg::Ping);
        sim.post(id, Time::from_ns(2), Msg::Ping);
        sim.run();
        assert_eq!(sim.events_processed(), 1);
        // The stop flag resets; a subsequent run drains the queue.
        sim.run();
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn stop_at_exact_run_until_deadline_is_not_dropped() {
        let deadline = Time::from_ns(5);
        let mut sim = Simulation::new();
        let id = sim.add_component(Box::new(Stopper));
        // Two events at exactly the deadline: the first requests a stop,
        // so the second must stay queued for the next run.
        sim.post(id, deadline, Msg::Ping);
        sim.post(id, deadline, Msg::Ping);
        sim.run_until(deadline);
        assert_eq!(sim.events_processed(), 1, "stop at the deadline dropped");
        assert_eq!(sim.now(), deadline);
        // The flag must not leak into the next run either.
        sim.run_until(deadline);
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    #[should_panic(expected = "not the requested type")]
    fn with_component_wrong_type_panics() {
        let (mut sim, pinger) = build(1);
        sim.with_component::<Ponger, _, _>(pinger, |_| ());
    }

    #[test]
    fn event_hook_observes_every_delivery() {
        let (mut sim, _) = build(3);
        let seen: Arc<Mutex<Vec<(Time, Msg)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        sim.set_event_hook(Some(Box::new(move |t, _dst, ev: &Msg| {
            sink.lock().push((t, *ev));
        })));
        sim.run();
        assert_eq!(seen.lock().len() as u64, sim.events_processed());
        assert_eq!(seen.lock()[0], (Time::ZERO, Msg::Ping));
        // Removing the hook stops observation without disturbing the run.
        sim.set_event_hook(None);
        sim.post(ComponentId::from_raw(0), Time::from_ns(1), Msg::Pong);
        sim.run();
        assert_eq!(seen.lock().len() as u64, sim.events_processed() - 1);
    }

    /// The partitioned kernel must reproduce the sequential kernel's state
    /// trajectory exactly: same component end-state, same event count,
    /// same clock — at whatever worker count the test environment allows
    /// (the driver picks inline vs threaded from the pool size).
    #[test]
    fn partitioned_matches_sequential_ping_pong() {
        let (mut seq, pinger) = build(64);
        seq.run_until(Time::from_ns(200));
        let seq_events = seq.events_processed();
        let seq_pongs = seq.with_component::<Pinger, _, _>(pinger, |p| p.pongs);

        let (sim, pinger) = build(64);
        // Pinger in domain 0, ponger in domain 1; every link is 1 ns.
        let mut part = PartitionedSimulation::new(sim, vec![0, 1], None, Time::from_ns(1));
        part.run_until(Time::from_ns(200));
        assert_eq!(part.now(), Time::from_ns(200));
        assert_eq!(part.events_processed(), seq_events);
        assert_eq!(
            part.with_component::<Pinger, _, _>(pinger, |p| p.pongs),
            seq_pongs
        );
        assert_eq!(part.component_count(), 2);
        assert_eq!(part.domain_count(), 2);
    }

    /// Same equivalence through the threaded driver, pinned to two
    /// workers so it runs even on single-core machines (where the
    /// heuristics would otherwise fall back to the inline driver).
    #[test]
    fn threaded_driver_matches_sequential_ping_pong() {
        let (mut seq, pinger) = build(64);
        seq.run_until(Time::from_ns(200));
        let seq_events = seq.events_processed();
        let seq_pongs = seq.with_component::<Pinger, _, _>(pinger, |p| p.pongs);

        let (sim, pinger) = build(64);
        let mut part = PartitionedSimulation::new(sim, vec![0, 1], None, Time::from_ns(1));
        part.set_workers(Some(2));
        part.run_until(Time::from_ns(200));
        assert_eq!(part.now(), Time::from_ns(200));
        assert_eq!(part.events_processed(), seq_events);
        assert_eq!(
            part.with_component::<Pinger, _, _>(pinger, |p| p.pongs),
            seq_pongs
        );
    }

    /// Per-domain event hooks observe exactly the deliveries of their own
    /// domain, and the union covers every delivery once.
    #[test]
    fn partitioned_hooks_cover_every_delivery() {
        let (sim, _) = build(16);
        let mut part = PartitionedSimulation::new(sim, vec![0, 1], None, Time::from_ns(1));
        let counts: Arc<Mutex<[u64; 2]>> = Arc::new(Mutex::new([0; 2]));
        part.set_event_hooks(|d| {
            let counts = Arc::clone(&counts);
            Some(Box::new(move |_t, _dst, _ev: &Msg| {
                counts.lock()[d as usize] += 1;
            }))
        });
        part.run_until(Time::from_ns(100));
        let seen = *counts.lock();
        assert_eq!(seen[0] + seen[1], part.events_processed());
        assert!(seen[0] > 0 && seen[1] > 0);
    }

    /// A serial domain runs alone whenever it owns the earliest timestamp,
    /// and the result is still identical to the sequential kernel.
    #[test]
    fn partitioned_serial_domain_matches_sequential() {
        let (mut seq, pinger) = build(32);
        seq.run_until(Time::from_ns(150));
        let seq_events = seq.events_processed();
        let seq_pongs = seq.with_component::<Pinger, _, _>(pinger, |p| p.pongs);

        let (sim, pinger) = build(32);
        let mut part = PartitionedSimulation::new(sim, vec![0, 1], Some(0), Time::from_ns(1));
        part.run_until(Time::from_ns(150));
        assert_eq!(part.events_processed(), seq_events);
        assert_eq!(
            part.with_component::<Pinger, _, _>(pinger, |p| p.pongs),
            seq_pongs
        );
    }

    /// A stop requested mid-epoch halts the whole machine at the epoch
    /// horizon: later events stay queued and run on the next call.
    #[test]
    fn partitioned_stop_halts_at_epoch_horizon() {
        let mut sim = Simulation::new();
        let stopper = sim.add_component(Box::new(Stopper));
        let ponger = sim.add_component(Box::new(Ponger { peer: stopper }));
        let _ = ponger;
        sim.post(stopper, Time::from_ns(1), Msg::Ping);
        sim.post(stopper, Time::from_ns(50), Msg::Ping);
        let mut part = PartitionedSimulation::new(sim, vec![0, 1], None, Time::from_ns(1));
        part.run_until(Time::from_ns(100));
        assert_eq!(part.events_processed(), 1, "stop must halt the run");
        assert!(part.now() < Time::from_ns(100));
        part.run_until(Time::from_ns(100));
        assert_eq!(part.events_processed(), 2, "stop must not leak into the next run");
        // The second event stopped the run again, at its own horizon.
        assert_eq!(part.now(), Time::from_ns(50));
        part.run_until(Time::from_ns(100));
        assert_eq!(part.now(), Time::from_ns(100));
    }

    /// Posts after a run land in the owning domain's queue and honour the
    /// committed clock.
    #[test]
    fn partitioned_post_routes_to_owning_domain() {
        let (sim, pinger) = build(4);
        let mut part = PartitionedSimulation::new(sim, vec![0, 1], None, Time::from_ns(1));
        part.run_until(Time::from_ns(30));
        let before = part.events_processed();
        part.post(pinger, Time::from_ns(2), Msg::Pong);
        part.run_until(Time::from_ns(40));
        assert_eq!(part.events_processed(), before + 1);
    }

    /// Ping-pong whose 1 ns links cross domains planned with a 10 ns
    /// lookahead: the first pong lands inside the epoch that sent it.
    fn undercut_lookahead(workers: usize) -> PartitionedSimulation<Msg> {
        let (sim, _) = build(64);
        let mut part = PartitionedSimulation::new(sim, vec![0, 1], None, Time::from_ns(10));
        part.set_workers(Some(workers));
        part
    }

    #[test]
    #[should_panic(expected = "lookahead exceeds")]
    fn inline_driver_rejects_an_arrival_inside_the_lookahead() {
        undercut_lookahead(1).run_until(Time::from_ns(100));
    }

    /// The violation is caught on the coordinator while the workers are
    /// parked at the barrier; it must release them and re-raise, not hang.
    #[test]
    #[should_panic(expected = "lookahead exceeds")]
    fn threaded_driver_rejects_an_arrival_inside_the_lookahead() {
        undercut_lookahead(2).run_until(Time::from_ns(100));
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn partitioned_zero_lookahead_panics() {
        let (sim, _) = build(1);
        let _ = PartitionedSimulation::new(sim, vec![0, 1], None, Time::ZERO);
    }

    #[test]
    fn epoch_planner_orders_serial_before_windows() {
        let la = Time::from_ns(2);
        let end = Time::from_ns(100);
        // Idle: nothing pending.
        assert_eq!(plan_epoch(Time::ZERO, None, None, la, end), EpochPlan::Done);
        // Pending beyond the horizon: done.
        assert_eq!(
            plan_epoch(Time::ZERO, Some(end), None, la, end),
            EpochPlan::Done
        );
        // Serial owns the earliest timestamp: barrier.
        assert_eq!(
            plan_epoch(
                Time::ZERO,
                Some(Time::from_ns(5)),
                Some(Time::from_ns(5)),
                la,
                end
            ),
            EpochPlan::Serial(Time::from_ns(5))
        );
        // Plain window: one lookahead past the earliest pending event.
        assert_eq!(
            plan_epoch(Time::ZERO, Some(Time::from_ns(5)), None, la, end),
            EpochPlan::Window(Time::from_ns(7))
        );
        // A pending serial event clips the window.
        assert_eq!(
            plan_epoch(
                Time::ZERO,
                Some(Time::from_ns(5)),
                Some(Time::from_ns(6)),
                la,
                end
            ),
            EpochPlan::Window(Time::from_ns(6))
        );
        // The run deadline clips the window.
        assert_eq!(
            plan_epoch(Time::from_ns(99), Some(Time::from_ns(99)), None, la, end),
            EpochPlan::Window(end)
        );
    }
}
