//! Cross-domain ordering properties of [`PartitionedSimulation`].
//!
//! The partitioned kernel's contract has two layers, and the suite tests
//! them separately:
//!
//! * **Worker-count determinism (exact):** the delivered order is a pure
//!   function of the schedule — the inline epoch driver and the threaded
//!   driver produce byte-identical per-component delivery logs.
//! * **Sequential equivalence (tie-robust):** against the sequential
//!   kernel the partitioned run delivers the same events at the same
//!   times to the same components. Equal-time ties *across different
//!   sender domains* may resolve in a different (still deterministic)
//!   order: composite seqs sort by `(domain, counter)` where the
//!   sequential kernel sorts by global post order. The oracle
//!   comparisons therefore canonicalize within each timestamp.

use std::sync::Mutex;

use pard_sim::check::cases;
use pard_sim::rng::Rng;
use pard_sim::trace::{self, TraceCat, TraceConfig, TraceVal};
use pard_sim::{Component, ComponentId, Ctx, PartitionedSimulation, Simulation, Time};

/// Lookahead used throughout: every cross-domain send in these tests
/// travels exactly one or more multiples of this, so remote arrivals land
/// *exactly on* epoch horizons — the boundary the conservative protocol
/// must treat as "next epoch, not this one".
const LA: u64 = 64;

/// A node that logs every delivery and forwards a decremented payload to
/// a peer chosen by the payload itself. Behavior is a pure function of
/// the received event, so sequential and partitioned runs generate the
/// identical schedule.
struct Node {
    fanout: u32,
    log: Vec<(u64, u64)>, // (delivery time in units, payload)
}

impl Component<u64> for Node {
    fn name(&self) -> &str {
        "node"
    }
    fn handle(&mut self, ev: u64, ctx: &mut Ctx<'_, u64>) {
        self.log.push((ctx.now().units(), ev));
        forward(ev, self.fanout, ctx);
    }
    pard_sim::impl_as_any!();
}

/// Forwards a decremented payload to a peer chosen by the payload. Hop
/// distance and delay derive from the payload; the delay is always a whole
/// number of lookaheads, so the send is legal for any
/// component-to-domain assignment.
fn forward(ev: u64, fanout: u32, ctx: &mut Ctx<'_, u64>) {
    if ev == 0 {
        return;
    }
    let dst = (ctx.self_id().raw() as u64 + ev) % fanout as u64;
    let hops = 1 + ev % 3;
    ctx.send(
        ComponentId::from_raw(dst as u32),
        Time::from_units(LA * hops),
        ev - 1,
    );
}

/// A [`Node`] that records each delivery as a kernel trace line instead
/// of in a log of its own.
struct TracingNode {
    fanout: u32,
}

impl Component<u64> for TracingNode {
    fn name(&self) -> &str {
        "tracing-node"
    }
    fn handle(&mut self, ev: u64, ctx: &mut Ctx<'_, u64>) {
        if trace::enabled(TraceCat::Kernel) {
            trace::emit(
                TraceCat::Kernel,
                ctx.now(),
                ctx.self_id().raw() as u16,
                "deliver",
                &[("payload", TraceVal::U(ev))],
            );
        }
        forward(ev, self.fanout, ctx);
    }
    pard_sim::impl_as_any!();
}

/// Builds `n` nodes and posts the seed schedule into a fresh kernel.
fn build(n: u32, seeds: &[(u32, u64, u64)]) -> Simulation<u64> {
    let mut sim: Simulation<u64> = Simulation::new();
    for _ in 0..n {
        sim.add_component(Box::new(Node {
            fanout: n,
            log: Vec::new(),
        }));
    }
    for &(dst, at, payload) in seeds {
        sim.post(ComponentId::from_raw(dst), Time::from_units(at), payload);
    }
    sim
}

/// Per-component delivery logs after running `sim` sequentially.
fn run_sequential(n: u32, seeds: &[(u32, u64, u64)], until: Time) -> (Vec<Vec<(u64, u64)>>, u64) {
    let mut sim = build(n, seeds);
    sim.run_until(until);
    let logs = (0..n)
        .map(|c| sim.with_component::<Node, _, _>(ComponentId::from_raw(c), |x| x.log.clone()))
        .collect();
    (logs, sim.events_processed())
}

/// Per-component delivery logs after running the same schedule
/// partitioned by `domain_of`, with the worker count pinned.
fn run_partitioned(
    n: u32,
    seeds: &[(u32, u64, u64)],
    domain_of: Vec<u32>,
    workers: usize,
    until: Time,
) -> (Vec<Vec<(u64, u64)>>, u64) {
    let sim = build(n, seeds);
    let mut part = PartitionedSimulation::new(sim, domain_of, None, Time::from_units(LA));
    part.set_workers(Some(workers));
    part.run_until(until);
    let logs = (0..n)
        .map(|c| part.with_component::<Node, _, _>(ComponentId::from_raw(c), |x| x.log.clone()))
        .collect();
    (logs, part.events_processed())
}

/// As [`run_partitioned`], but advancing in `chunk`-sized `run_for`
/// calls until `until`, the way a harness samples a machine.
fn run_partitioned_chunked(
    n: u32,
    seeds: &[(u32, u64, u64)],
    domain_of: Vec<u32>,
    workers: usize,
    chunk: Time,
    until: Time,
) -> (Vec<Vec<(u64, u64)>>, u64) {
    let sim = build(n, seeds);
    let mut part = PartitionedSimulation::new(sim, domain_of, None, Time::from_units(LA));
    part.set_workers(Some(workers));
    while part.now() < until {
        part.run_for(chunk);
    }
    let logs = (0..n)
        .map(|c| part.with_component::<Node, _, _>(ComponentId::from_raw(c), |x| x.log.clone()))
        .collect();
    (logs, part.events_processed())
}

/// Canonicalizes a delivery log for comparison against a kernel with a
/// different tie-ordering rule: entries at the same timestamp are sorted
/// by payload. Ordering *across* timestamps is untouched.
fn tie_sorted(log: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = log.to_vec();
    out.sort_by_key(|&(t, p)| (t, p));
    // A stable per-timestamp sort must not have reordered distinct times.
    for w in out.windows(2) {
        assert!(w[0].0 <= w[1].0);
    }
    out
}

/// Every component shares the same seed timestamps — all exact multiples
/// of the lookahead — and every forward lands on an epoch horizon too, so
/// each epoch boundary carries a pile of equal-time ties from different
/// domains. The threaded and inline drivers must agree exactly; the
/// sequential oracle must agree up to tie order.
#[test]
fn equal_time_ties_at_epoch_boundaries() {
    let n = 4u32;
    let mut seeds = Vec::new();
    for c in 0..n {
        for k in 1..6u64 {
            seeds.push((c, k * LA, 3 + (c as u64 + k) % 4));
        }
    }
    let until = Time::from_units(10_000 * LA);
    let per_domain: Vec<u32> = (0..n).collect();

    let (seq_logs, seq_events) = run_sequential(n, &seeds, until);
    let (inline_logs, inline_events) = run_partitioned(n, &seeds, per_domain.clone(), 1, until);
    let (threaded_logs, threaded_events) = run_partitioned(n, &seeds, per_domain, 2, until);

    assert_eq!(inline_logs, threaded_logs, "inline vs threaded must be exact");
    assert_eq!(inline_events, threaded_events);
    assert_eq!(seq_events, inline_events);
    for c in 0..n as usize {
        assert!(!seq_logs[c].is_empty(), "test must exercise component {c}");
        assert_eq!(tie_sorted(&seq_logs[c]), tie_sorted(&inline_logs[c]));
    }
}

/// Two nodes in two domains ping-pong with a delay of exactly one
/// lookahead: every remote arrival lands precisely on the next epoch's
/// horizon, the tightest arrival the conservative protocol admits. The
/// alternating schedule has no ties, so all three runs must be exact.
#[test]
fn remote_arrivals_exactly_at_lookahead_horizon() {
    let n = 2u32;
    // Payload 40 with hops = 1 + ev % 3: pin payloads to ev % 3 == 0 so
    // every hop is exactly one lookahead.
    let seeds = [(0u32, LA, 39u64)];
    let until = Time::from_units(1_000_000);

    let (seq_logs, seq_events) = run_sequential(n, &seeds, until);
    let (inline_logs, inline_events) = run_partitioned(n, &seeds, vec![0, 1], 1, until);
    let (threaded_logs, threaded_events) = run_partitioned(n, &seeds, vec![0, 1], 2, until);

    assert_eq!(seq_logs, inline_logs, "tie-free schedule must match exactly");
    assert_eq!(inline_logs, threaded_logs);
    assert_eq!(seq_events, inline_events);
    assert_eq!(inline_events, threaded_events);
    // 40 deliveries happened, alternating between the two nodes.
    assert_eq!(seq_events, 40);
    let times: Vec<u64> = inline_logs[0]
        .iter()
        .chain(&inline_logs[1])
        .map(|&(t, _)| t)
        .collect();
    assert!(times.iter().all(|t| t % LA == 0), "every arrival sits on a horizon");
}

/// Randomized closure: a seeded schedule over a random node count is run
/// under a *random* component-to-domain assignment (including lopsided
/// maps and domains holding zero or all components) and must reproduce
/// the sequential kernel's deliveries — exactly when inline and threaded
/// are compared, tie-canonically against the oracle.
#[test]
fn seeded_random_assignment_matches_sequential_oracle() {
    cases("partitioned.random_assignment", 48, |rng| {
        let n = rng.gen_range(2u32..9);
        let domains = rng.gen_range(1u32..5);
        let domain_of: Vec<u32> = (0..n).map(|_| rng.gen_range(0..domains)).collect();
        let seeds: Vec<(u32, u64, u64)> = (0..rng.gen_range(1usize..12))
            .map(|_| {
                (
                    rng.gen_range(0..n),
                    rng.gen_range(1u64..40) * LA,
                    rng.gen_range(0u64..12),
                )
            })
            .collect();
        let until = Time::from_units(100_000 * LA);
        let workers = rng.gen_range(1usize..4);

        let (seq_logs, seq_events) = run_sequential(n, &seeds, until);
        let (part_logs, part_events) =
            run_partitioned(n, &seeds, domain_of.clone(), 1, until);
        let (thr_logs, thr_events) = run_partitioned(n, &seeds, domain_of, workers, until);

        assert_eq!(part_logs, thr_logs, "worker count must not change delivery");
        assert_eq!(part_events, thr_events);
        assert_eq!(seq_events, part_events);
        for c in 0..n as usize {
            assert_eq!(tie_sorted(&seq_logs[c]), tie_sorted(&part_logs[c]));
        }
    });
}

/// Many short `run_for` calls, each shorter than one lookahead, so the
/// last epoch of nearly every call routes cross-domain sends that are due
/// only in a later call. The threaded driver must hand those to their
/// domains before returning (they once died with its mailboxes), and so
/// deliver exactly what the inline driver delivers — and what one long
/// run delivers.
#[test]
fn threaded_driver_keeps_cross_domain_sends_across_short_run_for_calls() {
    let n = 4u32;
    let mut seeds = Vec::new();
    for c in 0..n {
        for k in 1..4u64 {
            seeds.push((c, k * LA + c as u64, 20 + (c as u64 * 7 + k) % 9));
        }
    }
    let until = Time::from_units(200 * LA);
    let chunk = Time::from_units(LA / 2 + 3);
    let per_domain: Vec<u32> = (0..n).collect();

    let (long_logs, long_events) = run_partitioned(n, &seeds, per_domain.clone(), 1, until);
    let (inline_logs, inline_events) =
        run_partitioned_chunked(n, &seeds, per_domain.clone(), 1, chunk, until);
    let (threaded_logs, threaded_events) =
        run_partitioned_chunked(n, &seeds, per_domain, 2, chunk, until);

    assert!(long_events > 100, "the schedule must cross many chunks");
    assert_eq!(inline_events, threaded_events, "threaded driver lost events");
    assert_eq!(inline_logs, threaded_logs, "inline vs threaded must be exact");
    // The chunked run stops at or just past `until`; everything the long
    // run delivered up to `until` must be there, in the same order.
    for c in 0..n as usize {
        let upto: Vec<(u64, u64)> = inline_logs[c]
            .iter()
            .copied()
            .filter(|&(t, _)| t <= until.units())
            .collect();
        assert_eq!(upto, long_logs[c], "component {c}");
    }
}

/// Serializes the tests that install the process-global tracer.
static TRACER: Mutex<()> = Mutex::new(());

fn install_ring_tracer() {
    trace::install(TraceConfig {
        filter: vec![(TraceCat::Kernel, None)],
        sample: vec![(TraceCat::Kernel, 1)],
        ring_capacity: 1 << 16,
        ..TraceConfig::default()
    })
    .unwrap();
}

/// Runs tracing nodes partitioned into a serial domain and two worker
/// domains with the worker count pinned, installing the tracer before or
/// after partitioning. Returns the ring's lines, the tracer's emitted
/// count and the events delivered.
fn traced_run(workers: usize, tracer_before_partition: bool) -> (Vec<String>, u64, u64) {
    let n = 6u32;
    trace::disable();
    if tracer_before_partition {
        install_ring_tracer();
    }
    let mut sim: Simulation<u64> = Simulation::new();
    for _ in 0..n {
        sim.add_component(Box::new(TracingNode { fanout: n }));
    }
    for c in 0..n {
        let at = Time::from_units(LA * (1 + c as u64 % 2));
        sim.post(ComponentId::from_raw(c), at, 30 + c as u64);
    }
    let domain_of: Vec<u32> = (0..n).map(|c| c % 3).collect();
    let mut part = PartitionedSimulation::new(sim, domain_of, Some(0), Time::from_units(LA));
    if !tracer_before_partition {
        install_ring_tracer();
    }
    part.set_workers(Some(workers));
    part.run_until(Time::from_units(200 * LA));
    let out = (trace::recent_lines(), trace::lines_emitted(), part.events_processed());
    trace::disable();
    out
}

/// A tracer installed before partitioning snapshots into every domain
/// buffer; the inline and threaded drivers must then leave the identical
/// ring, one line per delivery, merged in `(time, domain)` order.
#[test]
fn inline_and_threaded_drivers_leave_identical_trace_lines() {
    let _serial = TRACER.lock().unwrap_or_else(|e| e.into_inner());
    let (inline_lines, inline_emitted, inline_events) = traced_run(1, true);
    let (threaded_lines, threaded_emitted, threaded_events) = traced_run(2, true);
    assert!(inline_events > 100, "the schedule must cross many epochs");
    assert_eq!(inline_events, threaded_events);
    assert_eq!(inline_lines.len() as u64, inline_events, "one line per delivery");
    assert_eq!(inline_emitted, inline_events);
    assert_eq!(threaded_emitted, threaded_events);
    assert_eq!(inline_lines, threaded_lines, "drivers must trace identically");
}

/// A tracer installed after partitioning finds every domain buffer inert:
/// neither driver records a domain line, even though the category is
/// enabled while the components emit.
#[test]
fn tracer_installed_after_partitioning_records_no_domain_lines() {
    let _serial = TRACER.lock().unwrap_or_else(|e| e.into_inner());
    for workers in [1, 2] {
        let (lines, emitted, events) = traced_run(workers, false);
        assert!(events > 100, "the schedule must cross many epochs");
        assert!(lines.is_empty(), "workers={workers}: {} lines recorded", lines.len());
        assert_eq!(emitted, 0, "workers={workers}");
    }
}
