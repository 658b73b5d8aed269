//! Simulations partitioned across worker threads.
//!
//! The workspace parallelises by whole simulation: `par_map` hands each
//! machine to a worker thread, steps several in turn on one worker, and a
//! machine may resume on a different thread between run calls. None of
//! that may change what a simulation delivers. The suite holds the kernel
//! to two things:
//!
//! * **A reference model (exact):** deliveries come in strict
//!   `(time, seq)` order, `seq` being global post order, and an event at
//!   exactly a `run_until` deadline is delivered by that call. A twenty-line
//!   heap model ([`oracle`]) computes the expected per-component logs.
//! * **Thread and boundary independence (exact):** splitting a run into
//!   many short calls, moving the simulation to a fresh thread for each,
//!   or running it on a `par_map` worker yields byte-identical logs,
//!   event counts and trace lines.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pard_sim::check::cases;
use pard_sim::par::par_map_with;
use pard_sim::rng::Rng;
use pard_sim::trace::{self, TraceCat, TraceConfig, TraceVal};
use pard_sim::{Component, ComponentId, Ctx, Simulation, Time};

/// Epoch length used throughout: every send travels one to three
/// multiples of this, so arrivals land exactly on the boundaries the
/// tests split their runs at.
const LA: u64 = 64;

/// A node that logs every delivery and forwards a decremented payload to
/// a peer chosen by the payload itself. Behavior is a pure function of
/// the received event, so the reference model can replay it.
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
        if let Some((dst, delay, payload)) = next_hop(ctx.self_id().raw(), ev, self.fanout) {
            ctx.send(ComponentId::from_raw(dst), Time::from_units(delay), payload);
        }
    }
    pard_sim::impl_as_any!();
}

/// The send a node at `at` makes on receiving `ev`: destination, delay
/// in units (a whole number of [`LA`]) and payload. Payload zero ends the
/// chain.
fn next_hop(at: u32, ev: u64, fanout: u32) -> Option<(u32, u64, u64)> {
    if ev == 0 {
        return None;
    }
    let dst = (at as u64 + ev) % fanout as u64;
    Some((dst as u32, LA * (1 + ev % 3), ev - 1))
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
        if let Some((dst, delay, payload)) = next_hop(ctx.self_id().raw(), ev, self.fanout) {
            ctx.send(ComponentId::from_raw(dst), Time::from_units(delay), payload);
        }
    }
    pard_sim::impl_as_any!();
}

/// Per-component delivery logs and the event count.
type Logs = (Vec<Vec<(u64, u64)>>, u64);

/// Builds `n` nodes and posts the seed schedule `(dst, at, payload)`.
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

fn logs(mut sim: Simulation<u64>, n: u32) -> Logs {
    let logs = (0..n)
        .map(|c| sim.with_component::<Node, _, _>(ComponentId::from_raw(c), |x| x.log.clone()))
        .collect();
    (logs, sim.events_processed())
}

/// The reference model: a heap ordered by `(time, seq)`, `seq` counting
/// every post and send in issue order, delivering everything due at or
/// before `until`.
fn oracle(n: u32, seeds: &[(u32, u64, u64)], until: u64) -> Logs {
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    for &(dst, at, payload) in seeds {
        heap.push(Reverse((at, seq, dst, payload)));
        seq += 1;
    }
    let mut logs = vec![Vec::new(); n as usize];
    let mut events = 0;
    while let Some(Reverse((t, _, dst, ev))) = heap.pop() {
        if t > until {
            break;
        }
        logs[dst as usize].push((t, ev));
        events += 1;
        if let Some((to, delay, payload)) = next_hop(dst, ev, n) {
            heap.push(Reverse((t + delay, seq, to, payload)));
            seq += 1;
        }
    }
    (logs, events)
}

/// Runs `sim` to `until` in one call on this thread.
fn run_long(n: u32, seeds: &[(u32, u64, u64)], until: u64) -> Logs {
    let mut sim = build(n, seeds);
    sim.run_until(Time::from_units(until));
    logs(sim, n)
}

/// Hands `sim` to a fresh thread, runs `f` on it there, and takes it back:
/// what `par_map` does to a machine that resumes on another worker.
fn on_fresh_thread<T: Send>(mut sim: T, f: impl FnOnce(&mut T) + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(move || {
            f(&mut sim);
            sim
        })
        .join()
        .expect("the moved simulation runs clean")
    })
}

/// Every component shares the same seed timestamps — all exact multiples
/// of the epoch length — and every forward lands on a boundary too, so
/// each boundary carries a pile of equal-time ties from different senders.
/// Running in one-epoch `run_until` calls must deliver exactly what one
/// long run delivers, in the reference model's tie order.
#[test]
fn equal_time_ties_at_epoch_boundaries() {
    let n = 4u32;
    let mut seeds = Vec::new();
    for c in 0..n {
        for k in 1..6u64 {
            seeds.push((c, k * LA, 3 + (c as u64 + k) % 4));
        }
    }
    let until = 10_000 * LA;

    let (long_logs, long_events) = run_long(n, &seeds, until);
    let mut sim = build(n, &seeds);
    for k in 1..=until / LA {
        sim.run_until(Time::from_units(k * LA));
        assert_eq!(sim.now(), Time::from_units(k * LA));
    }
    let (epoch_logs, epoch_events) = logs(sim, n);
    let (oracle_logs, oracle_events) = oracle(n, &seeds, until);

    assert_eq!(
        epoch_logs, long_logs,
        "epoch boundaries must not reorder ties"
    );
    assert_eq!(epoch_events, long_events);
    assert_eq!(long_logs, oracle_logs, "ties resolve in post order");
    assert_eq!(long_events, oracle_events);
    let mut times: Vec<u64> = long_logs.iter().flatten().map(|&(t, _)| t).collect();
    times.sort_unstable();
    assert!(
        times.windows(2).any(|w| w[0] == w[1]),
        "the schedule must carry equal-time ties"
    );
    for (c, log) in long_logs.iter().enumerate() {
        assert!(!log.is_empty(), "test must exercise component {c}");
    }
}

/// A forty-hop chain between two nodes whose every arrival is a
/// `run_until` deadline: each call runs, on a fresh thread, exactly to the
/// next arrival time and must deliver that arrival itself rather than
/// leave it to the next call.
#[test]
fn remote_arrivals_exactly_at_lookahead_horizon() {
    let n = 2u32;
    let seeds = [(0u32, LA, 39u64)];
    let until = 1_000_000u64;

    let (long_logs, long_events) = run_long(n, &seeds, until);
    let mut arrivals: Vec<u64> = long_logs.iter().flatten().map(|&(t, _)| t).collect();
    arrivals.sort_unstable();
    let mut sim = build(n, &seeds);
    for (k, &at) in arrivals.iter().enumerate() {
        sim = on_fresh_thread(sim, |s| s.run_until(Time::from_units(at)));
        assert_eq!(sim.now(), Time::from_units(at));
        assert_eq!(
            sim.events_processed(),
            k as u64 + 1,
            "the arrival at the deadline {at} belongs to this call"
        );
    }
    sim = on_fresh_thread(sim, |s| s.run_until(Time::from_units(until)));
    let (moved_logs, moved_events) = logs(sim, n);

    assert_eq!(
        moved_logs, long_logs,
        "moving threads must not change delivery"
    );
    assert_eq!(moved_events, long_events);
    assert_eq!((long_logs.clone(), long_events), oracle(n, &seeds, until));
    assert_eq!(long_events, 40, "one delivery per payload 39..=0");
    assert!(
        long_logs.iter().all(|log| !log.is_empty()),
        "both nodes receive"
    );
    assert!(
        arrivals.windows(2).all(|w| w[0] < w[1]),
        "one arrival per deadline"
    );
    assert!(
        arrivals.iter().all(|t| t % LA == 0),
        "every arrival sits on a boundary"
    );
}

/// Randomized closure: a seeded batch of simulations, each over a random
/// node count and schedule, is assigned to a random number of `par_map`
/// workers (so several share a worker, or each gets its own) and must
/// reproduce the reference model exactly, simulation by simulation.
#[test]
fn seeded_random_assignment_matches_sequential_oracle() {
    cases("partitioned.random_assignment", 48, |rng| {
        let batch: Vec<(u32, Vec<(u32, u64, u64)>)> = (0..rng.gen_range(1usize..6))
            .map(|_| {
                let n = rng.gen_range(2u32..9);
                let seeds = (0..rng.gen_range(1usize..12))
                    .map(|_| {
                        (
                            rng.gen_range(0..n),
                            rng.gen_range(1u64..40) * LA,
                            rng.gen_range(0u64..12),
                        )
                    })
                    .collect();
                (n, seeds)
            })
            .collect();
        let until = 100_000 * LA;
        let workers = rng.gen_range(1usize..4);

        let expected: Vec<Logs> = batch
            .iter()
            .map(|(n, seeds)| oracle(*n, seeds, until))
            .collect();
        let got = par_map_with(workers, batch.clone(), |(n, seeds)| {
            run_long(n, &seeds, until)
        });
        assert_eq!(got, expected, "workers={workers}");
    });
}

/// Many short `run_for` calls, each shorter than one epoch and each on a
/// fresh thread, so nearly every call returns with sends in flight that
/// are due only in a later call, on another thread. The chunked run must
/// deliver exactly what one long run delivers.
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

    let (long_logs, long_events) = run_long(n, &seeds, until.units());
    let mut inline = build(n, &seeds);
    let mut moved = build(n, &seeds);
    while inline.now() < until {
        inline.run_for(chunk);
        moved = on_fresh_thread(moved, |s| s.run_for(chunk));
        assert_eq!(moved.now(), inline.now());
    }
    let (inline_logs, inline_events) = logs(inline, n);
    let (moved_logs, moved_events) = logs(moved, n);

    assert!(long_events > 100, "the schedule must cross many chunks");
    assert_eq!(
        inline_events, moved_events,
        "the moved simulation lost events"
    );
    assert_eq!(
        inline_logs, moved_logs,
        "moving threads must not change delivery"
    );
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

/// Runs tracing nodes in one-epoch calls into a fresh ring tracer, either
/// all on this thread or each call on a fresh thread. Returns the ring's
/// lines, the tracer's emitted count and the events delivered.
fn traced_run(threaded: bool) -> (Vec<String>, u64, u64) {
    let n = 6u32;
    trace::disable();
    trace::install(TraceConfig {
        filter: vec![(TraceCat::Kernel, None)],
        sample: vec![(TraceCat::Kernel, 1)],
        ring_capacity: 1 << 16,
        ..TraceConfig::default()
    })
    .unwrap();
    let mut sim: Simulation<u64> = Simulation::new();
    for _ in 0..n {
        sim.add_component(Box::new(TracingNode { fanout: n }));
    }
    for c in 0..n {
        let at = Time::from_units(LA * (1 + c as u64 % 2));
        sim.post(ComponentId::from_raw(c), at, 30 + c as u64);
    }
    for k in 1..=200u64 {
        let deadline = Time::from_units(k * LA);
        if threaded {
            sim = on_fresh_thread(sim, |s| s.run_until(deadline));
        } else {
            sim.run_until(deadline);
        }
    }
    let out = (
        trace::recent_lines(),
        trace::lines_emitted(),
        sim.events_processed(),
    );
    trace::disable();
    out
}

/// The tracer is process-wide, so a simulation that hops threads between
/// calls traces every delivery exactly as one that stays put: one line per
/// delivery, in delivery order. This is the only test in the file that
/// installs the tracer.
#[test]
fn inline_and_threaded_drivers_leave_identical_trace_lines() {
    let (inline_lines, inline_emitted, inline_events) = traced_run(false);
    let (threaded_lines, threaded_emitted, threaded_events) = traced_run(true);
    assert!(inline_events > 100, "the schedule must cross many epochs");
    assert_eq!(inline_events, threaded_events);
    assert_eq!(
        inline_lines.len() as u64,
        inline_events,
        "one line per delivery"
    );
    assert_eq!(inline_emitted, inline_events);
    assert_eq!(threaded_emitted, threaded_events);
    assert_eq!(
        inline_lines, threaded_lines,
        "threads must trace identically"
    );
}
