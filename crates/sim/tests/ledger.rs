//! Each simulation carries its own conservation ledger.
//!
//! Packet ids restart at zero in every simulation, and `par_map` steps
//! several machines in turn on one worker thread and may resume a machine
//! on another. Two simulations that inject the very same
//! `(domain, src, id)` keys must therefore stay clean under the strict
//! auditor when run interleaved on one thread, and a simulation that moves
//! threads with packets in flight must retire them there. A real duplicate
//! inside one simulation must still be flagged.
//!
//! The auditor is process-global, so one test function owns the whole
//! sequence.

use pard_sim::audit::{self, AuditConfig, Ledger};
use pard_sim::{Component, ComponentId, Ctx, Simulation, Time};

/// Conservation domain the test traffic is filed under.
const DOMAIN: &str = "xbar";
/// DS-id every test packet carries.
const DS: u16 = 3;

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Inject the next packet and ship it to the sink.
    Tick,
    /// A packet arriving at the sink, to retire.
    Packet(u64),
}

/// Injects one packet per tick (ids from zero, like every source model),
/// ships it to the sink `flight` later, and ticks again every `gap`.
/// With `repeat_id` set it reuses one id: a real duplicate injection.
struct Source {
    sink: ComponentId,
    next_id: u64,
    left: u64,
    gap: Time,
    flight: Time,
    repeat_id: bool,
}

impl Component<Ev> for Source {
    fn name(&self) -> &str {
        "source"
    }
    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        if let Ev::Tick = ev {
            let id = self.next_id;
            if !self.repeat_id {
                self.next_id += 1;
            }
            audit::packet_inject(DOMAIN, ctx.self_id().raw(), id, DS, ctx.now());
            ctx.send(self.sink, self.flight, Ev::Packet(id));
            self.left -= 1;
            if self.left > 0 {
                ctx.send(ctx.self_id(), self.gap, Ev::Tick);
            }
        }
    }
    pard_sim::impl_as_any!();
}

/// Retires every packet it receives.
struct Sink {
    source: ComponentId,
    retired: u64,
}

impl Component<Ev> for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        if let Ev::Packet(id) = ev {
            audit::packet_retire(DOMAIN, self.source.raw(), id, DS, ctx.now(), "sink");
            self.retired += 1;
        }
    }
    pard_sim::impl_as_any!();
}

/// A source/sink pair: `packets` packets, one every 1 ns, each 5 ns in
/// flight — so a run stopped mid-way leaves about five in flight. Every
/// machine built here registers the same two components in the same
/// order, so all of them use identical packet keys.
fn machine(packets: u64, repeat_id: bool) -> (Simulation<Ev>, ComponentId) {
    let mut sim = Simulation::new();
    let source = sim.add_component(Box::new(Source {
        sink: ComponentId::UNWIRED,
        next_id: 0,
        left: packets,
        gap: Time::from_ns(1),
        flight: Time::from_ns(5),
        repeat_id,
    }));
    let sink = sim.add_component(Box::new(Sink { source, retired: 0 }));
    sim.with_component::<Source, _, _>(source, |s| s.sink = sink);
    sim.post(source, Time::ZERO, Ev::Tick);
    (sim, sink)
}

fn retired(sim: &mut Simulation<Ev>, sink: ComponentId) -> u64 {
    sim.with_component::<Sink, _, _>(sink, |s| s.retired)
}

#[test]
fn ledgers_move_with_their_simulations() {
    audit::install(AuditConfig::strict()).unwrap();
    // Start from an empty thread ledger whatever ran here before.
    let mut previous = Ledger::default();
    audit::swap_ledger(&mut previous);

    // Two machines with identical keys, interleaved on this thread. A
    // shared thread ledger would see machine B's first injection as a
    // duplicate of machine A's in-flight packet 0 and panic.
    let (mut a, a_sink) = machine(40, false);
    let (mut b, b_sink) = machine(40, false);
    for step in 1..=4u64 {
        let until = Time::from_ns(7 * step);
        a.run_until(until);
        b.run_until(until);
        assert!(
            a.ledger().in_flight() > 0,
            "machine A stops with packets in flight"
        );
        assert_eq!(a.ledger().in_flight(), b.ledger().in_flight());
        assert_eq!(audit::in_flight(), 0, "a machine's packets leave with it");
    }

    // Machine B moves to another thread with packets in flight and
    // retires them there; machine A drains here meanwhile.
    let moved = std::thread::spawn(move || {
        b.run();
        b
    });
    a.run();
    let mut b = moved.join().expect("the moved machine runs clean");
    for (sim, sink) in [(&mut a, a_sink), (&mut b, b_sink)] {
        assert_eq!(retired(sim, sink), 40);
        assert_eq!(sim.ledger().in_flight(), 0, "every packet retired");
    }
    assert_eq!(audit::violations_total(), 0, "strict audit stayed clean");

    // A real duplicate inside one simulation is still flagged, and the
    // panicking run hands the thread its own ledger back.
    let (mut dup, _) = machine(3, true);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dup.run()));
    let payload = caught.expect_err("strict audit must abort on a duplicate injection");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(message.contains("duplicate_inject"), "{message}");
    assert_eq!(audit::violations_total(), 1);
    assert_eq!(
        dup.ledger().in_flight(),
        1,
        "the ledger returned to its simulation"
    );
    assert_eq!(
        audit::in_flight(),
        0,
        "the thread's own ledger is back in place"
    );

    // The shutdown summary reports the machine's own in-flight count.
    let path = std::env::temp_dir().join(format!("pard-ledger-{}.jsonl", std::process::id()));
    audit::install(AuditConfig {
        path: Some(path.clone()),
        ..AuditConfig::report()
    })
    .unwrap();
    let (mut half, _) = machine(10, false);
    half.run_until(Time::from_ns(6));
    audit::emit_summary(half.now(), half.ledger());
    audit::flush();
    let report = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let in_flight = half.ledger().in_flight();
    assert!(in_flight > 0);
    assert!(
        report.contains(&format!("\"in_flight\":{in_flight}")),
        "summary must carry the machine's in-flight count: {report}"
    );

    audit::swap_ledger(&mut previous);
    audit::disable();
}
