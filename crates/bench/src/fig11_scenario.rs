//! The Figure 11 memory-queueing scenario, shared by the `fig11` binary
//! and the determinism tests.
//!
//! A synthetic injector drives the DDR3 controller at a fraction of peak
//! request bandwidth with a 50/50 mix of high- and low-priority requests.
//! Everything is seeded through [`pard_sim::rng::stream_rng`], so a fixed
//! `(seed, rate, requests)` triple reproduces the exact same numbers on
//! every run and host.

use crate::json::JsonValue;
use pard_dram::{MemCtrl, MemCtrlConfig};
use pard_icn::{DsId, LAddr, MemKind, MemPacket, PacketId, PardEvent, TickKind};
use pard_sim::par::par_map;
use pard_sim::rng::{stream_rng, Rng, Xoshiro256pp};
use pard_sim::{Component, ComponentId, Ctx, Simulation, Time};

/// DS-id carried by the low-priority request class.
pub const DS_LOW: u16 = 1;
/// DS-id carried by the high-priority request class.
pub const DS_HIGH: u16 = 7;

/// Poisson traffic source alternating high/low priority DS-ids.
///
/// Each class walks its own sequential stream of whole-row (16-line)
/// runs within its own rank, like the paper's streaming microbenchmark
/// instances. With row hits dominating, the shared data bus is the
/// bottleneck, and queueing delay is pure arbitration — the effect the
/// priority queues exist to manage.
struct Injector {
    ctrl: ComponentId,
    rate_per_sec: f64,
    rng: Xoshiro256pp,
    next_id: u64,
    sent: u64,
    limit: u64,
    cursor: [u64; 2],
    run_left: [u32; 2],
}

impl Component<PardEvent> for Injector {
    fn name(&self) -> &str {
        "injector"
    }
    fn handle(&mut self, ev: PardEvent, ctx: &mut Ctx<'_, PardEvent>) {
        match ev {
            PardEvent::Tick(TickKind::Core) => {
                if self.sent >= self.limit {
                    return;
                }
                self.sent += 1;
                let cls = (self.sent % 2) as usize;
                let ds = if cls == 0 { DS_HIGH } else { DS_LOW };
                if self.run_left[cls] == 0 {
                    // Rows interleave across the 16 banks (row_id % 16 is
                    // the bank). High priority picks rows in rank 0's
                    // banks 0-7; low priority roams everywhere.
                    let group: u64 = self.rng.gen_range(0..(256u64 << 20) / 1024 / 16);
                    let row_id = group * 16 + (cls as u64) * 8 + self.rng.gen_range(0u64..8);
                    self.cursor[cls] = row_id * 16;
                    self.run_left[cls] = 16;
                }
                let line = self.cursor[cls];
                self.cursor[cls] += 1;
                self.run_left[cls] -= 1;
                let pkt = MemPacket {
                    id: PacketId(self.next_id),
                    ds: DsId::new(ds),
                    addr: LAddr::new(line * 64),
                    kind: MemKind::Read,
                    size: 64,
                    reply_to: ctx.self_id(),
                    issued_at: ctx.now(),
                    dma: false,
                };
                self.next_id += 1;
                ctx.send(self.ctrl, Time::ZERO, PardEvent::MemReq(pkt));
                let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                let gap = Time::from_units(((-u.ln() / self.rate_per_sec) * 4e9).max(1.0) as u64);
                ctx.send(ctx.self_id(), gap, PardEvent::Tick(TickKind::Core));
            }
            PardEvent::MemResp(_) => {}
            other => panic!("unexpected event {other:?}"),
        }
    }
    pard_sim::impl_as_any!();
}

/// Queueing-delay statistics from one run of the scenario.
pub struct RunResult {
    /// Mean queueing delay of high-priority requests, in memory cycles.
    pub mean_high: f64,
    /// Mean queueing delay of low-priority requests, in memory cycles.
    pub mean_low: f64,
    /// Mean over all requests (equals `mean_low` without priorities).
    pub mean_all: f64,
    /// `(cycles, fraction)` CDF of the high-priority class.
    pub cdf_high: Vec<(f64, f64)>,
    /// `(cycles, fraction)` CDF of the low-priority class.
    pub cdf_low: Vec<(f64, f64)>,
}

/// Runs the baseline (no priorities) and PARD (priorities) configurations
/// as two independent simulations fanned over the [`par_map`] worker
/// pool. Both derive their RNG from the same named stream, so the pair is
/// bit-identical to two serial [`run`] calls at any `PARD_THREADS`.
pub fn run_pair(inject_rate: f64, requests: u64) -> (RunResult, RunResult) {
    let mut results = par_map(vec![false, true], |priorities| {
        run(inject_rate, priorities, requests)
    });
    let pard = results.pop().expect("pard run");
    let base = results.pop().expect("baseline run");
    (base, pard)
}

/// The `fig11.json` document for one baseline/PARD result pair — shared
/// by the `fig11` binary and the cross-thread-count determinism test.
pub fn summary_json(inject_rate: f64, base: &RunResult, pard: &RunResult) -> JsonValue {
    let speedup = base.mean_all / pard.mean_high.max(0.01);
    let low_penalty = (pard.mean_low / base.mean_all - 1.0) * 100.0;
    JsonValue::object()
        .field("inject_rate", inject_rate)
        .field("baseline_mean_cycles", base.mean_all)
        .field("high_mean_cycles", pard.mean_high)
        .field("low_mean_cycles", pard.mean_low)
        .field("speedup", speedup)
        .field("low_penalty_pct", low_penalty)
}

/// Runs the injector against the DDR3 controller and collects queueing
/// delays. `inject_rate` is the fraction of peak request bandwidth
/// (one 64 B burst per 5 ns = 200 M requests/s at 1.0).
pub fn run(inject_rate: f64, priorities: bool, requests: u64) -> RunResult {
    run_with(inject_rate, priorities, requests, |_| {})
}

/// As [`run`], with a setup hook called on the controller's plane before
/// injection starts (the policy equivalence suite installs the built-in
/// program explicitly through it).
pub fn run_with(
    inject_rate: f64,
    priorities: bool,
    requests: u64,
    setup: impl FnOnce(&mut pard_cp::ControlPlane),
) -> RunResult {
    let mut sim: Simulation<PardEvent> = Simulation::new();
    let (ctrl_model, cp) = MemCtrl::new(MemCtrlConfig {
        priorities_enabled: priorities,
        record_queueing: true,
        // The paper's FPGA baseline is the stock MIG controller: a small
        // reorder window, nearly in-order.
        baseline_window: 2,
        ..MemCtrlConfig::default()
    });
    let ctrl = sim.add_component(Box::new(ctrl_model));
    if priorities {
        let mut cp = cp.lock();
        cp.set_param(DsId::new(DS_HIGH), "priority", 1).unwrap();
        cp.set_param(DsId::new(DS_HIGH), "rowbuf", 1).unwrap();
    }
    setup(&mut cp.lock());
    let rate = inject_rate * 200e6;
    let injector = sim.add_component(Box::new(Injector {
        ctrl,
        rate_per_sec: rate,
        rng: stream_rng(7, "fig11.injector"),
        next_id: 0,
        sent: 0,
        limit: requests,
        cursor: [0; 2],
        run_left: [0; 2],
    }));
    sim.post(injector, Time::ZERO, PardEvent::Tick(TickKind::Core));
    // The controller's statistics window re-arms forever; run to a bounded
    // deadline comfortably past the injection span instead of draining.
    let span_secs = requests as f64 / rate;
    sim.run_until(Time::from_us((span_secs * 1e6 * 2.0) as u64 + 1_000));

    sim.with_component::<MemCtrl, _, _>(ctrl, |m| {
        let (mean_high, mean_low) = m.mean_queueing_cycles();
        let (hi, lo) = m.queueing_samples();
        let to_cdf = |s: &pard_sim::stats::LatencySample| -> Vec<(f64, f64)> {
            let mut s = s.clone();
            s.cdf()
                .into_iter()
                .map(|(t, f)| (t.as_ns() / 1.25, f))
                .collect()
        };
        let (nh, nl) = (hi.len() as f64, lo.len() as f64);
        let mean_all = if priorities {
            (mean_high * nh + mean_low * nl) / (nh + nl).max(1.0)
        } else {
            mean_low
        };
        RunResult {
            mean_high,
            mean_low,
            mean_all,
            cdf_high: to_cdf(hi),
            cdf_low: to_cdf(lo),
        }
    })
}
