//! The fleet manager: federated PRMs, reactions, and the epoch loop.

use pard::Time;
use pard_sim::stats::LatencySample;
use pard_sim::par::par_map;
use pard_sim::trace::{self, TraceCat, TraceVal};

use crate::config::FleetConfig;
use crate::machine::{FleetMachine, MachineEpoch};
use crate::tenants::{population, Tier};

/// Where a tenant's traffic currently lives, from the manager's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TenantState {
    /// Single full-scale replica on the home machine.
    Home,
    /// Split 50/50 between the home machine and `target`.
    Sharded {
        /// Machine hosting the second replica.
        target: usize,
    },
    /// Home replica drained to scale 0; retirement happens at the next
    /// epoch boundary, after residual requests have flowed out.
    Draining {
        /// Machine hosting the surviving replica.
        target: usize,
    },
    /// Fully moved off the home machine.
    Migrated,
}

/// Per-tier outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct TierOutcome {
    /// p95 of the tier's merged post-warmup response-time distribution.
    pub p95: Time,
    /// p99 of the merged distribution.
    pub p99: Time,
    /// Fraction of `(tenant, epoch)` cells whose epoch p95 met the tier
    /// target.
    pub attain_p95: f64,
    /// Fraction of cells whose epoch p99 met the target.
    pub attain_p99: f64,
    /// Number of measured `(tenant, epoch)` cells.
    pub cells: usize,
    /// Requests completed by the tier after warm-up.
    pub completed: u64,
}

/// Outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Guaranteed-tier results.
    pub guaranteed: TierOutcome,
    /// Best-effort results.
    pub best_effort: TierOutcome,
    /// Escalations raised by machine-local triggers over the run.
    pub escalations: usize,
    /// Tenant re-shards the manager performed.
    pub reshards: usize,
    /// LDom migrations the manager completed.
    pub migrations: usize,
    /// Mean CPU utilization across machines at the end of the run.
    pub utilization: f64,
}

struct TierAcc {
    dist: LatencySample,
    met_p95: usize,
    met_p99: usize,
    cells: usize,
}

impl TierAcc {
    fn new() -> Self {
        TierAcc {
            dist: LatencySample::new(),
            met_p95: 0,
            met_p99: 0,
            cells: 0,
        }
    }

    fn outcome(mut self) -> TierOutcome {
        let completed = self.dist.len() as u64;
        TierOutcome {
            p95: self.dist.percentile(0.95),
            p99: self.dist.percentile(0.99),
            attain_p95: ratio(self.met_p95, self.cells),
            attain_p99: ratio(self.met_p99, self.cells),
            cells: self.cells,
            completed,
        }
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs a whole fleet experiment: builds the machines, places the tenant
/// population, then advances the fleet epoch by epoch — machines in parallel via
/// [`par_map`], manager reactions serial and deterministic between epochs.
///
/// The control ladder is the paper's "trigger ⇒ action" chain with one
/// more rung: a machine-local trigger (memory `bandwidth` above the
/// escalation threshold) runs a pardscript that writes
/// `/sys/fleet/escalate`; the manager collects those escalations at the
/// epoch boundary and — when `cfg.armed` — reacts by **re-sharding** the
/// tenant's traffic 50/50 onto the least-loaded other machine, and on a
/// repeat escalation by **migrating** the LDom entirely (drain epoch, then
/// retire on the source and full scale on the target). Disarmed fleets
/// record the escalations but change nothing: the consolidation baseline.
pub fn run_fleet(cfg: &FleetConfig) -> FleetOutcome {
    let pop = population(cfg);
    let mut machines: Vec<FleetMachine> = (0..cfg.machines)
        .map(|i| FleetMachine::new(i, cfg))
        .collect();
    for spec in &pop {
        machines[spec.home].admit(spec, cfg, 1.0, 0);
    }

    let mut state = vec![TenantState::Home; pop.len()];
    let mut pending_retire: Vec<usize> = Vec::new();
    let (mut escalations, mut reshards, mut migrations) = (0usize, 0usize, 0usize);
    let mut guaranteed = TierAcc::new();
    let mut best_effort = TierAcc::new();
    let mut utilization = 0.0;

    for epoch in 0..cfg.epochs {
        let span = cfg.epoch;
        let stepped: Vec<(FleetMachine, MachineEpoch)> =
            par_map(std::mem::take(&mut machines), move |mut m| {
                m.advance(span);
                let obs = m.drain_epoch();
                (m, obs)
            });
        let mut observations = Vec::with_capacity(stepped.len());
        for (m, obs) in stepped {
            machines.push(m);
            observations.push(obs);
        }

        // Merge replica samples into per-tenant epoch distributions and
        // score them against the tier SLOs.
        let mut per_tenant = vec![LatencySample::new(); pop.len()];
        for obs in &observations {
            for (tenant, sample) in &obs.samples {
                per_tenant[*tenant].absorb(sample);
            }
        }
        if epoch >= cfg.warmup_epochs {
            for (spec, mut sample) in pop.iter().zip(per_tenant) {
                if sample.is_empty() {
                    continue;
                }
                let (p95, p99) = (sample.percentile(0.95), sample.percentile(0.99));
                let (acc, target95, target99) = match spec.tier {
                    Tier::Guaranteed => {
                        (&mut guaranteed, cfg.slo.guaranteed_p95, cfg.slo.guaranteed_p99)
                    }
                    Tier::BestEffort => {
                        (&mut best_effort, cfg.slo.best_effort_p95, cfg.slo.best_effort_p99)
                    }
                };
                acc.cells += 1;
                acc.met_p95 += usize::from(p95 <= target95);
                acc.met_p99 += usize::from(p99 <= target99);
                acc.dist.absorb(&sample);
            }
        }
        utilization = observations.iter().map(|o| o.utilization).sum::<f64>()
            / observations.len().max(1) as f64;

        // ---- the manager's serial, deterministic reaction pass --------
        let now = machines[0].now();

        // End of warm-up: calibrate the machine-local escalation triggers
        // against each tenant's measured mean bandwidth. No trigger exists
        // before this point, so cold-cache start-up transients can never
        // fire one. (With `warmup_epochs` 0 this still runs after the
        // first epoch — some traffic must have flowed to measure a mean.)
        if epoch + 1 == cfg.warmup_epochs.max(1) {
            let mut armed = 0;
            for m in &mut machines {
                armed += m.calibrate_escalations(cfg);
            }
            trace::emit(
                TraceCat::Fleet,
                now,
                0,
                "calibrate",
                &[("armed", TraceVal::U(armed as u64))],
            );
        }

        // Complete migrations decided last epoch: the source has been at
        // scale 0 for a full epoch, so its residual requests have drained.
        for tenant in std::mem::take(&mut pending_retire) {
            let TenantState::Draining { target } = state[tenant] else {
                continue;
            };
            machines[pop[tenant].home].retire(tenant);
            machines[target].set_scale(tenant, 1.0);
            state[tenant] = TenantState::Migrated;
            migrations += 1;
            trace::emit(
                TraceCat::Fleet,
                now,
                tenant as u16,
                "migrate",
                &[
                    ("from", TraceVal::U(pop[tenant].home as u64)),
                    ("to", TraceVal::U(target as u64)),
                ],
            );
        }

        // Collect this epoch's escalations in deterministic order
        // (machine index, then PRM queue order).
        let mut reacted: Vec<usize> = Vec::new();
        for (mi, obs) in observations.iter().enumerate() {
            for (tenant, esc) in &obs.escalations {
                escalations += 1;
                trace::emit(
                    TraceCat::Fleet,
                    esc.at,
                    esc.ds,
                    "escalate",
                    &[("machine", TraceVal::U(mi as u64))],
                );
                if !cfg.armed || reacted.contains(tenant) {
                    continue;
                }
                reacted.push(*tenant);
                match state[*tenant] {
                    TenantState::Home => {
                        let target = least_loaded_other(&machines, pop[*tenant].home);
                        machines[pop[*tenant].home].set_scale(*tenant, 0.5);
                        machines[target].admit(&pop[*tenant], cfg, 0.5, 1);
                        machines[pop[*tenant].home].rearm(*tenant);
                        state[*tenant] = TenantState::Sharded { target };
                        reshards += 1;
                        trace::emit(
                            TraceCat::Fleet,
                            now,
                            *tenant as u16,
                            "reshard",
                            &[
                                ("from", TraceVal::U(pop[*tenant].home as u64)),
                                ("to", TraceVal::U(target as u64)),
                            ],
                        );
                    }
                    TenantState::Sharded { target } => {
                        // Re-sharding was not enough: migrate. Drain the
                        // home replica this epoch; retire it at the next
                        // boundary.
                        machines[pop[*tenant].home].set_scale(*tenant, 0.0);
                        machines[pop[*tenant].home].rearm(*tenant);
                        state[*tenant] = TenantState::Draining { target };
                        pending_retire.push(*tenant);
                        trace::emit(
                            TraceCat::Fleet,
                            now,
                            *tenant as u16,
                            "drain",
                            &[("machine", TraceVal::U(pop[*tenant].home as u64))],
                        );
                    }
                    TenantState::Draining { .. } | TenantState::Migrated => {}
                }
            }
        }
    }

    FleetOutcome {
        guaranteed: guaranteed.outcome(),
        best_effort: best_effort.outcome(),
        escalations,
        reshards,
        migrations,
        utilization,
    }
}

/// The least-loaded machine other than `except` (static offered-load
/// weights scaled by dispatch shares; ties break to the lowest index).
fn least_loaded_other(machines: &[FleetMachine], except: usize) -> usize {
    machines
        .iter()
        .filter(|m| m.idx() != except)
        .min_by(|a, b| {
            a.load()
                .partial_cmp(&b.load())
                .unwrap()
                .then(a.idx().cmp(&b.idx()))
        })
        .expect("fleet has at least two machines")
        .idx()
}

/// Convenience: [`run_fleet`] over [`population`]'s default placement for
/// a given consolidation ratio and arming, starting from `base`.
pub fn run_consolidation(base: &FleetConfig, tenants_per_machine: usize, armed: bool) -> FleetOutcome {
    let mut cfg = base.clone();
    cfg.tenants_per_machine = tenants_per_machine;
    cfg.armed = armed;
    run_fleet(&cfg)
}
