//! Figure 9 scenario — memcached's LLC miss rate over time at 20 KRPS
//! while the "trigger ⇒ action" mechanism takes effect.
//!
//! Paper's result: memcached alone runs at ~7 % LLC miss rate; when the
//! three STREAM LDoms start, the miss rate shoots above 30 %, the
//! installed trigger fires, the firmware grows memcached's partition to
//! half the LLC, and the miss rate falls back to ~10 %.
//!
//! Unlike the sweep figures this is a single simulation with mid-run
//! operator actions (each sample depends on the last), so there is
//! nothing to fan out across the worker pool: it runs on the sequential
//! kernel on one thread, and `fig09.json` is byte-identical at every
//! `PARD_THREADS` setting.

use pard::{DsId, PardServer, Time};

use crate::{install_llc_trigger, install_llc_trigger_scenario};

/// One Figure 9 timeline: the sampled miss-rate series plus the phase
/// markers the plot annotates.
pub struct Fig09Run {
    /// Total simulated span.
    pub total: Time,
    /// When the three STREAM LDoms launch.
    pub stream_start: Time,
    /// `(ms, smoothed miss-rate %)` samples.
    pub series: Vec<(f64, f64)>,
    /// When the trigger's waymask action was first observed, in ms.
    pub fired_at: Option<f64>,
}

/// Runs the default-geometry timeline at the given `--quick`/`--full`
/// duration scale.
pub fn run_timeline(scale: f64) -> Fig09Run {
    run_span(Time::from_ms((160.0 * scale).max(80.0) as u64))
}

/// Runs one timeline over an explicit span (tests shrink it).
pub fn run_span(total: Time) -> Fig09Run {
    run_span_with(total, |_| {})
}

/// As [`run_span`], with a setup hook called on the server before the
/// timeline starts (the policy equivalence suite installs the
/// built-in programs explicitly through it).
pub fn run_span_with(total: Time, setup: impl FnOnce(&mut PardServer)) -> Fig09Run {
    let sample = Time::from_ms(2);

    let (mut server, mc) = install_llc_trigger_scenario(20_000.0);
    setup(&mut server);
    // Launch memcached alone first; STREAM joins at a third of the run.
    // The trigger rule is installed once memcached has warmed, as the
    // paper's operator does before the interfering LDoms arrive.
    let stream_start = total / 3;
    let rule_at = stream_start * 9 / 10;
    let mut series: Vec<(f64, f64)> = Vec::new();
    let mut ewma: Option<f64> = None;
    let mut rule_installed = false;
    let mut streams_started = false;
    let mut fired_at: Option<f64> = None;

    while server.now() < total {
        server.run_for(sample);
        if !rule_installed && server.now() >= rule_at {
            install_llc_trigger(&mut server, mc);
            rule_installed = true;
        }
        if !streams_started && server.now() >= stream_start {
            for ds in 1..=3u16 {
                server.launch(DsId::new(ds)).expect("launch stream");
            }
            streams_started = true;
        }
        let raw = server
            .llc_cp()
            .lock()
            .stat(mc, "miss_rate")
            .unwrap_or_default() as f64;
        let smoothed = match ewma {
            Some(prev) => prev * 0.6 + raw * 0.4,
            None => raw,
        };
        ewma = Some(smoothed);
        series.push((server.now().as_ms(), smoothed));
        if fired_at.is_none() {
            let mask = server
                .llc_cp()
                .lock()
                .param(mc, "waymask")
                .expect("memcached DS-id is within the LLC parameter table");
            if mask == 0xFF00 {
                fired_at = Some(server.now().as_ms());
            }
        }
    }

    Fig09Run {
        total,
        stream_start,
        series,
        fired_at,
    }
}
