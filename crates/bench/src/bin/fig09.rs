//! Figure 9 — memcached's LLC miss rate over time at 20 KRPS while the
//! "trigger ⇒ action" mechanism takes effect.
//!
//! Paper's result: memcached alone runs at ~7 % LLC miss rate; when the
//! three STREAM LDoms start, the miss rate shoots above 30 %, the
//! installed trigger fires, the firmware grows memcached's partition to
//! half the LLC, and the miss rate falls back to ~10 %.
//!
//! One simulation on the sequential kernel (see
//! [`pard_bench::fig09_scenario`]); the emitted `fig09.json` is
//! byte-identical at every `PARD_THREADS` setting.

use pard_bench::fig09_scenario::run_timeline;
use pard_bench::json::JsonValue;
use pard_bench::output::{print_series, save_json};
use pard_bench::duration_scale;

fn main() {
    let run = run_timeline(duration_scale());
    let (total, stream_start, series, fired_at) =
        (run.total, run.stream_start, run.series, run.fired_at);

    println!("Figure 9: Memcached LLC miss rate over time (20 KRPS)\n");
    println!(
        "3*STREAM startup at {:.0} ms; trigger fired at {} ms\n",
        stream_start.as_ms(),
        fired_at.map_or("never".to_string(), |t| format!("{t:.0}"))
    );
    print_series("llc_miss_rate_percent", &series);

    let solo_phase: Vec<f64> = series
        .iter()
        .filter(|&&(t, _)| t < stream_start.as_ms() * 0.9 && t > 10.0)
        .map(|&(_, v)| v)
        .collect();
    let late_phase: Vec<f64> = series
        .iter()
        .filter(|&&(t, _)| t > total.as_ms() * 0.75)
        .map(|&(_, v)| v)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!();
    println!(
        "memcached-only phase mean: {:.1}%   post-trigger phase mean: {:.1}%",
        mean(&solo_phase),
        mean(&late_phase)
    );
    println!("Paper anchors: solo ~7%; spike >30% at STREAM startup; ~10% after");
    println!("the trigger dedicates half the LLC.");

    save_json(
        "fig09.json",
        &JsonValue::object()
            .field("stream_start_ms", stream_start.as_ms())
            .field("trigger_fired_ms", fired_at)
            .field("series", series)
            .field("solo_phase_mean", mean(&solo_phase))
            .field("post_trigger_mean", mean(&late_phase)),
    );
}
