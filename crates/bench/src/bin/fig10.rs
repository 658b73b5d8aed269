//! Figure 10 — disk I/O performance isolation.
//!
//! Two LDoms each run `dd if=/dev/zero of=/dev/sdb bs=32M count=16`.
//! Initially they share the IDE controller equally; mid-run the operator
//! runs `echo 80 > /sys/cpa/cpa3/ldoms/ldom0/parameters/bandwidth`, and
//! LDom0's share rises to 80 %.
//!
//! One simulation on the sequential kernel (see
//! [`pard_bench::fig10_scenario`]); the emitted `fig10.json` is
//! byte-identical at every `PARD_THREADS` setting.

use pard_bench::fig10_scenario::run_timeline;
use pard_bench::json::JsonValue;
use pard_bench::output::{print_series, save_json};
use pard_bench::duration_scale;

fn main() {
    let run = run_timeline(duration_scale());
    let (total, echo_at, shares) = (run.total, run.echo_at, run.shares);

    println!("Figure 10: Disk I/O performance isolation\n");
    println!("quota change (echo 80) at {:.0} ms\n", echo_at.as_ms());
    for (i, s) in shares.iter().enumerate() {
        print_series(&format!("ldom{i}.disk_bandwidth_share_pct"), s);
    }

    let mean_in = |s: &Vec<(f64, f64)>, lo: f64, hi: f64| {
        let v: Vec<f64> = s
            .iter()
            .filter(|&&(t, _)| t >= lo && t < hi)
            .map(|&(_, v)| v)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let before = mean_in(&shares[0], 100.0, echo_at.as_ms());
    let after = mean_in(&shares[0], echo_at.as_ms() + 50.0, total.as_ms());
    println!();
    println!(
        "ldom0 share: {before:.1}% before the echo, {after:.1}% after \
         (paper: 50% -> 80%)"
    );
    save_json(
        "fig10.json",
        &JsonValue::object()
            .field("echo_at_ms", echo_at.as_ms())
            .field("shares_pct", shares)
            .field("ldom0_before_pct", before)
            .field("ldom0_after_pct", after),
    );
}
