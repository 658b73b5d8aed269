//! `PARD_THREADS` byte-identity matrix over the figure scenarios, with
//! tracing and strict auditing live for the whole run.
//!
//! fig09 and fig10 are single simulations on one thread, fig11 and the
//! fault figure run their independent simulations under the `par_map`
//! harness; all four must render the same bytes at every thread setting.
//! One test owns the whole matrix because `PARD_THREADS` is
//! process-global state.

use pard_bench::fig11_scenario;
use pard_bench::fig_fault_scenario::{self, Timeline};
use pard_bench::{fig09_scenario, fig10_scenario};
use pard_sim::{audit, trace};

#[test]
fn figure_outputs_are_byte_identical_across_thread_counts() {
    // All categories into the in-memory ring (default sampling), and
    // panic on the first conservation violation: a run that loses or
    // duplicates a packet must fail here, not drift a figure.
    trace::install(trace::TraceConfig::default()).unwrap();
    audit::install(audit::AuditConfig::strict()).unwrap();

    let render = || {
        let f9 = fig09_scenario::run_timeline(0.25);
        // A shortened fig10 span: the quota echo still lands mid-run, but
        // the disk copies only cover a quarter of the default timeline.
        let f10 = fig10_scenario::run_span(
            2,
            pard_sim::Time::from_ms(200),
            pard_sim::Time::from_ms(100),
        );
        let (b11, p11) = fig11_scenario::run_pair(0.55, 4_000);
        let tl = Timeline::at_scale(0.25);
        let (bf, rf) = fig_fault_scenario::run_pair(tl);
        format!(
            "{:?}\n{:?}\n{}\n{}",
            (f9.total, f9.stream_start, f9.fired_at, f9.series),
            (f10.total, f10.echo_at, f10.shares),
            fig11_scenario::summary_json(0.55, &b11, &p11).to_string_pretty(),
            fig_fault_scenario::summary_json(tl, &bf, &rf).to_string_pretty(),
        )
    };

    std::env::set_var("PARD_THREADS", "1");
    let one = render();
    std::env::set_var("PARD_THREADS", "4");
    let four = render();
    std::env::remove_var("PARD_THREADS");

    assert_eq!(audit::violations_total(), 0, "strict audit stayed clean");
    audit::disable();
    trace::disable();

    assert_eq!(one, four, "figure bytes must not depend on PARD_THREADS");
}
