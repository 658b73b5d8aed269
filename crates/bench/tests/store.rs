//! Binary trace store round-trip, seek, and bounded-replay integration
//! tests over real figure scenarios.
//!
//! The acceptance contract for the `.ptr` sink: replaying a traced run
//! from the binary store yields the **same event stream** as the JSONL
//! sink — byte-equivalent after decode — at `PARD_THREADS=1` and `4`,
//! under a strict auditor, with replay memory bounded by the page size
//! rather than the trace length, and with mid-file seek landing exactly
//! where a full scan would.
//!
//! Determinism fine print, which picks the comparison per scenario:
//!
//! * fig09 is one simulation on one thread, so its trace is
//!   byte-deterministic at *any* `PARD_THREADS`, with any sampling
//!   divisors.
//! * fig11 runs its baseline/PARD pair under the `par_map` harness. At
//!   one thread everything is sequential and the default-sampled trace
//!   is deterministic. At four threads the workers race for the global
//!   tracer lock: the *interleaving* is nondeterministic and the shared
//!   sampling counters would make even the kept-set racy — so the
//!   4-thread comparison pins the one category fig11 emits (`dram`) to
//!   sampling divisor 1 (no counter to race) and compares sorted
//!   multisets.
//!
//! One test function owns the whole matrix because the tracer, the
//! auditor, and `PARD_THREADS` are process-global.

use std::path::{Path, PathBuf};

use pard_bench::replay::{check_trace_file, stream_trace_lines};
use pard_bench::{fig09_scenario, fig11_scenario};
use pard_sim::store::TraceReader;
use pard_sim::trace::{self, TraceCat, TraceConfig};
use pard_sim::audit;

/// Decodes every event of `path` (JSONL or `.ptr`, sniffed by magic) as
/// its JSONL line, asserting the file is whole (no torn tail).
fn decoded_lines(path: &Path) -> Vec<String> {
    let mut lines = Vec::new();
    let torn = stream_trace_lines(path.to_str().unwrap(), 0, &mut |_, line| {
        lines.push(line.to_string());
        Ok(())
    })
    .unwrap_or_else(|errs| panic!("{errs:?}"));
    assert!(torn.is_none(), "unexpected torn tail: {torn:?}");
    lines
}

/// Installs a tracer to `path` and runs the fig11 baseline/PARD pair.
fn capture_fig11(
    path: &PathBuf,
    filter: Vec<(TraceCat, Option<u16>)>,
    sample: Vec<(TraceCat, u32)>,
) -> Vec<String> {
    trace::install(TraceConfig {
        path: Some(path.clone()),
        filter,
        sample,
        page_size: 4096,
        pool_pages: 2,
        ..TraceConfig::default()
    })
    .unwrap();
    let _ = fig11_scenario::run_pair(0.55, 1_000);
    trace::disable();
    decoded_lines(path)
}

/// Installs a tracer to `path` and runs the fig09 timeline.
fn capture_fig09(path: &PathBuf) -> Vec<String> {
    trace::install(TraceConfig {
        path: Some(path.clone()),
        page_size: 4096,
        pool_pages: 2,
        ..TraceConfig::default()
    })
    .unwrap();
    let _ = fig09_scenario::run_timeline(0.25);
    trace::disable();
    decoded_lines(path)
}


#[test]
fn binary_store_round_trips_figure_traces_and_seeks() {
    let dir = std::env::temp_dir().join(format!("pard-store-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    audit::install(audit::AuditConfig::strict()).unwrap();

    // fig11, one thread: full default-sampled trace, exact equality.
    std::env::set_var("PARD_THREADS", "1");
    let jsonl = capture_fig11(&dir.join("fig11-t1.jsonl"), Vec::new(), Vec::new());
    let binary = capture_fig11(&dir.join("fig11-t1.ptr"), Vec::new(), Vec::new());
    assert!(!jsonl.is_empty(), "the traced run must emit events");
    assert_eq!(
        jsonl, binary,
        "fig11 @ 1 thread: binary decode must be byte-equivalent to JSONL"
    );

    // fig11, four threads: the dram category at divisor 1 (no sampling
    // counter to race), sorted multiset equality — the kept-set matches
    // even though the racing interleave does not.
    let dram = vec![(TraceCat::Dram, None)];
    let keep_all = vec![(TraceCat::Dram, 1)];
    std::env::set_var("PARD_THREADS", "4");
    let mut jsonl = capture_fig11(&dir.join("fig11-t4.jsonl"), dram.clone(), keep_all.clone());
    let mut binary = capture_fig11(&dir.join("fig11-t4.ptr"), dram, keep_all);
    assert!(!jsonl.is_empty());
    assert_eq!(jsonl.len(), binary.len());
    jsonl.sort();
    binary.sort();
    assert_eq!(
        jsonl, binary,
        "fig11 @ 4 threads: binary decode must carry the same event multiset"
    );

    // fig09 (one simulation, one thread): byte-deterministic at any
    // worker count, so both formats and both thread settings must agree
    // exactly.
    std::env::set_var("PARD_THREADS", "1");
    let jsonl_t1 = capture_fig09(&dir.join("fig09-t1.jsonl"));
    let ptr_t1_path = dir.join("fig09-t1.ptr");
    let binary_t1 = capture_fig09(&ptr_t1_path);
    std::env::set_var("PARD_THREADS", "4");
    let jsonl_t4 = capture_fig09(&dir.join("fig09-t4.jsonl"));
    let binary_t4 = capture_fig09(&dir.join("fig09-t4.ptr"));
    std::env::remove_var("PARD_THREADS");
    assert!(!jsonl_t1.is_empty());
    assert_eq!(jsonl_t1, binary_t1, "fig09 @ 1 thread: formats must agree");
    assert_eq!(jsonl_t4, binary_t4, "fig09 @ 4 threads: formats must agree");
    assert_eq!(
        jsonl_t1, jsonl_t4,
        "fig09: the trace must not depend on PARD_THREADS"
    );

    // The store really paged the trace (replay memory is bounded by one
    // page frame, not the trace length), and the shared checker accepts
    // the binary file directly.
    let reader = TraceReader::open(&ptr_t1_path).unwrap();
    assert!(
        reader.data_pages() > 4,
        "expected a multi-page store, got {} pages",
        reader.data_pages()
    );
    drop(reader);
    let (report, torn) = check_trace_file(ptr_t1_path.to_str().unwrap())
        .unwrap_or_else(|errs| panic!("{errs:?}"));
    assert_eq!(report.total, binary_t1.len() as u64);
    assert!(torn.is_none());

    // Mid-file seek: replay from an interior ordinal equals the suffix of
    // the full scan, with correct 1-based event numbering.
    let from = (binary_t1.len() / 2) as u64;
    let mut suffix = Vec::new();
    let mut numbers = Vec::new();
    stream_trace_lines(ptr_t1_path.to_str().unwrap(), from, &mut |n, line| {
        numbers.push(n);
        suffix.push(line.to_string());
        Ok(())
    })
    .unwrap_or_else(|errs| panic!("{errs:?}"));
    assert_eq!(suffix, binary_t1[from as usize..].to_vec());
    assert_eq!(numbers.first().copied(), Some(from + 1));
    assert_eq!(numbers.last().copied(), Some(binary_t1.len() as u64));

    assert_eq!(audit::violations_total(), 0, "strict audit stayed clean");
    audit::disable();
    std::fs::remove_dir_all(&dir).ok();
}
