//! Streaming-export equality: the incremental trace/CSV writers must
//! produce byte-identical output to the buffered reference
//! implementations on the golden fig. 18 / fig. 19 configurations, and
//! on a large synthetic run the reference never sees.
//!
//! The buffered `to_chrome_trace_json` / `utilization_csv` are kept as
//! independent code paths precisely so this test is honest: a formatting
//! regression in the streaming writers cannot hide by regressing the
//! reference in lockstep.

use hhsim_core::arch::CoreKind;
use hhsim_core::cluster::{run_phase, Cluster, ClusterTimeline, FifoAnySlot, PhaseLoad, TaskSet};

/// Streams both exports of `tl` into in-memory buffers.
fn streamed(tl: &ClusterTimeline) -> (String, String) {
    let mut trace = Vec::new();
    let mut util = Vec::new();
    tl.write_chrome_trace(&mut trace).expect("stream trace");
    tl.write_utilization_csv(&mut util).expect("stream util");
    (
        String::from_utf8(trace).expect("trace is UTF-8"),
        String::from_utf8(util).expect("util is UTF-8"),
    )
}

#[test]
fn fig18_streamed_exports_match_buffered_reference() {
    let (_, tl) = hhsim_core::simulate_cluster(&hhsim_bench::fig18_trace_config());
    let (json, util) = streamed(&tl);
    assert_eq!(json, tl.to_chrome_trace_json(), "fig18 trace diverged");
    assert_eq!(util, tl.utilization_csv(), "fig18 utilization diverged");
    // And the public pair-writer used by the figures bin agrees too.
    let (ref_json, ref_util) = hhsim_bench::fig18_trace();
    let mut t = Vec::new();
    let mut u = Vec::new();
    hhsim_bench::write_fig18_trace(&mut t, &mut u).expect("stream fig18");
    assert_eq!(String::from_utf8(t).expect("UTF-8"), ref_json);
    assert_eq!(String::from_utf8(u).expect("UTF-8"), ref_util);
}

#[test]
fn fig19_streamed_exports_match_buffered_reference() {
    // The faulty golden config: re-executions, a crash, speculation —
    // the attempt/outcome args exercise every branch of the formatter.
    let (_, tl) = hhsim_core::simulate_cluster(&hhsim_bench::fig19_trace_config());
    let (json, util) = streamed(&tl);
    assert_eq!(json, tl.to_chrome_trace_json(), "fig19 trace diverged");
    assert_eq!(util, tl.utilization_csv(), "fig19 utilization diverged");
    let (ref_json, ref_util) = hhsim_bench::fig19_trace();
    let mut t = Vec::new();
    let mut u = Vec::new();
    hhsim_bench::write_fig19_trace(&mut t, &mut u).expect("stream fig19");
    assert_eq!(String::from_utf8(t).expect("UTF-8"), ref_json);
    assert_eq!(String::from_utf8(u).expect("UTF-8"), ref_util);
}

#[test]
fn large_synthetic_timeline_streams_identically() {
    // 200 nodes x 20k tasks: big enough that per-span allocation or
    // accidental quadratic per-node scans would show, small enough for
    // the default suite.
    let c = Cluster::homogeneous(CoreKind::Big, 200, 2);
    let l = PhaseLoad::uniform(
        &TaskSet {
            tasks: 20_000,
            task_seconds: 3.0,
            overhead_seconds: 0.05,
        },
        &c,
    );
    let run = run_phase(&c, &l, &mut FifoAnySlot, None, None).expect("fault-free phase drains");
    let mut tl = ClusterTimeline::new(&c);
    tl.extend("map", 0.0, &run);
    tl.extend("reduce", run.makespan_s, &run);
    assert_eq!(tl.len(), 40_000);
    let (json, util) = streamed(&tl);
    assert_eq!(json, tl.to_chrome_trace_json());
    assert_eq!(util, tl.utilization_csv());
}
