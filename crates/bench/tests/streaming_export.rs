//! Streaming-export equality: `ClusterTimeline::write_chrome_trace` and
//! `write_utilization_csv` must produce byte-identical output to an
//! independent reference on the fig. 18 (clean), fig. 19 (faults),
//! fig. 21 (locality tiers) and fig. 22 (tiers plus rack annotations)
//! trace runs, and on a large synthetic run.
//!
//! The reference lives in this file. It reads the timeline only through
//! its public row API (`nodes`, `iter()`, `annotations()`), formats every
//! event with its own code, and computes each node's active-slot steps —
//! per locality tier when any span ran off-node — by counting the node's
//! spans open at every change point. A formatting or step-folding
//! regression in the writers therefore cannot hide by regressing the
//! reference in lockstep.

use hhsim_core::arch::CoreKind;
use hhsim_core::cluster::{
    run_phase, Cluster, ClusterTimeline, FifoAnySlot, PhaseLoad, TaskSet, TaskSpan,
};
use hhsim_core::faults::AttemptOutcome;
use hhsim_core::hdfs::LocalityTier;

fn outcome_label(o: AttemptOutcome) -> &'static str {
    match o {
        AttemptOutcome::Success => "success",
        AttemptOutcome::Failed => "failed",
        AttemptOutcome::Killed => "killed",
        AttemptOutcome::Cancelled => "cancelled",
        AttemptOutcome::FetchFailed => "fetch-failed",
        AttemptOutcome::Recovered => "recovered",
    }
}

fn tier_label(t: LocalityTier) -> &'static str {
    match t {
        LocalityTier::NodeLocal => "node-local",
        LocalityTier::RackLocal => "rack-local",
        LocalityTier::OffRack => "off-rack",
    }
}

/// Reference Chrome-trace JSON: node metadata, one `X` event per span
/// with non-default attempt/outcome/tier args only, the domain
/// annotations as global instant events, and a closing sentinel.
fn reference_chrome_trace(tl: &ClusterTimeline) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (pid, n) in tl.nodes.iter().enumerate() {
        out += &format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{} ({} x{})\"}}}},\n",
            n.name, n.kind, n.slots
        );
    }
    for s in tl.iter() {
        let mut args = format!(
            "\"task\":{},\"wave\":{},\"wait_us\":{:.3}",
            s.task,
            s.wave,
            (s.launched_s - s.queued_s) * 1e6
        );
        if s.attempt > 1 {
            args += &format!(",\"attempt\":{}", s.attempt);
        }
        if s.outcome != AttemptOutcome::Success {
            args += &format!(",\"outcome\":\"{}\"", outcome_label(s.outcome));
        }
        if s.tier != LocalityTier::NodeLocal {
            args += &format!(",\"tier\":\"{}\"", tier_label(s.tier));
        }
        out += &format!(
            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"{}-{}\",\"cat\":\"{}\",\"args\":{{{args}}}}},\n",
            s.node,
            s.slot,
            s.launched_s * 1e6,
            (s.finished_s - s.launched_s) * 1e6,
            s.phase,
            s.task,
            s.phase
        );
    }
    for (t, label) in tl.annotations() {
        out += &format!(
            "{{\"ph\":\"i\",\"pid\":0,\"ts\":{:.3},\"name\":\"{label}\",\"s\":\"g\"}},\n",
            t * 1e6
        );
    }
    out += "{\"ph\":\"M\",\"pid\":0,\"name\":\"trace_end\",\"args\":{}}\n]}\n";
    out
}

/// Spans of `spans` open just after time `t`: launched at or before `t`
/// minus finished at or before `t`.
fn open_at<'a>(spans: impl Iterator<Item = &'a TaskSpan>, t: f64) -> usize {
    let (mut up, mut down) = (0usize, 0usize);
    for s in spans {
        up += usize::from(s.launched_s <= t);
        down += usize::from(s.finished_s <= t);
    }
    up - down
}

/// Reference utilization CSV: per node, one row at time zero and one at
/// every distinct later launch/finish time, each counting the spans open
/// right after it — overall, and per tier when any span ran off-node.
fn reference_utilization_csv(tl: &ClusterTimeline) -> String {
    let spans: Vec<TaskSpan> = tl.iter().collect();
    let tiered = spans.iter().any(|s| s.tier != LocalityTier::NodeLocal);
    let mut out = String::from(if tiered {
        "node,name,time_s,active_slots,node_local,rack_local,off_rack\n"
    } else {
        "node,name,time_s,active_slots\n"
    });
    for (i, n) in tl.nodes.iter().enumerate() {
        let mine: Vec<&TaskSpan> = spans.iter().filter(|s| s.node == i).collect();
        let mut times: Vec<f64> = mine
            .iter()
            .flat_map(|s| [s.launched_s, s.finished_s])
            .filter(|&t| t != 0.0)
            .collect();
        times.sort_by(f64::total_cmp);
        times.dedup();
        for t in std::iter::once(0.0).chain(times) {
            out += &format!("{i},{},{t:.6},{}", n.name, open_at(mine.iter().copied(), t));
            if tiered {
                for tier in [
                    LocalityTier::NodeLocal,
                    LocalityTier::RackLocal,
                    LocalityTier::OffRack,
                ] {
                    let of_tier = mine.iter().copied().filter(|s| s.tier == tier);
                    out += &format!(",{}", open_at(of_tier, t));
                }
            }
            out.push('\n');
        }
    }
    out
}

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

/// Checks artifact `id`'s streamed exports — both straight off its
/// timeline and through the figures binary's `write_trace` — against the
/// reference, and returns its timeline and utilization CSV.
fn check_artifact(id: &str) -> (ClusterTimeline, String) {
    let cfg = hhsim_bench::trace_config(id).expect("artifact ships a trace");
    let (_, tl) = hhsim_core::simulate_cluster(&cfg);
    let ref_json = reference_chrome_trace(&tl);
    let ref_util = reference_utilization_csv(&tl);
    let (json, util) = streamed(&tl);
    assert_eq!(json, ref_json, "{id} trace diverged");
    assert_eq!(util, ref_util, "{id} utilization diverged");
    let mut t = Vec::new();
    let mut u = Vec::new();
    hhsim_bench::write_trace(&cfg, &mut t, &mut u).expect("stream to Vec");
    assert_eq!(String::from_utf8(t).expect("UTF-8"), ref_json);
    assert_eq!(String::from_utf8(u).expect("UTF-8"), ref_util);
    (tl, util)
}

#[test]
fn fig18_streamed_exports_match_buffered_reference() {
    check_artifact("fig18");
}

#[test]
fn fig19_streamed_exports_match_buffered_reference() {
    // The faulty golden config: re-executions, a crash, speculation —
    // the attempt/outcome args exercise every branch of the formatter.
    check_artifact("fig19");
}

#[test]
fn fig21_streamed_exports_match_buffered_reference() {
    // Remote map reads switch the utilization CSV to its tiered columns.
    let (_, util) = check_artifact("fig21");
    assert!(util.starts_with("node,name,time_s,active_slots,node_local,rack_local,off_rack\n"));
}

#[test]
fn fig22_streamed_exports_match_buffered_reference() {
    // Tiers plus rack-crash / rack-blacklist instant events.
    let (tl, util) = check_artifact("fig22");
    assert!(
        tl.annotations().count() > 0,
        "fig22 carries rack annotations"
    );
    assert!(util.starts_with("node,name,time_s,active_slots,node_local,rack_local,off_rack\n"));
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
    assert_eq!(json, reference_chrome_trace(&tl));
    assert_eq!(util, reference_utilization_csv(&tl));
}
