//! Scale benchmark for the cluster engine: completion-event throughput
//! and peak RSS over a nodes × tasks grid, up to 10k nodes / 1M tasks.
//!
//! ```text
//! cargo run --release -p hhsim-bench --bin cluster_scale             # full grid
//! cargo run --release -p hhsim-bench --bin cluster_scale -- --check  # CI smoke
//! ```
//!
//! Full mode prints one JSON document with per-config samples; the
//! checked-in `BENCH_cluster.json` is assembled from a "before" run (the
//! pre-rewrite engine, this same file built in a worktree — the
//! streaming-export probe is feature-gated on `streaming-export` so the
//! timing code compiles against engines that predate the streaming
//! writers) and an "after" run on the current tree.
//!
//! `--check` is the CI smoke: it runs the small and contended configs
//! three times each and asserts an events/sec floor on the **median**
//! sample per config (a single sample on a shared runner can dip far
//! below steady-state throughput when the run lands on a noisy
//! neighbour; the median of three is stable), asserts a peak-RSS
//! ceiling after the contended config, asserts the streaming
//! exporters' RSS growth stays flat, and validates the checked-in
//! `BENCH_cluster.json` shape. The contended config drains the same
//! grid through the topology-aware launch path (per-attempt locality
//! tier lookup plus shuffle extra-seconds), so a regression in the
//! rack-fabric bookkeeping trips the same floor.
//!
//! Events/sec counts *task completions* per wall-clock second: every
//! task is one calendar completion event plus its share of dispatch
//! work, so the metric tracks exactly the per-event cost the free-slot
//! index and the ladder calendar optimize.

// Wall-clock timing binary; crates/bench is wall-clock exempt in
// analysis.toml for the same reason as the figures sweep.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use hhsim_core::arch::CoreKind;
use hhsim_core::cluster::{run_phase, Cluster, FifoAnySlot, PhaseLoad, PhaseLocality, TaskSet};

/// One point of the scale grid.
struct ScaleConfig {
    name: &'static str,
    nodes: usize,
    slots: usize,
    tasks: usize,
    /// Attach locality context + per-task shuffle extras, exercising the
    /// topology-aware launch path (tier lookup + extra-seconds charge per
    /// attempt) instead of the legacy flat path.
    contended: bool,
}

const CONFIGS: [ScaleConfig; 4] = [
    ScaleConfig {
        name: "small",
        nodes: 100,
        slots: 4,
        tasks: 10_000,
        contended: false,
    },
    ScaleConfig {
        name: "mid",
        nodes: 1_000,
        slots: 4,
        tasks: 100_000,
        contended: false,
    },
    ScaleConfig {
        name: "large",
        nodes: 10_000,
        slots: 2,
        tasks: 1_000_000,
        contended: false,
    },
    ScaleConfig {
        name: "contended",
        nodes: 1_000,
        slots: 4,
        tasks: 100_000,
        contended: true,
    },
];

/// Rack count for the contended config: 1k nodes over 20 racks keeps
/// rack scans short while still mixing all three locality tiers.
const CONTENDED_RACKS: usize = 20;

/// Events/sec floor for the CI smoke on the small config (release
/// profile). The rewritten engine clears this by well over an order of
/// magnitude; the floor only catches catastrophic regressions on slow
/// shared runners.
const CHECK_FLOOR_EVENTS_PER_SEC: f64 = 20_000.0;

/// Peak-RSS (VmHWM) ceiling in `--check`, read right after the contended
/// config's samples. The engine measured 18,860 kB there before its
/// fault-free arm was folded into the attempt-aware engine (x86_64
/// Linux, release profile); the ceiling allows 30 % on top. Attempt
/// state must stay bounded by cluster capacity: a per-task attempt list
/// costs ~35 MB at 100k tasks and trips it.
const CHECK_CONTENDED_RSS_CEILING_KB: u64 = 24 * 1024;

/// RSS-growth ceiling for the streaming-export probe in `--check`:
/// streaming a six-figure-span timeline into a sink must not grow the
/// process high-water mark by more than a fixed few MB of buffers.
#[cfg(feature = "streaming-export")]
const CHECK_EXPORT_RSS_CEILING_KB: u64 = 16 * 1024;

/// Peak resident set size (VmHWM) in kB, 0 if unreadable.
fn vm_hwm_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Median of a sample set (middle element; lower-middle for even sizes).
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get(sorted.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0.0)
}

/// One timed engine run of `cfg`; returns (events/sec, elapsed seconds).
fn bench_engine(cfg: &ScaleConfig) -> (f64, f64) {
    let cluster = Cluster::homogeneous(CoreKind::Big, cfg.nodes, cfg.slots);
    let mut load = PhaseLoad::uniform(
        &TaskSet {
            tasks: cfg.tasks,
            task_seconds: 5.0,
            overhead_seconds: 0.1,
        },
        &cluster,
    );
    if cfg.contended {
        // Three deterministic replica holders per task (stride-7 spreads
        // them across racks) and a per-task shuffle extra — built before
        // the clock starts, so the bench times only the engine.
        load = load
            .with_locality(PhaseLocality {
                replicas: (0..cfg.tasks)
                    .map(|t| {
                        vec![
                            (t * 7) % cfg.nodes,
                            (t * 7 + 1) % cfg.nodes,
                            (t * 13) % cfg.nodes,
                        ]
                    })
                    .collect(),
                racks: CONTENDED_RACKS,
                read_seconds: [0.0, 0.8, 2.4],
            })
            .with_extra_seconds((0..cfg.tasks).map(|t| (t % 5) as f64 * 0.1).collect());
    }
    let started = Instant::now();
    let run =
        run_phase(&cluster, &load, &mut FifoAnySlot, None, None).expect("fault-free phase drains");
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(run.spans.len(), cfg.tasks, "every task completes");
    (cfg.tasks as f64 / elapsed.max(1e-9), elapsed)
}

/// Streams both exports of a mid-sized timeline into `io::sink()` and
/// returns `(spans, rss_growth_kb)` — the growth of the process peak
/// RSS across the export. The buffered reference would allocate the
/// whole multi-hundred-MB string; the streaming writers must not.
#[cfg(feature = "streaming-export")]
fn export_rss_probe() -> (usize, u64) {
    use hhsim_core::cluster::ClusterTimeline;
    let cluster = Cluster::homogeneous(CoreKind::Big, 1_000, 4);
    let load = PhaseLoad::uniform(
        &TaskSet {
            tasks: 100_000,
            task_seconds: 5.0,
            overhead_seconds: 0.1,
        },
        &cluster,
    );
    let run =
        run_phase(&cluster, &load, &mut FifoAnySlot, None, None).expect("fault-free phase drains");
    let mut tl = ClusterTimeline::new(&cluster);
    tl.extend("map", 0.0, &run);
    tl.extend("reduce", run.makespan_s, &run);
    let before = vm_hwm_kb();
    let mut sink = std::io::sink();
    tl.write_chrome_trace(&mut sink).expect("stream trace");
    tl.write_utilization_csv(&mut sink).expect("stream util");
    let after = vm_hwm_kb();
    (tl.len(), after.saturating_sub(before))
}

#[cfg(not(feature = "streaming-export"))]
fn export_rss_probe() -> (usize, u64) {
    (0, 0) // pre-streaming engine: nothing to probe
}

/// Minimal shape check of the checked-in BENCH_cluster.json (no JSON
/// dependency in this workspace: validate the keys and brace balance).
fn check_bench_json() {
    let root = env!("CARGO_MANIFEST_DIR");
    let path = format!("{root}/../../BENCH_cluster.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_cluster.json is checked in");
    for key in [
        "\"description\"",
        "\"method\"",
        "\"baseline_commit\"",
        "\"benches\"",
        "\"events_per_sec\"",
        "\"median\"",
        "\"speedup\"",
        "\"export_rss_probe\"",
        "\"rss_growth_kb\"",
    ] {
        assert!(text.contains(key), "BENCH_cluster.json lacks {key}");
    }
    let opens = text.matches('{').count();
    let closes = text.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces in BENCH_cluster.json");
    let opens = text.matches('[').count();
    let closes = text.matches(']').count();
    assert_eq!(opens, closes, "unbalanced brackets in BENCH_cluster.json");
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    if check {
        // Three samples, floor on the median: one sample on a shared
        // runner is too noisy for a throughput gate (observed >10x
        // spread between back-to-back small-config runs).
        for cfg in CONFIGS
            .iter()
            .filter(|c| c.name != "mid" && c.name != "large")
        {
            let samples: Vec<f64> = (0..3).map(|_| bench_engine(cfg).0).collect();
            let eps = median(&samples);
            println!(
                "check: {} -> median {:.0} events/s over {} samples",
                cfg.name,
                eps,
                samples.len()
            );
            assert!(
                eps >= CHECK_FLOOR_EVENTS_PER_SEC,
                "cluster engine throughput ({}) regressed below the floor: \
                 median {eps:.0} < {CHECK_FLOOR_EVENTS_PER_SEC} events/s",
                cfg.name
            );
            if cfg.contended {
                let hwm = vm_hwm_kb();
                println!("check: {} -> peak RSS {hwm} kB", cfg.name);
                assert!(
                    hwm <= CHECK_CONTENDED_RSS_CEILING_KB,
                    "cluster engine memory ({}) grew past the ceiling: \
                     peak RSS {hwm} kB > {CHECK_CONTENDED_RSS_CEILING_KB} kB",
                    cfg.name
                );
            }
        }
        #[cfg(feature = "streaming-export")]
        {
            let (spans, growth) = export_rss_probe();
            println!("check: streamed {spans} spans, RSS growth {growth} kB");
            assert!(
                growth <= CHECK_EXPORT_RSS_CEILING_KB,
                "streaming export no longer flat: grew {growth} kB"
            );
        }
        check_bench_json();
        println!("check: BENCH_cluster.json shape ok");
        return;
    }

    // Full grid: three samples per config, JSON on stdout.
    println!("{{");
    println!("  \"samples\": [");
    for (ci, cfg) in CONFIGS.iter().enumerate() {
        let mut eps = Vec::new();
        for _ in 0..3 {
            eps.push(bench_engine(cfg).0);
        }
        let mean = eps.iter().sum::<f64>() / eps.len() as f64;
        let med = median(&eps);
        let min = eps.iter().copied().fold(f64::INFINITY, f64::min);
        let max = eps.iter().copied().fold(0.0_f64, f64::max);
        let comma = if ci + 1 < CONFIGS.len() { "," } else { "" };
        println!(
            "    {{\"config\":\"{}\",\"nodes\":{},\"slots\":{},\"tasks\":{},\
             \"events_per_sec\":{{\"mean\":{mean:.1},\"median\":{med:.1},\"min\":{min:.1},\
             \"max\":{max:.1},\"samples\":{}}},\"peak_rss_kb\":{}}}{comma}",
            cfg.name,
            cfg.nodes,
            cfg.slots,
            cfg.tasks,
            eps.len(),
            vm_hwm_kb(),
        );
    }
    println!("  ],");
    let (spans, growth) = export_rss_probe();
    println!("  \"export_rss_probe\": {{\"spans\":{spans},\"rss_growth_kb\":{growth}}}");
    println!("}}");
}
