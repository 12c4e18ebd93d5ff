//! `hhbench` — the end-to-end and per-layer benchmark of `hhsim`.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path hhbench/Cargo.toml -- \
//!     --workload regen_cold --seed 0 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. Each run repeats *passes* of the named
//! workload until `--seconds` of pass time have been measured. Every
//! pass is preceded by its own set-up (cache clear and warm-up, golden
//! loading), timed as `setup_s`; the first set-up is timed from process
//! start. Around every pass the run times a fixed reference kernel
//! (`probe::reference_seconds`); pass times are reported divided by it,
//! so that the host's changing speed on a shared machine cancels. With
//! `--trace 0` the run prints the end-to-end metrics as medians over its
//! passes. With `--trace 1` it alternates untraced and
//! traced passes and prints the per-layer metrics of the traced ones
//! (see `trace.rs` and `README.md`). Every pass's outputs are checked:
//! against `results/` (regeneration) or the digests in `golden/` at the
//! default seed 0, and against seed-independent invariants always. The
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Deterministic counts are also written, apart
//! from the timings, to `.bench_out/<workload>-seed<n>-counts.json`, and
//! a traced run's spans to `.bench_out/<workload>-seed<n>-spans.json`.
//!
//! `--record` runs the workload's recorded passes at seed 0 and rewrites
//! `golden/<workload>.txt`.

mod digest;
mod probe;
mod racked;
mod recovery;
mod regen;
mod trace;
mod verify;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use hhsim_core::{harness, SimCache};

use crate::digest::Golden;
use crate::probe::HostStamp;
use crate::trace::{SelfTimes, Tracer};
use crate::verify::Checks;
use crate::workload::{Workload, ACCESSES_PER_REPLAY};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["regen_cold", "racked_shuffle", "recovery_at_scale"];

/// The seed whose outputs the golden digests record.
const DEFAULT_SEED: u64 = 0;
/// Untraced passes a run measures at least (their median is reported).
const MIN_PASSES: usize = 3;
/// Traced passes a `--trace 1` run measures at least.
const MIN_TRACED: usize = 2;
/// Hard cap on passes, whatever `--seconds` says.
const MAX_PASSES: u32 = 500;

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_ref", "ref"),
    ("cpu_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("calib_claims_met", "count"),
    ("calib_log_err", "ln_ratio"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("arch.replays", "count"),
    ("arch.busy_s", "s"),
    ("arch.accesses_per_s", "1/s"),
    ("mapreduce.runs", "count"),
    ("mapreduce.busy_s", "s"),
    ("mapreduce.records_per_s", "1/s"),
    ("simcache.lookups", "count"),
    ("simcache.hit_ratio", "ratio"),
    ("harness.points", "count"),
    ("harness.busy_s", "s"),
    ("harness.parallel_eff", "ratio"),
    ("hdfs.blocks_placed", "count"),
    ("hdfs.busy_s", "s"),
    ("shuffle.flows", "count"),
    ("shuffle.busy_s", "s"),
    ("shuffle.flows_per_s", "1/s"),
    ("cluster.attempts", "count"),
    ("cluster.self_s", "s"),
    ("cluster.attempts_per_s", "1/s"),
    ("cluster.useful_ratio", "ratio"),
    ("cluster.placement_probes", "count"),
    ("faults.sample_busy_s", "s"),
    ("faults.failed_attempts", "count"),
    ("faults.speculative_launched", "count"),
    ("faults.spec_win_ratio", "ratio"),
    ("faults.wasted_slot_s", "sim_s"),
    ("faults.failed_runs", "count"),
    ("energy.segments", "count"),
    ("energy.busy_s", "s"),
    ("export.bytes", "bytes"),
    ("export.busy_s", "s"),
    ("export.bytes_per_s", "bytes/s"),
    ("model.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.mirror_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.passes", "count"),
    ("bench.workers", "count"),
    ("bench.wall_s", "s"),
    ("bench.ref_s", "s"),
];

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

impl Args {
    fn from_argv(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            record: false,
        };
        while let Some(flag) = it.next() {
            if flag == "--record" {
                args.record = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(args.seconds.is_finite() && args.seconds > 0.0) {
                        return Err(bad(&"need a positive number"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"need 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got `{}`",
                args.workload
            ));
        }
        Ok(args)
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `times` in reference units: each divided by the mean of the
/// reference samples `refs[at[k]]` and `refs[at[k] + 1]`, taken just
/// before and just after the pass.
fn in_ref_units(times: &[f64], at: &[usize], refs: &[f64]) -> Vec<f64> {
    times
        .iter()
        .zip(at)
        .map(|(&t, &i)| {
            let before = refs.get(i).copied().unwrap_or(0.0);
            let after = refs.get(i + 1).copied().unwrap_or(before);
            safe_ratio(t, (before + after) / 2.0)
        })
        .collect()
}

fn safe_ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The timing-derived per-layer metrics of one traced pass.
fn layer_timings(
    st: &SelfTimes,
    tr: &Tracer,
    workers: usize,
    wall: f64,
) -> BTreeMap<&'static str, f64> {
    let c = |k: &str| tr.pass_counts().get(k).copied().unwrap_or(0.0);
    let t = |k: &str| tr.timings().get(k).copied().unwrap_or(0.0);
    BTreeMap::from([
        ("arch.busy_s", st.layer("arch")),
        (
            "arch.accesses_per_s",
            safe_ratio(c("arch.replays") * ACCESSES_PER_REPLAY, st.layer("arch")),
        ),
        ("mapreduce.busy_s", st.layer("mapreduce")),
        (
            "mapreduce.records_per_s",
            safe_ratio(c("mapreduce.records"), st.layer("mapreduce")),
        ),
        ("harness.busy_s", t("harness.busy_s")),
        (
            "harness.parallel_eff",
            safe_ratio(t("harness.cpu_s"), t("harness.busy_s") * workers as f64),
        ),
        ("hdfs.busy_s", st.layer("hdfs")),
        ("shuffle.busy_s", st.layer("shuffle")),
        (
            "shuffle.flows_per_s",
            safe_ratio(c("shuffle.flows"), st.layer("shuffle")),
        ),
        ("cluster.self_s", st.layer("cluster")),
        (
            "cluster.attempts_per_s",
            safe_ratio(c("cluster.attempts"), st.span("cluster.run")),
        ),
        ("faults.sample_busy_s", st.span("faults.sample")),
        ("energy.busy_s", st.layer("energy")),
        ("export.busy_s", st.layer("export")),
        (
            "export.bytes_per_s",
            safe_ratio(c("export.bytes"), st.layer("export")),
        ),
        ("model.self_s", st.layer("model")),
        ("trace.mirror_s", st.mirror_s),
        ("trace.wall_s", wall),
    ])
}

/// Per-layer metrics derived from deterministic counts alone.
fn layer_counts(counts: &BTreeMap<&'static str, f64>) -> BTreeMap<&'static str, f64> {
    let c = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .filter_map(|&(name, _)| counts.get(name).map(|&v| (name, v)))
        .collect();
    out.insert(
        "simcache.hit_ratio",
        safe_ratio(c("simcache.hits"), c("simcache.lookups")),
    );
    out.insert(
        "cluster.useful_ratio",
        safe_ratio(c("cluster.useful"), c("cluster.attempts")),
    );
    out.insert(
        "faults.spec_win_ratio",
        safe_ratio(
            c("faults.speculative_wins"),
            c("faults.speculative_launched"),
        ),
    );
    out
}

fn json_metrics(values: &BTreeMap<&str, f64>, decl: &[(&str, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in decl.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push('}');
    out
}

fn json_counts(counts: &BTreeMap<&str, f64>) -> String {
    let body: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn make_workload(args: &Args) -> Result<Box<dyn Workload>, String> {
    let golden_dir = Path::new("hhbench/golden");
    if !golden_dir.is_dir() {
        return Err("run from the repository root (hhbench/golden not found)".to_string());
    }
    let golden = if args.seed == DEFAULT_SEED && !args.record {
        Some(Golden::load_dir(golden_dir, &args.workload)?)
    } else {
        None
    };
    let workers = probe::workers();
    Ok(match args.workload.as_str() {
        "regen_cold" => {
            let results = Path::new("results");
            if !results.is_dir() {
                return Err("results/ not found".to_string());
            }
            Box::new(regen::Regen::at_seed(results, args.seed))
        }
        "racked_shuffle" => Box::new(racked::Racked::at_seed(args.seed, golden)),
        _ => Box::new(recovery::Recovery::at_seed(args.seed, workers, golden)),
    })
}

fn record(args: &Args, w: &mut dyn Workload) -> Result<(), String> {
    if args.seed != DEFAULT_SEED {
        return Err(format!("--record needs the default seed {DEFAULT_SEED}"));
    }
    let mut tr = Tracer::dormant();
    let mut checks = Checks::default();
    let mut got = Vec::new();
    for pass in 0..w.record_passes() {
        w.setup()?;
        tr.begin_pass(u32::try_from(pass).unwrap_or(u32::MAX), false);
        w.pass(&mut tr)?;
        w.verify(&mut checks, &mut tr);
        got.extend(w.digests());
    }
    if checks.failed > 0 {
        return Err(format!("not recording, checks failed: {:?}", checks.notes));
    }
    Golden::load_dir(Path::new("hhbench/golden"), &args.workload)?.record(&got)?;
    for (k, v) in &got {
        println!("{k} {v:016x}");
    }
    Ok(())
}

fn run_benchmark(args: &Args, started: HostStamp) -> Result<(), String> {
    let mut w = make_workload(args)?;
    if args.record {
        return record(args, w.as_mut());
    }
    let mut tr = Tracer::dormant();
    let mut checks = Checks::default();
    let (mut setups, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_walls = Vec::new();
    let mut samples: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut counts: Option<BTreeMap<&'static str, f64>> = None;
    // Reference kernel wall and CPU seconds before each pass and once
    // after the last; `at[k]` indexes the sample taken just before
    // untraced pass `k`.
    let (mut ref_walls, mut ref_cpus, mut at) = (Vec::new(), Vec::new(), Vec::new());
    let mut measured = 0.0;
    let mut pass = 0u32;
    let mut setup_from = started;
    loop {
        let traced = args.trace && pass % 2 == 1;
        w.setup()?;
        setups.push(setup_from.secs_since());
        let (ref_wall, ref_cpu) = probe::reference_seconds();
        ref_walls.push(ref_wall);
        ref_cpus.push(ref_cpu);
        tr.begin_pass(pass, traced);
        let cache0 = SimCache::global().stats();
        let harness0 = harness::snapshot();
        let cpu0 = probe::process_cpu();
        let t0 = HostStamp::now_host();
        let result = catch_unwind(AssertUnwindSafe(|| w.pass(&mut tr)));
        let wall = t0.secs_since();
        let cpu = (probe::process_cpu() - cpu0).as_secs_f64();
        match result {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                checks.tally(false, || e);
                break;
            }
            Err(_) => {
                checks.tally(false, || format!("pass {pass} panicked"));
                break;
            }
        }
        w.verify(&mut checks, &mut tr);
        if traced {
            let cache = SimCache::global().stats().since(&cache0);
            tr.add_count("simcache.lookups", cache.lookups() as f64);
            tr.add_count("simcache.hits", cache.hits as f64);
            let points = harness::snapshot().since(&harness0).points;
            tr.add_count("harness.points", points as f64);
            let st = tr.pass_self_times();
            if (st.roots_s - wall).abs() > 0.02 * wall {
                eprintln!(
                    "warning: layer self times and mirrors cover {:.4} s of a {wall:.4} s traced pass",
                    st.roots_s
                );
            }
            samples.push(layer_timings(&st, &tr, harness::jobs(), wall));
            traced_walls.push(wall);
            match &counts {
                None => counts = Some(tr.pass_counts().clone()),
                Some(first) => checks.tally(first == tr.pass_counts(), || {
                    format!(
                        "deterministic counts differ between passes: {first:?} vs {:?}",
                        tr.pass_counts()
                    )
                }),
            }
        } else {
            walls.push(wall);
            cpus.push(cpu);
            at.push(ref_walls.len() - 1);
        }
        measured += wall;
        pass += 1;
        let enough = walls.len() >= MIN_PASSES && (!args.trace || samples.len() >= MIN_TRACED);
        if (measured >= args.seconds && enough) || pass >= MAX_PASSES {
            break;
        }
        setup_from = HostStamp::now_host();
    }
    let (ref_wall, ref_cpu) = probe::reference_seconds();
    ref_walls.push(ref_wall);
    ref_cpus.push(ref_cpu);
    let peak_rss = probe::peak_rss_mb().unwrap_or(0.0);

    let stem = format!(".bench_out/{}-seed{}", args.workload, args.seed);
    std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
    let metrics = if args.trace {
        let counts = counts.unwrap_or_default();
        let mut values = layer_counts(&counts);
        for &(name, _) in &PER_LAYER {
            let series: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.get(name).copied())
                .collect();
            if !series.is_empty() {
                values.insert(name, median(&series));
            }
        }
        values.insert(
            "trace.overhead_frac",
            safe_ratio(median(&traced_walls), median(&walls)) - 1.0,
        );
        values.insert("trace.passes", samples.len() as f64);
        values.insert("bench.workers", harness::jobs() as f64);
        values.insert("bench.wall_s", median(&walls));
        values.insert("bench.ref_s", median(&ref_walls));
        let counts_json = json_counts(&counts);
        println!("counts {counts_json}");
        std::fs::write(format!("{stem}-counts.json"), counts_json + "\n")
            .map_err(|e| format!("{stem}-counts.json: {e}"))?;
        std::fs::write(format!("{stem}-spans.json"), tr.spans_json())
            .map_err(|e| format!("{stem}-spans.json: {e}"))?;
        json_metrics(&values, &PER_LAYER)
    } else {
        let targets = w.calibration();
        let claims = targets.iter().filter(|t| t.holds).count();
        let errs: Vec<f64> = targets
            .iter()
            .map(|t| t.measured / t.paper)
            .filter(|r| r.is_finite() && *r > 0.0)
            .map(|r| r.ln().abs())
            .collect();
        let values = BTreeMap::from([
            ("wall_ref", median(&in_ref_units(&walls, &at, &ref_walls))),
            ("cpu_ref", median(&in_ref_units(&cpus, &at, &ref_cpus))),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", peak_rss),
            ("calib_claims_met", claims as f64),
            (
                "calib_log_err",
                safe_ratio(errs.iter().sum(), errs.len() as f64),
            ),
        ]);
        json_metrics(&values, &END_TO_END)
    };
    for note in &checks.notes {
        eprintln!("check failed: {note}");
    }
    eprintln!(
        "{}: {} passes ({} traced), {} harness workers, {:.2} s measured, untraced pass walls {:.3?}, reference {:.5} s",
        args.workload,
        pass,
        samples.len(),
        harness::jobs(),
        measured,
        walls,
        median(&ref_walls)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
    );
    Ok(())
}

fn main() {
    let started = HostStamp::now_host();
    let args = match Args::from_argv(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hhbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run_benchmark(&args, started) {
        eprintln!("hhbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    //! The benchmark's self-test, on reduced instances.

    use std::sync::Mutex;

    use super::*;

    /// Serializes tests that clear or read the process-wide `SimCache`.
    static GLOBAL_CACHE: Mutex<()> = Mutex::new(());

    /// The metric names `BENCHMARK.json` declares in `section`.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .map(str::to_string)
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn printed_metric_names_are_declared_and_valid() {
        for (section, decl) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<String> = decl.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(names, declared(section), "{section} matches BENCHMARK.json");
            for n in &names {
                assert!(valid_name(n), "{n} is not a valid metric name");
            }
        }
    }

    #[test]
    fn computed_layer_metrics_are_all_printed() {
        let mut tr = Tracer::dormant();
        tr.begin_pass(0, true);
        let root = tr.open_point("model.point", 0);
        tr.exit_span(root);
        let printed: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        let st = tr.pass_self_times();
        for name in layer_timings(&st, &tr, 1, 1.0).keys() {
            assert!(printed.contains(name), "{name} is computed but not printed");
        }
        for name in layer_counts(&BTreeMap::new()).keys() {
            assert!(printed.contains(name), "{name} is computed but not printed");
        }
    }

    fn run_pass(w: &mut dyn Workload, traced: bool) -> (Vec<(String, u64)>, Checks) {
        let mut tr = Tracer::dormant();
        let mut checks = Checks::default();
        w.setup().expect("set-up");
        tr.begin_pass(0, traced);
        w.pass(&mut tr).expect("pass");
        w.verify(&mut checks, &mut tr);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        (w.digests(), checks)
    }

    #[test]
    fn replication_digests_do_not_depend_on_workers() {
        let _g = GLOBAL_CACHE.lock().unwrap_or_else(|e| e.into_inner());
        let digests: Vec<Vec<(String, u64)>> = [1, 2]
            .into_iter()
            .map(|workers| {
                let mut w = recovery::Recovery::with_shape(3, workers, None, 4, 8, 4);
                run_pass(&mut w, workers == 2).0
            })
            .collect();
        assert_eq!(digests[0].len(), 4, "plan, representative and both exports");
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn racked_digests_repeat_and_seeds_differ() {
        let _g = GLOBAL_CACHE.lock().unwrap_or_else(|e| e.into_inner());
        let mut w = racked::Racked::with_nodes(0, None, 16, 16);
        let (first, checks) = run_pass(&mut w, false);
        assert!(checks.attempted >= 6, "winner and energy checks per point");
        let (again, _) = run_pass(&mut w, true);
        assert_eq!(first, again);
        let mut other = racked::Racked::with_nodes(5, None, 16, 16);
        let (seeded, _) = run_pass(&mut other, false);
        assert_ne!(first, seeded, "the seed changes the simulated inputs");
    }

    #[test]
    fn times_are_divided_by_the_reference_around_them() {
        let refs = [1.0, 3.0, 0.5];
        assert_eq!(in_ref_units(&[4.0, 1.75], &[0, 1], &refs), vec![2.0, 1.0]);
        assert_eq!(
            in_ref_units(&[1.0], &[2], &refs),
            vec![2.0],
            "no later sample"
        );
    }

    #[test]
    fn args_reject_bad_input() {
        let parse = |v: &[&str]| Args::from_argv(v.iter().map(|s| s.to_string()));
        assert!(parse(&["--workload", "racked_shuffle", "--trace", "1"]).is_ok());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "regen_cold", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "regen_cold", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "regen_cold", "--seed"]).is_err());
    }
}
