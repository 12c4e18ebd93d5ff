//! The workload interface and the cache warm-up the workloads share.

use hhsim_core::arch::{presets, ComputeProfile};
use hhsim_core::calibration::Target;
use hhsim_core::workloads::AppId;
use hhsim_core::{AppRatios, SimCache};

use crate::trace::Tracer;
use crate::verify::Checks;

/// Accesses one trace-driven stall split replays (warm-up included): the
/// arch layer's fixed `TRACE_LEN`.
pub const ACCESSES_PER_REPLAY: f64 = 400_000.0;

/// One benchmark workload.
pub trait Workload {
    /// Preparation before each pass: clears and warms caches and loads
    /// expected outputs. Timed as `setup_s`, not as pass time.
    fn setup(&mut self) -> Result<(), String>;

    /// One timed pass. Spans and counts go to `tr` when it is on.
    /// An `Err` is an unexpected failure of the program.
    fn pass(&mut self, tr: &mut Tracer) -> Result<(), String>;

    /// Checks the last pass's outputs and, when `tr` is on, adds the
    /// pass's deterministic counts. Not timed.
    fn verify(&mut self, checks: &mut Checks, tr: &mut Tracer);

    /// Digests of the last pass, for `--record` at the default seed.
    fn digests(&self) -> Vec<(String, u64)>;

    /// Untraced passes `--record` runs: enough to cover every pass whose
    /// digests differ.
    fn record_passes(&self) -> u64 {
        1
    }

    /// The calibration targets the run checked (computed after the
    /// timed passes when the workload does not regenerate them).
    fn calibration(&mut self) -> Vec<Target> {
        hhsim_core::calibration::check_all()
    }
}

/// The profiles the simulator prices `app` with: its map and reduce
/// phases plus the Hadoop framework average behind task launch.
pub fn app_profiles(app: AppId) -> [ComputeProfile; 3] {
    [
        app.map_profile(),
        app.reduce_profile(),
        ComputeProfile::hadoop_average(),
    ]
}

/// Warms every stall split and the dataflow ratios a cluster run of
/// `app` on the Xeon/Atom presets looks up.
pub fn warm(app: AppId) {
    let cache = SimCache::global();
    for m in presets::both() {
        for p in app_profiles(app) {
            cache.stall_split(&m, &p);
        }
    }
    cache.ratios(app);
}

/// Looks up, inside `arch` and `mapreduce` spans, every stall split and
/// functional run `apps` need, counting those that miss the cache and
/// had to be computed. For all six apps this is exactly the set a cold
/// regeneration computes (26 stall splits, 12 functional runs).
pub fn prefill(tr: &mut Tracer, apps: &[AppId]) {
    let cache = SimCache::global();
    let mut profiles: Vec<ComputeProfile> = apps.iter().flat_map(|&a| app_profiles(a)).collect();
    profiles.sort_by(|a, b| a.name.cmp(&b.name));
    profiles.dedup_by(|a, b| a.name == b.name);
    for m in presets::both() {
        for p in &profiles {
            let before = cache.stats().misses;
            tr.time("arch.stall_split", || cache.stall_split(&m, p));
            if cache.stats().misses > before {
                tr.add_count("arch.replays", 1.0);
            }
        }
    }
    for &app in apps {
        for cfg in [AppRatios::reference_config(), AppRatios::small_config()] {
            let before = cache.stats().misses;
            let run = tr.time("mapreduce.functional_run", || {
                cache.functional_run(app, &cfg)
            });
            if cache.stats().misses > before {
                tr.add_count("mapreduce.runs", 1.0);
                let records: u64 = run.per_job.iter().map(|j| j.map_input_records).sum();
                tr.add_count("mapreduce.records", records as f64);
            }
        }
        tr.time("mapreduce.ratios", || cache.ratios(app));
    }
}
