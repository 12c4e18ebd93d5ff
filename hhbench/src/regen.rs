//! `regen_cold`: an in-process cold regeneration of every artifact under
//! `results/`, compared byte for byte with the checked-in files.
//!
//! Each pass clears `SimCache`, renders the 25 figure/table CSVs, the
//! four streamed trace/utilization pairs and `calibration.txt` on one
//! harness worker, like `figures --jobs 1`: the cold start is serial
//! (each stall split and functional run is computed once, where first
//! needed), and a second worker only adds contention and allocator
//! arenas that make peak memory vary from run to run. The seed
//! permutes the artifact order (seed 0 keeps paper order): every order
//! must regenerate the same bytes, since artifacts share only the cache.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use hhsim_core::calibration::{self, Target};
use hhsim_core::workloads::AppId;
use hhsim_core::{harness, try_simulate_cluster, ClusterTimeline, SimCache, SimConfig};

use crate::probe;
use crate::trace::Tracer;
use crate::verify::{self, Checks};
use crate::workload::{self, Workload};

/// The artifacts that ship a streamed trace pair, with the run behind it.
fn trace_config(id: &str) -> Option<SimConfig> {
    match id {
        "fig18" => Some(hhsim_bench::fig18_trace_config()),
        "fig19" => Some(hhsim_bench::fig19_trace_config()),
        "fig21" => Some(hhsim_bench::fig21_trace_config()),
        "fig22" => Some(hhsim_bench::fig22_trace_config()),
        _ => None,
    }
}

/// Deterministic Fisher–Yates permutation of `v` from `seed`; seed 0
/// leaves `v` as is.
fn shuffle<T>(v: &mut [T], seed: u64) {
    if seed == 0 {
        return;
    }
    let mut x = seed;
    for i in (1..v.len()).rev() {
        // splitmix64
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let j = usize::try_from(z % (i as u64 + 1)).unwrap_or(0);
        v.swap(i, j);
    }
}

/// The cold-regeneration workload.
pub struct Regen {
    results: PathBuf,
    order: Vec<&'static str>,
    golden: BTreeMap<String, Vec<u8>>,
    out: Vec<(String, Vec<u8>)>,
    runs: Vec<ClusterTimeline>,
    targets: Vec<Target>,
}

impl Regen {
    /// The workload over the artifacts in `results`.
    pub fn at_seed(results: &Path, seed: u64) -> Self {
        let mut order = hhsim_bench::artifact_ids();
        shuffle(&mut order, seed);
        Regen {
            results: results.to_path_buf(),
            order,
            golden: BTreeMap::new(),
            out: Vec::new(),
            runs: Vec::new(),
            targets: Vec::new(),
        }
    }
}

impl Workload for Regen {
    fn setup(&mut self) -> Result<(), String> {
        harness::set_jobs(1);
        SimCache::global().clear();
        self.golden.clear();
        let dir = std::fs::read_dir(&self.results)
            .map_err(|e| format!("{}: {e}", self.results.display()))?;
        for entry in dir {
            let path = entry.map_err(|e| e.to_string())?.path();
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .ok_or_else(|| format!("{}: unreadable name", path.display()))?
                .to_string();
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            self.golden.insert(name, bytes);
        }
        Ok(())
    }

    fn pass(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.out.clear();
        self.runs.clear();
        if tr.on() {
            let root = tr.open_point("model.prefill", 0);
            workload::prefill(tr, &AppId::ALL);
            tr.exit_span(root);
        }
        for (k, id) in self.order.iter().enumerate() {
            let root = tr.open_point("model.artifact", k as u32 + 1);
            let h0 = harness::snapshot();
            let c0 = probe::process_cpu();
            let rendered = tr.time("model.render", || hhsim_bench::render(id));
            let busy = harness::snapshot().since(&h0).busy.as_secs_f64();
            if busy > 0.0 {
                let cpu = (probe::process_cpu() - c0).as_secs_f64();
                tr.add_timing("harness.busy_s", busy);
                tr.add_timing("harness.cpu_s", cpu);
            }
            let (name, csv) = match rendered {
                None => return Err(format!("unknown artifact {id}")),
                Some(Err(e)) => return Err(format!("{id}: job failed: {e}")),
                Some(Ok(r)) => r,
            };
            self.out.push((format!("{name}.csv"), csv.into_bytes()));
            if let Some(cfg) = trace_config(id) {
                let run = tr.enter_span("cluster.run");
                let result = try_simulate_cluster(&cfg);
                tr.exit_span(run);
                let (_, tl) = result.map_err(|e| format!("{id} trace run failed: {e}"))?;
                let mut json = Vec::new();
                let mut util = Vec::new();
                tr.time("export.chrome_trace", || tl.write_chrome_trace(&mut json))
                    .map_err(|e| e.to_string())?;
                tr.time("export.util_csv", || tl.write_utilization_csv(&mut util))
                    .map_err(|e| e.to_string())?;
                self.out.push((format!("{id}_trace.json"), json));
                self.out.push((format!("{id}_util.csv"), util));
                self.runs.push(tl);
            }
            tr.exit_span(root);
        }
        let root = tr.open_point("model.artifact", self.order.len() as u32 + 1);
        let (targets, report) = tr.time("model.calibration", || {
            let t = calibration::check_all();
            let r = calibration::report(&t);
            (t, r)
        });
        tr.exit_span(root);
        self.out
            .push(("calibration.txt".to_string(), report.into_bytes()));
        self.targets = targets;
        Ok(())
    }

    fn verify(&mut self, checks: &mut Checks, tr: &mut Tracer) {
        for (name, bytes) in &self.out {
            let want = self.golden.get(name);
            checks.tally(want == Some(bytes), || match want {
                None => format!("{name} is not in results/"),
                Some(_) => format!("{name} differs from results/{name}"),
            });
        }
        for name in self.golden.keys() {
            checks.tally(self.out.iter().any(|(n, _)| n == name), || {
                format!("results/{name} was not regenerated")
            });
        }
        for tl in &self.runs {
            checks.tally(verify::one_winner(tl).is_ok(), || {
                format!("trace run: {:?}", verify::one_winner(tl))
            });
        }
        if tr.on() {
            for tl in &self.runs {
                let (useful, all) = verify::span_counts(tl);
                tr.add_count("cluster.attempts", all as f64);
                tr.add_count("cluster.useful", useful as f64);
            }
            let bytes: usize = self
                .out
                .iter()
                .filter(|(n, _)| n.contains("_trace.") || n.contains("_util."))
                .map(|(_, b)| b.len())
                .sum();
            tr.add_count("export.bytes", bytes as f64);
        }
    }

    fn digests(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    fn calibration(&mut self) -> Vec<Target> {
        self.targets.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..25).collect();
        let mut a = base.clone();
        shuffle(&mut a, 0);
        assert_eq!(a, base, "seed 0 keeps paper order");
        let mut b = base.clone();
        shuffle(&mut b, 7);
        let mut c = base.clone();
        shuffle(&mut c, 7);
        assert_eq!(b, c);
        assert_ne!(b, base);
        b.sort_unstable();
        assert_eq!(b, base);
    }
}
