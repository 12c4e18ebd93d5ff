//! `recovery_at_scale`: a warm `ReplicationPlan` over fault seeds of a
//! 1,000-node WordCount mix on a flat network, plus one representative
//! run whose Chrome trace and utilization CSV are exported.
//!
//! 333 Xeon + 667 Atom nodes, `PaperClass(Edp)` placement, 64 MB blocks
//! and fig. 19's fault model at 6 % (`fig19_faults(0.06, true)`:
//! per-attempt failures, 40 % stragglers, LATE speculation). The
//! attempt-aware engine, fault sampling and exact energy integration do
//! the work; there is no shuffle solver or cache replay.
//!
//! Seeds come in blocks of 17: block `b` of run seed `s` starts at fault
//! seed `f = 10_000·s + 17·b`; the plan replicates `f .. f + 16` on the
//! harness pool and the representative run uses `f + 16`, outside the
//! plan, so it never hits the plan's memoized phases. Untraced pass `b`
//! runs block `b`; traced passes all run block 0, so their counts repeat.
//! About a fifth of the seeds fail their job (a task exhausts its
//! attempts), which ends the run early and keeps its phases out of the
//! memo; rolling the block from pass to pass averages that over many
//! seeds, so the medians and peak memory of a run depend little on which
//! seeds it drew.

use hhsim_core::arch::presets;
use hhsim_core::energy::MetricKind;
use hhsim_core::faults::{FaultConfig, NodeFaults, PhaseError};
use hhsim_core::figures::fig19_faults;
use hhsim_core::harness::{self, ReplicationPlan, ReplicationSummary};
use hhsim_core::hdfs::BlockSize;
use hhsim_core::workloads::AppId;
use hhsim_core::{
    cluster, try_simulate_cluster, ClusterTimeline, Measurement, NodeMix, PlacementKind, SimCache,
    SimConfig,
};

use crate::digest::{self, Golden};
use crate::probe;
use crate::trace::Tracer;
use crate::verify::{self, Checks};
use crate::workload::{self, Workload};

const APP: AppId = AppId::WordCount;
const SEEDS_PER_PASS: u64 = 16;
/// Fault seeds reserved per run seed: room for 588 blocks of 17.
const SEEDS_PER_RUN_SEED: u64 = 10_000;
/// Blocks whose digests `golden/recovery_at_scale.txt` records; a run
/// that gets further checks the later blocks against invariants only.
const RECORDED_BLOCKS: u64 = 24;

/// The replication workload.
pub struct Recovery {
    cfg: SimConfig,
    faults: FaultConfig,
    /// First fault seed of block 0.
    base: u64,
    /// Replications per plan.
    per_plan: u64,
    /// Block of the last pass.
    block: u64,
    /// Untraced passes run so far (the next untraced pass's block).
    untraced: u64,
    workers: usize,
    golden: Option<Golden>,
    summary: Option<ReplicationSummary>,
    rep: Option<Result<(Measurement, ClusterTimeline), PhaseError>>,
    trace_json: Vec<u8>,
    util_csv: Vec<u8>,
    probes: u64,
}

impl Recovery {
    /// The plan for `seed` on `workers` harness workers.
    pub fn at_seed(seed: u64, workers: usize, golden: Option<Golden>) -> Self {
        Self::with_shape(seed, workers, golden, 333, 667, SEEDS_PER_PASS)
    }

    /// The plan on a `big` + `little` cluster with `seeds` replications.
    pub fn with_shape(
        seed: u64,
        workers: usize,
        golden: Option<Golden>,
        big: usize,
        little: usize,
        seeds: u64,
    ) -> Self {
        let faults = fig19_faults(0.06, true);
        let cfg = SimConfig::new(APP, presets::xeon_e5_2420())
            .block_size(BlockSize::MB_64)
            .mix(NodeMix {
                big,
                little,
                placement: PlacementKind::PaperClass(MetricKind::Edp),
            })
            .faults(faults);
        Recovery {
            cfg,
            faults,
            base: seed.wrapping_mul(SEEDS_PER_RUN_SEED),
            per_plan: seeds,
            block: 0,
            untraced: 0,
            workers,
            golden,
            summary: None,
            rep: None,
            trace_json: Vec::new(),
            util_csv: Vec::new(),
            probes: 0,
        }
    }

    /// The plan's fault seeds and the representative run's, of `block`.
    fn block_seeds(&self, block: u64) -> (Vec<u64>, u64) {
        let first = self
            .base
            .wrapping_add(block.wrapping_mul(self.per_plan + 1));
        let plan = (0..self.per_plan).map(|i| first.wrapping_add(i)).collect();
        (plan, first.wrapping_add(self.per_plan))
    }

    fn node_count(&self) -> usize {
        self.cfg
            .node_mix
            .map_or(self.cfg.nodes, |m| m.big + m.little)
    }
}

impl Workload for Recovery {
    fn setup(&mut self) -> Result<(), String> {
        harness::set_jobs(self.workers);
        SimCache::global().clear();
        workload::warm(APP);
        Ok(())
    }

    fn pass(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let nodes = self.node_count();
        self.block = if tr.on() { 0 } else { self.untraced };
        let (seeds, rep_seed) = self.block_seeds(self.block);
        let root = tr.open_point("model.plan", 0);
        if tr.on() {
            workload::prefill(tr, &[APP]);
        }
        let plan = ReplicationPlan::new(self.cfg.clone(), seeds.iter().copied()).batch(1);
        let h0 = harness::snapshot();
        let c0 = probe::process_cpu();
        let run = tr.enter_span("cluster.replicate");
        let summary = plan.run_with(self.workers, SimCache::global());
        tr.exit_span(run);
        tr.add_timing(
            "harness.busy_s",
            harness::snapshot().since(&h0).busy.as_secs_f64(),
        );
        tr.add_timing("harness.cpu_s", (probe::process_cpu() - c0).as_secs_f64());
        if tr.on() {
            for &s in &seeds {
                let fc = self.faults.seed(s);
                tr.mirror(run, "faults.sample", || NodeFaults::sample(&fc, nodes));
            }
        }
        tr.exit_span(root);
        self.summary = Some(summary);

        let root = tr.open_point("model.representative", 1);
        let fc = self.faults.seed(rep_seed);
        let cfg = self.cfg.clone().faults(fc);
        cluster::reset_placement_probes();
        let run = tr.enter_span("cluster.run");
        let rep = try_simulate_cluster(&cfg);
        tr.exit_span(run);
        self.probes = cluster::placement_probes();
        self.trace_json.clear();
        self.util_csv.clear();
        if let Ok((_, tl)) = &rep {
            if tr.on() {
                tr.mirror(run, "faults.sample", || NodeFaults::sample(&fc, nodes));
                let meters = tr.mirror(run, "energy.meter", || {
                    verify::meter_nodes(tl, cfg.frequency, &APP.map_profile())
                });
                tr.add_count("energy.segments", meters.total_segments() as f64);
            }
            let (json, util) = (&mut self.trace_json, &mut self.util_csv);
            tr.time("export.chrome_trace", || tl.write_chrome_trace(json))
                .map_err(|e| e.to_string())?;
            tr.time("export.util_csv", || tl.write_utilization_csv(util))
                .map_err(|e| e.to_string())?;
        }
        tr.exit_span(root);
        self.rep = Some(rep);
        if !tr.on() {
            self.untraced += 1;
        }
        Ok(())
    }

    fn verify(&mut self, checks: &mut Checks, tr: &mut Tracer) {
        let (Some(summary), Some(rep)) = (&self.summary, &self.rep) else {
            checks.tally(false, || "recovery pass left no output".to_string());
            return;
        };
        if let Some(g) = self
            .golden
            .as_ref()
            .filter(|_| self.block < RECORDED_BLOCKS)
        {
            for (key, got) in self.digests() {
                let want = g.expected(&key);
                checks.tally(want == Some(got), || {
                    format!("recovery {key}: digest {got:016x}, recorded {want:016x?}")
                });
            }
        }
        checks.tally(summary.replications == self.per_plan, || {
            format!(
                "plan ran {} of {} seeds",
                summary.replications, self.per_plan
            )
        });
        if let Ok((m, tl)) = rep {
            let won = verify::one_winner(tl);
            checks.tally(won.is_ok(), || format!("representative run: {won:?}"));
            let meters = verify::meter_nodes(tl, self.cfg.frequency, &APP.map_profile());
            let energy = verify::energy_within_bound(m, &meters);
            checks.tally(energy.is_ok(), || format!("representative run: {energy:?}"));
        }
        if tr.on() {
            let mut faults = summary.faults;
            let mut failed_runs = summary.failed_runs;
            match rep {
                Ok((m, tl)) => {
                    faults.absorb(&m.faults);
                    let (useful, all) = verify::span_counts(tl);
                    tr.add_count("cluster.attempts", all as f64);
                    tr.add_count("cluster.useful", useful as f64);
                }
                Err(_) => failed_runs += 1,
            }
            tr.add_count("cluster.placement_probes", self.probes as f64);
            tr.add_count("faults.failed_attempts", faults.failed_attempts as f64);
            tr.add_count(
                "faults.speculative_launched",
                faults.speculative_launched as f64,
            );
            tr.add_count("faults.speculative_wins", faults.speculative_wins as f64);
            tr.add_count("faults.wasted_slot_s", faults.wasted_slot_s);
            tr.add_count("faults.failed_runs", failed_runs as f64);
            let bytes = self.trace_json.len() + self.util_csv.len();
            tr.add_count("export.bytes", bytes as f64);
        }
    }

    fn digests(&self) -> Vec<(String, u64)> {
        let b = self.block;
        let mut out = Vec::new();
        if let Some(s) = &self.summary {
            out.push((format!("block{b}.plan"), digest::of_summary(s)));
        }
        if let Some(r) = &self.rep {
            let m = r.as_ref().map(|(m, _)| m);
            out.push((
                format!("block{b}.representative"),
                digest::of_measurement(m),
            ));
            out.push((
                format!("block{b}.trace_json"),
                digest::of_bytes(&self.trace_json),
            ));
            out.push((
                format!("block{b}.util_csv"),
                digest::of_bytes(&self.util_csv),
            ));
        }
        out
    }

    fn record_passes(&self) -> u64 {
        RECORDED_BLOCKS
    }
}
