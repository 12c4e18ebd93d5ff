//! Output checks that do not need recorded digests: exactly one winning
//! attempt per task, and metered energy within its proven bound of the
//! exact integral. They run on every seed.

use std::collections::BTreeMap;

use hhsim_core::arch::{presets, ComputeProfile, Frequency, MachineModel};
use hhsim_core::energy::StreamingMeter;
use hhsim_core::faults::AttemptOutcome;
use hhsim_core::{ClusterTimeline, Measurement};

/// Tally of checks made and failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes the failure.
    pub fn tally(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}

/// Checks that every task of every phase has exactly one winning
/// (`Success`) span and that each phase's winners cover task ids `0..n`
/// without gaps. Other outcomes are not counted: besides the phase's own
/// losing attempts, a reduce phase also holds re-executions of lost map
/// outputs, keyed by *map* task id (`Recovered` when they win).
pub fn one_winner(tl: &ClusterTimeline) -> Result<(), String> {
    let mut wins: BTreeMap<(String, usize), u32> = BTreeMap::new();
    for s in tl.iter().filter(|s| s.outcome == AttemptOutcome::Success) {
        *wins.entry((s.phase, s.task)).or_insert(0) += 1;
    }
    let mut next: BTreeMap<&str, usize> = BTreeMap::new();
    for ((phase, task), w) in &wins {
        if *w != 1 {
            return Err(format!("{phase} task {task} has {w} winning spans"));
        }
        let n = next.entry(phase.as_str()).or_insert(0);
        if *task != *n {
            return Err(format!("{phase} task {n} has no winning span"));
        }
        *n += 1;
    }
    Ok(())
}

/// Per-node result of streaming a run's step function through a meter.
#[derive(Debug, Default)]
pub struct NodeMeters {
    /// Segments each node's meter integrated.
    pub segments: Vec<u64>,
    /// Each node's peak wall power (every core busy, every knob at 1), W.
    pub peak_w: Vec<f64>,
    /// Phases in the run.
    pub phases: usize,
}

impl NodeMeters {
    /// Segments over all nodes.
    pub fn total_segments(&self) -> u64 {
        self.segments.iter().sum()
    }

    /// The bound on |metered − exact| energy of the run, joules.
    ///
    /// `StreamingMeter` documents `(k + 2)·h·w_max` per node for a
    /// `k`-segment trace sampled every `h` = 1 s. The simulator meters
    /// each phase and the others window separately, which can split a
    /// node's step function at each of the `phases + 1` boundaries, so
    /// `k` is taken as this run's steps plus two per boundary.
    pub fn energy_bound_j(&self) -> f64 {
        let splits = 2 * (self.phases as u64 + 1);
        self.segments
            .iter()
            .zip(&self.peak_w)
            .map(|(&k, &w)| (k + splits + 2) as f64 * w)
            .sum()
    }
}

/// Streams each node's active-slot step function, priced by its node
/// power model at `f` under `profile`, through a [`StreamingMeter`].
pub fn meter_nodes(tl: &ClusterTimeline, f: Frequency, profile: &ComputeProfile) -> NodeMeters {
    let [xeon, atom] = presets::both();
    let machine = |kind: &str| -> &MachineModel {
        if kind == xeon.core.kind.to_string() {
            &xeon
        } else {
            &atom
        }
    };
    let end = tl.end_s();
    let mut out = NodeMeters::default();
    for (meta, steps) in tl.nodes.iter().zip(tl.active_steps_all()) {
        let m = machine(&meta.kind);
        let op = m.operating_point(f);
        let cores = m.num_cores;
        let watts = |active: usize| {
            let (a, mem, io) = if active > 0 {
                (profile.activity, 0.5, 0.5)
            } else {
                (0.0, 0.0, 0.0)
            };
            m.power
                .node_power(op, active.min(cores), cores, a, mem, io)
                .total()
        };
        let mut meter = StreamingMeter::new();
        for (i, &(t, active)) in steps.iter().enumerate() {
            let next = steps.get(i + 1).map_or(end, |s| s.0);
            meter.push(next - t, watts(active));
        }
        out.segments.push(meter.finish().segments);
        out.peak_w
            .push(m.power.node_power(op, cores, cores, 1.0, 1.0, 1.0).total());
    }
    let mut phases: Vec<String> = tl.iter().map(|s| s.phase).collect();
    phases.sort();
    phases.dedup();
    out.phases = phases.len();
    out
}

/// Checks `m`'s metered energy against the bound of [`NodeMeters`].
pub fn energy_within_bound(m: &Measurement, meters: &NodeMeters) -> Result<(), String> {
    let gap = (m.energy_j - m.exact_energy_j).abs();
    let bound = meters.energy_bound_j();
    if gap.is_finite() && gap <= bound {
        Ok(())
    } else {
        Err(format!(
            "metered {} J vs exact {} J: gap {gap} J exceeds the bound {bound} J",
            m.energy_j, m.exact_energy_j
        ))
    }
}

/// Winning and total spans of a timeline.
pub fn span_counts(tl: &ClusterTimeline) -> (u64, u64) {
    let useful = tl
        .iter()
        .filter(|s| {
            matches!(
                s.outcome,
                AttemptOutcome::Success | AttemptOutcome::Recovered
            )
        })
        .count();
    (useful as u64, tl.len() as u64)
}
