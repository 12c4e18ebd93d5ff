//! FNV-1a digests of simulated outputs and the golden files that hold
//! them.
//!
//! A digest covers every simulated number a point reports (phase
//! breakdown, metered and exact energy, cost, fault counters, locality
//! tiers, failures), hashed through the exact `f64` bit patterns, so any
//! change to a simulated output changes the digest.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use hhsim_core::energy::CostMetrics;
use hhsim_core::faults::{FaultStats, PhaseError};
use hhsim_core::harness::{Aggregate, ReplicationSummary};
use hhsim_core::Measurement;

/// Streaming FNV-1a (64-bit).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A hasher at the FNV-1a offset basis.
    pub fn basis() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes.
    pub fn fold_bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Folds an integer.
    pub fn fold_u64(&mut self, v: u64) -> &mut Self {
        self.fold_bytes(&v.to_le_bytes())
    }

    /// Folds a float by its bit pattern.
    pub fn fold_f64(&mut self, v: f64) -> &mut Self {
        self.fold_u64(v.to_bits())
    }

    /// The digest.
    pub fn hash64(&self) -> u64 {
        self.0
    }
}

fn fold_cost(h: &mut Fnv, c: &CostMetrics) {
    h.fold_f64(c.energy_j)
        .fold_f64(c.delay_s)
        .fold_f64(c.area_mm2);
}

fn fold_faults(h: &mut Fnv, f: &FaultStats) {
    for v in [
        f.failed_attempts,
        f.killed_attempts,
        f.speculative_launched,
        f.speculative_wins,
        f.cancelled_attempts,
        f.node_crashes,
        f.blacklisted_nodes,
        f.rack_crashes,
        f.racks_blacklisted,
        f.fetch_failures,
        f.reexecuted_maps,
        f.link_degraded_attempts,
    ] {
        h.fold_u64(v);
    }
    h.fold_f64(f.wasted_slot_s);
}

fn fold_aggregate(h: &mut Fnv, a: &Aggregate) {
    h.fold_u64(a.n)
        .fold_f64(a.mean)
        .fold_f64(a.min)
        .fold_f64(a.max)
        .fold_f64(a.ci95);
}

/// Digest of one point's measurement, or of its simulated failure.
pub fn of_measurement(r: Result<&Measurement, &PhaseError>) -> u64 {
    let mut h = Fnv::basis();
    match r {
        Err(e) => {
            h.fold_u64(1).fold_bytes(e.to_string().as_bytes());
        }
        Ok(m) => {
            h.fold_u64(0).fold_bytes(m.machine_name.as_bytes());
            let b = &m.breakdown;
            h.fold_f64(b.map_s)
                .fold_f64(b.reduce_s)
                .fold_f64(b.others_s);
            h.fold_f64(m.energy_j).fold_f64(m.exact_energy_j);
            fold_cost(&mut h, &m.cost);
            fold_cost(&mut h, &m.map_cost);
            fold_cost(&mut h, &m.reduce_cost);
            fold_faults(&mut h, &m.faults);
            for t in m.map_locality_tiers {
                h.fold_u64(t);
            }
        }
    }
    h.hash64()
}

/// Digest of a replication plan's reduction.
pub fn of_summary(s: &ReplicationSummary) -> u64 {
    let mut h = Fnv::basis();
    h.fold_u64(s.replications).fold_u64(s.failed_runs);
    for a in [&s.makespan_s, &s.energy_j, &s.exact_energy_j, &s.edp] {
        fold_aggregate(&mut h, a);
    }
    fold_faults(&mut h, &s.faults);
    h.hash64()
}

/// Digest of exported bytes.
pub fn of_bytes(b: &[u8]) -> u64 {
    Fnv::basis().fold_bytes(b).hash64()
}

/// Recorded digests of one workload at its default seed: `key digest`
/// lines, in the order the workload produces them.
pub struct Golden {
    path: PathBuf,
    want: BTreeMap<String, u64>,
}

impl Golden {
    /// Loads `golden/<workload>.txt` next to the benchmark's manifest.
    /// A missing file loads as empty (every lookup then misses).
    pub fn load_dir(dir: &Path, workload: &str) -> Result<Self, String> {
        let path = dir.join(format!("{workload}.txt"));
        let mut want = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text
                .lines()
                .filter(|l| !l.starts_with('#') && !l.is_empty())
            {
                let (k, v) = line
                    .rsplit_once(' ')
                    .ok_or_else(|| format!("{}: bad line `{line}`", path.display()))?;
                let v = u64::from_str_radix(v, 16)
                    .map_err(|e| format!("{}: bad digest `{v}`: {e}", path.display()))?;
                want.insert(k.to_string(), v);
            }
        }
        Ok(Golden { path, want })
    }

    /// The recorded digest for `key`.
    pub fn expected(&self, key: &str) -> Option<u64> {
        self.want.get(key).copied()
    }

    /// Overwrites the file with `got`.
    pub fn record(&self, got: &[(String, u64)]) -> Result<(), String> {
        let mut text =
            String::from("# FNV-1a digests at the default seed; regenerate with --record.\n");
        for (k, v) in got {
            text.push_str(&format!("{k} {v:016x}\n"));
        }
        std::fs::write(&self.path, text).map_err(|e| format!("{}: {e}", self.path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of "a" from the reference test suite.
        assert_eq!(of_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn float_bits_matter() {
        let a = Fnv::basis().fold_f64(0.0).hash64();
        let b = Fnv::basis().fold_f64(-0.0).hash64();
        assert_ne!(a, b);
    }
}
