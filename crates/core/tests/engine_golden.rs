//! Golden digests of fault-free engine runs.
//!
//! Every case of a seeded grid drains one phase with `faults = None` and
//! hashes the result: the span columns, the makespan bits and the
//! `SlotStats`. The grid spans homogeneous and mixed clusters, the three
//! placement policies, loads with and without locality context and
//! per-task extra seconds, and 0–200 tasks. The digests were recorded
//! from the dedicated fault-free engine before it was folded into the
//! attempt-aware one, so they pin that the single engine reproduces it
//! bit for bit. Re-bless only on a deliberate change of simulated output:
//! `BLESS_GOLDEN=1 cargo test -p hhsim-core --test engine_golden`.

use hhsim_core::arch::CoreKind;
use hhsim_core::cluster::{
    run_phase, Cluster, FifoAnySlot, KindPreferring, NodeTiming, PhaseLoad, PhaseLocality,
    PhaseRun, Placement,
};
use hhsim_core::faults::{AttemptOutcome, FaultStats};

const GOLDEN: &str = include_str!("golden/clean_engine_digests.txt");

const TASK_COUNTS: [usize; 5] = [0, 1, 7, 64, 200];

/// SplitMix64 step: the grid's only source of pseudo-randomness.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform draw in `[lo, hi)` keyed by `(seed, tag)`.
fn draw(seed: u64, tag: u64, lo: f64, hi: f64) -> f64 {
    let u = (splitmix(seed ^ splitmix(tag)) >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * u
}

fn clusters() -> Vec<(&'static str, Cluster)> {
    vec![
        ("homo-big-3x2", Cluster::homogeneous(CoreKind::Big, 3, 2)),
        (
            "homo-little-5x1",
            Cluster::homogeneous(CoreKind::Little, 5, 1),
        ),
        ("mixed-1x2+2x2", Cluster::mixed(1, 2, 2, 2)),
        ("mixed-2x4+4x2", Cluster::mixed(2, 4, 4, 2)),
    ]
}

const PLACEMENTS: [&str; 3] = ["fifo", "prefer-big", "prefer-little"];

/// A fresh placement policy by name.
fn placement(name: &str) -> Box<dyn Placement> {
    match name {
        "prefer-big" => Box::new(KindPreferring {
            preferred: CoreKind::Big,
        }),
        "prefer-little" => Box::new(KindPreferring {
            preferred: CoreKind::Little,
        }),
        _ => Box::new(FifoAnySlot),
    }
}

/// The load of one grid case: seeded per-kind timing, plus optional
/// locality context (three replicas per task over two racks) and
/// optional per-task extra seconds (covering only the first half of the
/// tasks, so missing entries count as zero).
fn load(seed: u64, tasks: usize, cluster: &Cluster, locality: bool, extra: bool) -> PhaseLoad {
    let big = NodeTiming {
        task_seconds: draw(seed, 1, 2.0, 8.0),
        overhead_seconds: draw(seed, 2, 0.0, 0.5),
    };
    let little = NodeTiming {
        task_seconds: draw(seed, 3, 5.0, 20.0),
        overhead_seconds: draw(seed, 4, 0.0, 0.9),
    };
    let mut l = PhaseLoad::by_kind(tasks, big, little, cluster);
    let nodes = cluster.nodes.len() as u64;
    if locality {
        l = l.with_locality(PhaseLocality {
            replicas: (0..tasks as u64)
                .map(|t| {
                    (0..3)
                        .map(|r| (splitmix(seed ^ (t << 8) ^ r) % nodes) as usize)
                        .collect()
                })
                .collect(),
            racks: 2,
            read_seconds: [0.0, draw(seed, 5, 0.2, 1.0), draw(seed, 6, 1.0, 3.0)],
        });
    }
    if extra {
        l = l.with_extra_seconds(
            (0..tasks as u64 / 2)
                .map(|t| draw(seed, 100 + t, 0.0, 3.0))
                .collect(),
        );
    }
    l
}

fn run(cluster: &Cluster, load: &PhaseLoad, placement: &mut dyn Placement) -> PhaseRun {
    run_phase(cluster, load, placement, None, None).expect("a fault-free phase drains")
}

/// FNV-1a over the span columns, the makespan bits and `SlotStats`.
fn digest(run: &PhaseRun) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in &run.spans {
        eat(s.task as u64);
        eat(s.node as u64);
        eat(s.slot as u64);
        eat(s.wave as u64);
        eat(s.queued_s.to_bits());
        eat(s.launched_s.to_bits());
        eat(s.finished_s.to_bits());
        eat(u64::from(s.attempt));
        eat(s.tier.idx() as u64);
    }
    eat(run.makespan_s.to_bits());
    let st = &run.slots;
    eat(st.capacity as u64);
    eat(st.peak_in_use as u64);
    eat(st.total_wait_s.to_bits());
    eat(st.tasks_queued);
    eat(st.max_queue_len as u64);
    h
}

/// One line per grid case: name, span count, makespan and digest.
fn render() -> String {
    let mut out = String::new();
    for (ci, (cname, cluster)) in clusters().into_iter().enumerate() {
        for pname in PLACEMENTS {
            for (li, lname) in ["plain", "locality", "extra", "locality+extra"]
                .into_iter()
                .enumerate()
            {
                for tasks in TASK_COUNTS {
                    let seed = splitmix((ci as u64) << 32 | (li as u64) << 16 | tasks as u64);
                    let l = load(seed, tasks, &cluster, li % 2 == 1, li >= 2);
                    let r = run(&cluster, &l, placement(pname).as_mut());
                    assert_eq!(r.spans.len(), tasks, "one span per task");
                    assert!(r
                        .spans
                        .iter()
                        .all(|s| s.attempt == 1 && s.outcome == AttemptOutcome::Success));
                    assert!(r.wasted.is_empty() && r.recovered.is_empty());
                    assert!(r.annotations.is_empty());
                    assert_eq!(r.faults, FaultStats::default());
                    out.push_str(&format!(
                        "{cname} {pname} {lname} {tasks} spans={} makespan={:.6} {:016x}\n",
                        r.spans.len(),
                        r.makespan_s,
                        digest(&r)
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn fault_free_runs_match_recorded_digests() {
    let got = render();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        let path = format!(
            "{}/tests/golden/clean_engine_digests.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::write(path, &got).expect("bless golden");
        return;
    }
    for (want, have) in GOLDEN.lines().zip(got.lines()) {
        assert_eq!(have, want, "fault-free engine output changed");
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "grid size");
}
