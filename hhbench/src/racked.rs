//! `racked_shuffle`: a warm sweep of TeraSort over a two-tier rack
//! fabric through `try_simulate_cluster`.
//!
//! 192 nodes (64 Xeon + 128 Atom, `PaperClass(Edp)` placement), 256 MB
//! blocks, `Topology::racked(nodes / 16, o)` for fig. 21's
//! oversubscriptions o ∈ {1, 4, 16}, no faults. Each run prices the
//! reduce shuffle twice through the flow solver, so the solver, HDFS
//! placement and the clean engine's locality path do the work; the
//! cache simulator and fault layer do none. The seed trims the input
//! per node in 16 MiB steps below 1 GiB, which keeps four blocks per
//! node (and so the work) the same while changing every simulated
//! number.

use hhsim_core::arch::presets;
use hhsim_core::energy::MetricKind;
use hhsim_core::faults::PhaseError;
use hhsim_core::hdfs::{
    BlockId, BlockSize, HdfsDefault, NodeId, PlacementRequest, ReplicaPlacement, Topology,
};
use hhsim_core::workloads::AppId;
use hhsim_core::{
    cluster, reduce_fetch_seconds, try_simulate_cluster, ClusterTimeline, Measurement, NodeMix,
    PlacementKind, SimConfig,
};

use crate::digest::{self, Golden};
use crate::trace::Tracer;
use crate::verify::{self, Checks};
use crate::workload::{self, Workload};

const APP: AppId = AppId::TeraSort;
const BIG: usize = 64;
const LITTLE: usize = 128;
const NODES_PER_RACK: usize = 16;
const OVERSUB: [f64; 3] = [1.0, 4.0, 16.0];
/// Seed of the simulator's HDFS-default layout for a topology-active
/// run (`TOPOLOGY_LAYOUT_SEED` in the model), mirrored here so the
/// traced run places the same blocks.
const LAYOUT_SEED: u64 = 0x0048_4446_534C_4159;
/// HDFS replication factor the model lays blocks out with.
const REPLICATION: usize = 3;

type Point = Result<(Measurement, ClusterTimeline), PhaseError>;

/// The racked-shuffle workload.
pub struct Racked {
    data_per_node: u64,
    points: Vec<(String, SimConfig)>,
    golden: Option<Golden>,
    out: Vec<Point>,
    probes: u64,
}

impl Racked {
    /// The sweep for `seed`; digests are checked when `golden` is given.
    pub fn at_seed(seed: u64, golden: Option<Golden>) -> Self {
        Self::with_nodes(seed, golden, BIG, LITTLE)
    }

    /// The sweep on a `big` + `little` node cluster.
    pub fn with_nodes(seed: u64, golden: Option<Golden>, big: usize, little: usize) -> Self {
        let data_per_node = (1u64 << 30) - (seed % 16) * (16 << 20);
        let nodes = big + little;
        let points = OVERSUB
            .iter()
            .map(|&o| {
                let cfg = SimConfig::new(APP, presets::xeon_e5_2420())
                    .data_per_node(data_per_node)
                    .block_size(BlockSize::MB_256)
                    .topology(Topology::racked(nodes.div_ceil(NODES_PER_RACK), o))
                    .mix(NodeMix {
                        big,
                        little,
                        placement: PlacementKind::PaperClass(MetricKind::Edp),
                    });
                (format!("oversub={o}"), cfg)
            })
            .collect();
        Racked {
            data_per_node,
            points,
            golden,
            out: Vec::new(),
            probes: 0,
        }
    }

    /// Mirrors the run's layer calls (HDFS layout, the contended and
    /// flat shuffle solves, per-node metering) under `run`.
    fn mirror(&self, tr: &mut Tracer, run: crate::trace::SpanId, cfg: &SimConfig, point: &Point) {
        let Ok((m, tl)) = point else { return };
        let (Some(topo), Some(mix)) = (cfg.topology, cfg.node_mix) else {
            return;
        };
        let nodes = mix.big + mix.little;
        let n_map: u64 = m.map_locality_tiers.iter().sum();
        tr.mirror(run, "hdfs.place", || {
            let mut policy = HdfsDefault::new(LAYOUT_SEED);
            (0..n_map)
                .map(|t| {
                    let writer = usize::try_from(t).unwrap_or(0) % nodes;
                    let req = PlacementRequest {
                        block: BlockId(t),
                        writer: Some(NodeId(writer)),
                        replication: REPLICATION.min(nodes),
                        num_nodes: nodes,
                    };
                    policy.place(&req, &topo).len()
                })
                .sum::<usize>()
        });
        tr.add_count("hdfs.blocks_placed", n_map as f64);
        let [xeon, atom] = presets::both();
        let reducers = (mix.big * xeon.num_cores + mix.little * atom.num_cores) / 2;
        let bytes = self.data_per_node as f64 * nodes as f64 / reducers as f64;
        let flat = Topology {
            racks: 1,
            oversubscription: 1.0,
            ..topo
        };
        for fabric in [topo, flat] {
            tr.mirror(run, "shuffle.reduce_fetch", || {
                reduce_fetch_seconds(&fabric, nodes, reducers, bytes)
            });
            tr.add_count("shuffle.flows", (reducers * (nodes - 1)) as f64);
        }
        let meters = tr.mirror(run, "energy.meter", || {
            verify::meter_nodes(tl, cfg.frequency, &APP.map_profile())
        });
        tr.add_count("energy.segments", meters.total_segments() as f64);
    }
}

impl Workload for Racked {
    fn setup(&mut self) -> Result<(), String> {
        // The sweep runs on the calling thread; the harness is not used.
        hhsim_core::harness::set_jobs(1);
        hhsim_core::SimCache::global().clear();
        workload::warm(APP);
        Ok(())
    }

    fn pass(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.out.clear();
        cluster::reset_placement_probes();
        for (k, (_, cfg)) in self.points.iter().enumerate() {
            let root = tr.open_point("model.point", k as u32);
            if tr.on() {
                workload::prefill(tr, &[APP]);
            }
            let run = tr.enter_span("cluster.run");
            let point = try_simulate_cluster(cfg);
            tr.exit_span(run);
            if tr.on() {
                self.mirror(tr, run, cfg, &point);
            }
            tr.exit_span(root);
            self.out.push(point);
        }
        self.probes = cluster::placement_probes();
        Ok(())
    }

    fn verify(&mut self, checks: &mut Checks, tr: &mut Tracer) {
        for ((key, cfg), point) in self.points.iter().zip(&self.out) {
            let got = digest::of_measurement(point.as_ref().map(|(m, _)| m));
            if let Some(want) = self.golden.as_ref().map(|g| g.expected(key)) {
                checks.tally(want == Some(got), || {
                    format!("racked {key}: digest {got:016x}, recorded {want:016x?}")
                });
            }
            match point {
                Err(e) => checks.tally(false, || format!("racked {key}: unexpected error {e}")),
                Ok((m, tl)) => {
                    let won = verify::one_winner(tl);
                    checks.tally(won.is_ok(), || format!("racked {key}: {won:?}"));
                    let meters = verify::meter_nodes(tl, cfg.frequency, &APP.map_profile());
                    let energy = verify::energy_within_bound(m, &meters);
                    checks.tally(energy.is_ok(), || format!("racked {key}: {energy:?}"));
                    if tr.on() {
                        let (useful, all) = verify::span_counts(tl);
                        tr.add_count("cluster.attempts", all as f64);
                        tr.add_count("cluster.useful", useful as f64);
                    }
                }
            }
        }
        if tr.on() {
            tr.add_count("cluster.placement_probes", self.probes as f64);
        }
    }

    fn digests(&self) -> Vec<(String, u64)> {
        self.points
            .iter()
            .zip(&self.out)
            .map(|((key, _), p)| {
                (
                    key.clone(),
                    digest::of_measurement(p.as_ref().map(|(m, _)| m)),
                )
            })
            .collect()
    }
}
