//! Criterion benchmarks of the event-driven cluster engine: raw phase
//! scheduling throughput, trace export, and the full mixed-cluster
//! simulation path (engine + per-node utilization-driven power meter).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use hhsim_core::arch::CoreKind;
use hhsim_core::cluster::{
    run_phase, Cluster, ClusterTimeline, FifoAnySlot, KindPreferring, NodeTiming, PhaseLoad,
    PhaseRun, Placement, TaskSet,
};
use hhsim_core::energy::MetricKind;
use hhsim_core::hdfs::BlockSize;
use hhsim_core::workloads::AppId;
use hhsim_core::{simulate_cluster, NodeMix, PlacementKind, SimConfig};

/// One fault-free engine run.
fn drain(cluster: &Cluster, load: &PhaseLoad, placement: &mut dyn Placement) -> PhaseRun {
    run_phase(cluster, load, placement, None, None).expect("fault-free phase drains")
}

fn big_little_timings() -> (NodeTiming, NodeTiming) {
    (
        NodeTiming {
            task_seconds: 4.0,
            overhead_seconds: 0.2,
        },
        NodeTiming {
            task_seconds: 11.0,
            overhead_seconds: 0.2,
        },
    )
}

/// Raw engine throughput: schedule N tasks over a mixed cluster.
fn bench_run_phase(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster/run_phase");
    let cluster = Cluster::mixed(2, 8, 4, 4);
    let (tb, tl) = big_little_timings();
    for tasks in [32usize, 256, 2048] {
        let load = PhaseLoad::by_kind(tasks, tb, tl, &cluster);
        g.throughput(Throughput::Elements(tasks as u64));
        g.bench_function(format!("fifo_any/{tasks}_tasks"), |b| {
            b.iter(|| black_box(drain(&cluster, &load, &mut FifoAnySlot)).makespan_s)
        });
        g.bench_function(format!("kind_aware/{tasks}_tasks"), |b| {
            let mut p = KindPreferring {
                preferred: CoreKind::Little,
            };
            b.iter(|| black_box(drain(&cluster, &load, &mut p)).makespan_s)
        });
    }
    g.finish();
}

/// Trace assembly and export: spans → Chrome JSON + utilization CSV.
fn bench_trace_export(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster/trace");
    let cluster = Cluster::mixed(2, 8, 4, 4);
    let set = TaskSet {
        tasks: 512,
        task_seconds: 6.0,
        overhead_seconds: 0.3,
    };
    let run = drain(
        &cluster,
        &PhaseLoad::uniform(&set, &cluster),
        &mut FifoAnySlot,
    );
    let mut tl = ClusterTimeline::new(&cluster);
    tl.extend("map", 0.0, &run);
    g.throughput(Throughput::Elements(set.tasks as u64));
    let mut buf = Vec::new();
    g.bench_function("chrome_json/512_spans", |b| {
        b.iter(|| {
            buf.clear();
            tl.write_chrome_trace(&mut buf).expect("Vec write");
            black_box(buf.len())
        })
    });
    g.bench_function("utilization_csv/512_spans", |b| {
        b.iter(|| {
            buf.clear();
            tl.write_utilization_csv(&mut buf).expect("Vec write");
            black_box(buf.len())
        })
    });
    g.finish();
}

/// End-to-end mixed-cluster simulation: ratios → timing → engine →
/// per-node power traces → metered energy and costs.
fn bench_simulate_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster/simulate");
    g.sample_size(10);
    for app in [AppId::Sort, AppId::WordCount] {
        let cfg = SimConfig::new(app, hhsim_core::arch::presets::xeon_e5_2420())
            .block_size(BlockSize::MB_256)
            .mix(NodeMix {
                big: 1,
                little: 2,
                placement: PlacementKind::PaperClass(MetricKind::Edp),
            });
        g.bench_function(format!("mixed_1x2a/{}", app.short_name()), |b| {
            b.iter(|| black_box(simulate_cluster(&cfg)).0.cost.edp())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_run_phase,
    bench_trace_export,
    bench_simulate_cluster
);
criterion_main!(benches);
