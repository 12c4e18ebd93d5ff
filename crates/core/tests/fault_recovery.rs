//! Property tests for the fault-aware cluster engine's recovery
//! invariants, over a seeded grid of random fault plans.
//!
//! Whatever the failure rate, straggler mix, crash schedule or policy,
//! a finished phase must satisfy Hadoop's contract: every task completes
//! exactly once, every non-winning attempt is accounted as waste inside
//! the makespan, speculative races have exactly one winner, and a phase
//! that cannot finish reports a clean error instead of wedging.

use hhsim_core::arch::CoreKind;
use hhsim_core::cluster::{run_phase, Cluster, FifoAnySlot, KindPreferring, NodeTiming, PhaseLoad};
use hhsim_core::faults::{
    AttemptOutcome, FaultConfig, FaultPlan, NodeFaults, PhaseError, PhaseFaults, RecoveryPolicy,
};
use hhsim_testkit::{check, Gen};

struct Scenario {
    cluster: Cluster,
    load: PhaseLoad,
    faults: PhaseFaults,
    tasks: usize,
}

/// A random small cluster, workload and fault plan. Rates go up to 50%
/// and crashes can kill all but one node, so the grid covers heavy
/// recovery pressure, not just the happy path.
fn scenario(g: &mut Gen) -> Scenario {
    let big = g.usize(0..3);
    let little = g.usize(if big == 0 { 1..3 } else { 0..3 });
    let slots = g.usize(1..3);
    let cluster = Cluster::mixed(big, slots, little, slots);
    let nodes = big + little;
    let tasks = g.usize(1..24);
    let load = PhaseLoad::by_kind(
        tasks,
        NodeTiming {
            task_seconds: 4.0 + g.f64() * 8.0,
            overhead_seconds: 0.25,
        },
        NodeTiming {
            task_seconds: 9.0 + g.f64() * 12.0,
            overhead_seconds: 0.25,
        },
        &cluster,
    );
    let mut policy = RecoveryPolicy::hadoop();
    policy.speculation = g.bool(0.5);
    policy.blacklist_after = *g.pick(&[0, 1, 3]);
    let seed = g.u64(0..u64::MAX);
    let rate = if g.bool(0.3) { 0.0 } else { g.f64() * 0.5 };
    let cfg = FaultConfig::none()
        .seed(seed)
        .failure_rates(rate, rate)
        .stragglers(if g.bool(0.5) { 0.4 } else { 0.0 }, 1.0 + g.f64() * 3.0)
        .recovery(policy);
    let mut faults = NodeFaults::sample(&cfg, nodes).phase(&cfg, 0, rate, 0.0);
    // NodeFaults::sample only crashes nodes under an MTTF; inject direct
    // mid-run crash times on a random subset instead, keeping >= 1 node.
    for n in 0..nodes.saturating_sub(1) {
        if g.bool(0.25) {
            faults.crash_at_s[n] = Some(g.f64() * 60.0);
        }
    }
    Scenario {
        cluster,
        load,
        faults,
        tasks,
    }
}

#[test]
fn recovery_invariants_hold_over_random_fault_plans() {
    check(192, |g| {
        let s = scenario(g);
        let kind_first = g.bool(0.5);
        let run = |faults: &PhaseFaults| {
            if kind_first {
                run_phase(
                    &s.cluster,
                    &s.load,
                    &mut KindPreferring {
                        preferred: CoreKind::Little,
                    },
                    Some(faults),
                    None,
                )
            } else {
                run_phase(&s.cluster, &s.load, &mut FifoAnySlot, Some(faults), None)
            }
        };
        let result = run(&s.faults);
        // Same plan, same bytes: the engine has no hidden state.
        assert_eq!(result, run(&s.faults), "engine must be deterministic");

        match result {
            Ok(run) => {
                // Every task completes exactly once, in task order.
                assert_eq!(run.spans.len(), s.tasks, "one winner span per task");
                for (i, span) in run.spans.iter().enumerate() {
                    assert_eq!(span.task, i);
                    assert_eq!(span.outcome, AttemptOutcome::Success);
                    assert!(span.finished_s <= run.makespan_s + 1e-9);
                }
                // Losing attempts never claim success and never outlive
                // the phase (cancelled rivals die at the winner's finish;
                // failed/killed attempts re-run and finish later).
                let mut wasted_s = 0.0;
                for w in &run.wasted {
                    assert_ne!(w.outcome, AttemptOutcome::Success);
                    assert!(w.task < s.tasks);
                    assert!(w.finished_s <= run.makespan_s + 1e-9);
                    wasted_s += w.finished_s - w.launched_s;
                }
                assert!(
                    (run.faults.wasted_slot_s - wasted_s).abs() < 1e-6,
                    "wasted slot-seconds must equal the wasted spans"
                );
                // Speculative races: one winner, every loser cancelled.
                assert!(run.faults.speculative_wins <= run.faults.speculative_launched);
                let cancelled = run
                    .wasted
                    .iter()
                    .filter(|w| w.outcome == AttemptOutcome::Cancelled)
                    .count() as u64;
                assert_eq!(run.faults.cancelled_attempts, cancelled);
                // Every failed attempt was eventually re-run to success:
                // its task has a winner span (asserted above), and attempt
                // numbers never repeat per task.
                for t in 0..s.tasks {
                    let mut attempts: Vec<u32> = run
                        .wasted
                        .iter()
                        .filter(|w| w.task == t)
                        .map(|w| w.attempt)
                        .chain(std::iter::once(run.spans[t].attempt))
                        .collect();
                    attempts.sort_unstable();
                    let n = attempts.len();
                    attempts.dedup();
                    assert_eq!(attempts.len(), n, "task {t}: attempt ids unique");
                }
            }
            Err(PhaseError::AttemptsExhausted { task, attempts }) => {
                assert!(task < s.tasks);
                assert_eq!(attempts, s.faults.policy.max_attempts);
            }
            Err(PhaseError::NoUsableSlots { pending }) => {
                assert!(pending > 0 && pending <= s.tasks);
            }
            Err(PhaseError::DataLost { .. }) => {
                unreachable!("no fetch plan: data loss cannot be detected")
            }
        }
    });
}

/// With `blacklist_after = 1` and no crashes, the first node to fail an
/// attempt is blacklisted on the spot (another node is always usable),
/// so no later attempt may launch there.
#[test]
fn blacklisted_nodes_receive_no_new_attempts() {
    check(96, |g| {
        let cluster = Cluster::mixed(g.usize(1..3), 1, g.usize(1..3), 1);
        let nodes = cluster.nodes.len();
        let tasks = g.usize(4..20);
        let load = PhaseLoad::by_kind(
            tasks,
            NodeTiming {
                task_seconds: 6.0,
                overhead_seconds: 0.25,
            },
            NodeTiming {
                task_seconds: 13.0,
                overhead_seconds: 0.25,
            },
            &cluster,
        );
        let mut policy = RecoveryPolicy::hadoop();
        policy.blacklist_after = 1;
        let rate = 0.2 + g.f64() * 0.3;
        let faults = PhaseFaults {
            plan: FaultPlan::new(g.u64(0..u64::MAX), 0, rate),
            crash_at_s: vec![None; nodes],
            dead_at_start: vec![false; nodes],
            slowdown: vec![1.0; nodes],
            policy,
            domains: hhsim_faults::PhaseDomains::default(),
        };
        let Ok(run) = run_phase(&cluster, &load, &mut FifoAnySlot, Some(&faults), None) else {
            // Attempts exhausted under a hot failure rate: fine, covered
            // by the invariant suite above.
            return;
        };
        let first_failure = run
            .wasted
            .iter()
            .filter(|w| w.outcome == AttemptOutcome::Failed)
            .min_by(|a, b| a.finished_s.total_cmp(&b.finished_s));
        let Some(first) = first_failure else { return };
        assert!(run.faults.blacklisted_nodes >= 1);
        for span in run.spans.iter().chain(&run.wasted) {
            assert!(
                span.node != first.node || span.launched_s <= first.finished_s + 1e-9,
                "node {} blacklisted at {:.2}s but launched task {} at {:.2}s",
                first.node,
                first.finished_s,
                span.task,
                span.launched_s
            );
        }
    });
}
