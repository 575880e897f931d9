//! The one fault driver, seen from both layers that call it.
//!
//! The exact engine (`run_program_with_driver`) and the accounted layer
//! (`arm_faults` + `advance_rounds`) share `FaultDriver` (which events are
//! due, the retry budget) and the `Cluster` methods for straggler
//! speculation and crash batches. Four differences between the layers
//! are kept on purpose (DESIGN §5e); each is pinned by one test here, and
//! the property test checks that on plans where the layers must agree —
//! at most one crash per round, no partitions — they fire the same events
//! in the same order and spend the same retries.

use csmpc_graph::rng::Seed;
use csmpc_mpc::{
    Cluster, FaultDriver, FaultKind, FaultPlan, MachineProgram, Message, MpcConfig, MpcError,
    RecoveryPolicy, SupervisionEvent, SupervisorConfig,
};
use proptest::prelude::*;

/// Words in every [`Chatter`] snapshot: the engine's speculation re-ships
/// exactly this many.
const SNAPSHOT_WORDS: usize = 5;

/// Every machine sends one word to its successor each round until `left`
/// runs out, summing what it receives. Snapshots are padded to
/// [`SNAPSHOT_WORDS`] words.
struct Chatter {
    machines: usize,
    left: usize,
    acc: u64,
}

impl MachineProgram for Chatter {
    fn round(&mut self, id: usize, inbox: &[Message]) -> Vec<Message> {
        self.acc += inbox.iter().flat_map(|m| &m.words).sum::<u64>();
        if self.left == 0 {
            return Vec::new();
        }
        self.left -= 1;
        vec![Message {
            to: (id + 1) % self.machines,
            words: vec![id as u64 + 1],
        }]
    }

    fn storage_words(&self) -> usize {
        2
    }

    fn snapshot(&self) -> Vec<u64> {
        let mut snap = vec![0; SNAPSHOT_WORDS];
        snap[0] = self.left as u64;
        snap[1] = self.acc;
        snap
    }

    fn restore(&mut self, snapshot: &[u64]) {
        self.left = snapshot[0] as usize;
        self.acc = snapshot[1];
    }
}

fn cluster() -> Cluster {
    Cluster::new(MpcConfig::with_phi(0.5), 100, 100, Seed(0))
}

/// Runs [`Chatter`] for `rounds` sending rounds on the exact engine under
/// `plan`, returning the cluster, the driver, and the run's result.
fn engine(
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    supervisor: Option<SupervisorConfig>,
    rounds: usize,
) -> (Cluster, FaultDriver, Result<(), MpcError>) {
    let mut cl = cluster();
    if let Some(sup) = supervisor {
        cl.supervise(sup);
    }
    let m = cl.num_machines();
    let mut machines: Vec<Chatter> = (0..m)
        .map(|_| Chatter {
            machines: m,
            left: rounds,
            acc: 0,
        })
        .collect();
    let mut driver = FaultDriver::new(plan.clone(), policy);
    let result = cl.run_program_with_driver(&mut machines, Vec::new(), 50 * rounds, &mut driver);
    (cl, driver, result)
}

/// Advances the accounted layer `rounds` barriers under `plan`.
fn accounted(
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    supervisor: Option<SupervisorConfig>,
    rounds: usize,
) -> (Cluster, Result<(), MpcError>) {
    let mut cl = cluster();
    if let Some(sup) = supervisor {
        cl.supervise(sup);
    }
    cl.arm_faults(plan.clone(), policy);
    let result = cl.advance_rounds(rounds);
    (cl, result)
}

/// `(machine, retry)` of every backoff, in order.
fn backoffs(cl: &Cluster) -> Vec<(usize, usize)> {
    cl.supervision_log()
        .iter()
        .filter_map(|ev| match *ev {
            SupervisionEvent::Backoff { machine, retry, .. } => Some((machine, retry)),
            _ => None,
        })
        .collect()
}

/// `(machine, stall avoided)` of every speculation, in order.
fn speculations(cl: &Cluster) -> Vec<(usize, usize)> {
    cl.supervision_log()
        .iter()
        .filter_map(|ev| match *ev {
            SupervisionEvent::Speculation {
                machine,
                stall_avoided,
                ..
            } => Some((machine, stall_avoided)),
            _ => None,
        })
        .collect()
}

fn speculation(cl: &Cluster) -> (usize, usize, usize) {
    match cl.supervision_log() {
        [SupervisionEvent::Speculation {
            round,
            stall_avoided,
            reshipped_words,
            ..
        }] => (*round, *stall_avoided, *reshipped_words),
        other => panic!("expected one speculation, got {other:?}"),
    }
}

#[test]
fn speculation_reships_snapshot_words_on_the_engine_and_storage_on_the_accounted_layer() {
    let plan = FaultPlan::quiet(Seed(1)).straggle(0, 2, 5);
    let sup = SupervisorConfig {
        deadline_rounds: 1,
        failure_threshold: 8,
    };
    let (eng, driver, result) = engine(&plan, RecoveryPolicy::restart(2), Some(sup), 6);
    result.unwrap();
    assert_eq!(driver.fired(), plan.events());
    // The engine re-ships the straggler's own snapshot, stamped with the
    // exec round.
    assert_eq!(speculation(&eng), (2, 4, SNAPSHOT_WORDS));

    let mut acc = cluster();
    let storage = acc.local_space();
    acc.charge_storage(3, storage).unwrap();
    acc.supervise(sup);
    acc.arm_faults(plan.clone(), RecoveryPolicy::restart(2));
    acc.advance_rounds(3).unwrap();
    assert_eq!(acc.fault_driver().unwrap().fired(), plan.events());
    // The accounted layer holds no snapshot: it re-ships the storage
    // high-water mark, stamped with the ledger round.
    assert_ne!(storage, SNAPSHOT_WORDS);
    assert_eq!(speculation(&acc), (2, 4, storage));
}

#[test]
fn engine_books_crashes_per_round_batch_and_the_accounted_layer_per_event() {
    // Two crashes in one round under backoff.
    let plan = FaultPlan::quiet(Seed(2)).crash(0, 2).crash(1, 2);
    let policy = RecoveryPolicy::restart_with_backoff(4, 2);
    let (eng, driver, result) = engine(&plan, policy, None, 6);
    result.unwrap();
    assert_eq!(driver.retries_used(), 2);
    assert_eq!(eng.recovery_log().len(), 2);
    // One batch: both retries spent together, one backoff keyed to the
    // batch's retry count.
    assert_eq!(backoffs(&eng), vec![(0, 2)]);

    let (acc, result) = accounted(&plan, policy, None, 4);
    result.unwrap();
    assert_eq!(acc.fault_driver().unwrap().retries_used(), 2);
    assert_eq!(acc.recovery_log().len(), 2);
    // One event at a time: a backoff per retry.
    assert_eq!(backoffs(&acc), vec![(0, 1), (1, 2)]);
}

#[test]
fn only_the_engine_fails_a_batch_on_lost_quorum_or_fail_fast() {
    // A majority of machines down in one round: beyond any budget on the
    // engine, one recovery per event on the accounted layer.
    let m = cluster().num_machines();
    let mut plan = FaultPlan::quiet(Seed(3));
    for machine in 0..(m / 2 + 1) {
        plan = plan.crash(machine, 1);
    }
    let (_, _, result) = engine(&plan, RecoveryPolicy::restart(99), None, 4);
    assert!(matches!(
        result,
        Err(MpcError::MachineFailed { machine: 0, .. })
    ));
    let (acc, result) = accounted(&plan, RecoveryPolicy::restart(99), None, 2);
    result.unwrap();
    assert_eq!(acc.recovery_log().len(), m / 2 + 1);

    // Fail-fast with a threshold-0 supervisor: the engine fails the batch
    // before the supervisor sees it; the accounted layer quarantines.
    let plan = FaultPlan::quiet(Seed(3)).crash(1, 2);
    let sup = Some(SupervisorConfig {
        deadline_rounds: 2,
        failure_threshold: 0,
    });
    let (eng, _, result) = engine(&plan, RecoveryPolicy::FailFast, sup, 4);
    assert!(matches!(
        result,
        Err(MpcError::MachineFailed { machine: 1, .. })
    ));
    assert!(eng.quarantined_machines().is_empty());
    let (acc, result) = accounted(&plan, RecoveryPolicy::FailFast, sup, 3);
    result.unwrap();
    assert!(acc.quarantined_machines().contains(&1));
}

#[test]
fn partitions_hold_engine_messages_but_stall_the_accounted_ledger() {
    let quiet = FaultPlan::quiet(Seed(4));
    let plan = FaultPlan::quiet(Seed(4)).partition(1, 2, vec![0]);
    let (quiet_eng, _, result) = engine(&quiet, RecoveryPolicy::restart(2), None, 4);
    result.unwrap();
    let (eng, _, result) = engine(&plan, RecoveryPolicy::restart(2), None, 4);
    result.unwrap();
    // The engine delivers the held traffic at the heal, charged again.
    assert!(eng.stats().total_words > quiet_eng.stats().total_words);

    let (acc, result) = accounted(&plan, RecoveryPolicy::restart(2), None, 3);
    result.unwrap();
    // The accounted layer moves no words: the barrier waits out the
    // window, once.
    assert_eq!(acc.stats().rounds, 3 + 2);
    assert_eq!(acc.stats().total_words, 0);
}

#[test]
fn a_round_zero_event_fires_at_each_layers_first_barrier() {
    let plan = FaultPlan::quiet(Seed(5)).crash(1, 0);
    let (eng, driver, result) = engine(&plan, RecoveryPolicy::restart(2), None, 4);
    result.unwrap();
    assert_eq!(driver.fired(), plan.events());
    // Exec round 1, restored from the round-0 checkpoint.
    let ev = eng.recovery_log()[0];
    assert_eq!(
        (
            ev.machine,
            ev.crash_round,
            ev.checkpoint_round,
            ev.replayed_rounds
        ),
        (1, 1, 0, 0)
    );

    let (acc, result) = accounted(&plan, RecoveryPolicy::restart(2), None, 1);
    result.unwrap();
    // Ledger round 1.
    assert_eq!(acc.recovery_log()[0].crash_round, 1);
}

/// `FaultPlan::random`, thinned to at most one crash per round.
fn one_crash_per_round(seed: u64, machines: usize, horizon: usize, crashes: usize) -> FaultPlan {
    let random = FaultPlan::random(Seed(seed), machines, horizon, crashes, crashes + 2);
    let mut plan = FaultPlan::quiet(Seed(seed));
    let mut crash_rounds = Vec::new();
    for ev in random.events() {
        match ev.kind {
            FaultKind::Crash if !crash_rounds.contains(&ev.round) => {
                crash_rounds.push(ev.round);
                plan = plan.crash(ev.machine, ev.round);
            }
            FaultKind::Crash => {}
            FaultKind::Straggle { rounds } => plan = plan.straggle(ev.machine, ev.round, rounds),
        }
    }
    plan
}

fn crash_order(cl: &Cluster) -> Vec<usize> {
    cl.recovery_log().iter().map(|ev| ev.machine).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn both_layers_fire_the_same_events_and_spend_the_same_retries(
        seed in 0u64..100_000,
        crashes in 0usize..6,
        supervised in 0u8..2,
        backoff in 0u8..2,
    ) {
        let horizon = 8;
        let machines = cluster().num_machines();
        prop_assert!(machines >= 2, "one crash must never be a lost quorum");
        let plan = one_crash_per_round(seed, machines, horizon, crashes);
        let policy = if backoff == 1 {
            RecoveryPolicy::restart_with_backoff(16, 1)
        } else {
            RecoveryPolicy::restart(16)
        };
        // Speculation, but no quarantine: a crash and a speculated
        // straggler on one machine in one round reach the threshold in a
        // different order on each layer (the engine books the round's
        // crashes after its stragglers).
        let sup = (supervised == 1).then_some(SupervisorConfig {
            deadline_rounds: 1,
            failure_threshold: usize::MAX,
        });

        let (eng, driver, result) = engine(&plan, policy, sup, horizon + 2);
        prop_assert!(result.is_ok(), "engine: {:?}", result);
        let (acc, result) = accounted(&plan, policy, sup, horizon);
        prop_assert!(result.is_ok(), "accounted: {:?}", result);
        let acc_driver = acc.fault_driver().unwrap();

        // Every event fired, in plan order, on both layers, and each layer
        // acted on the same events in the same order.
        prop_assert_eq!(driver.fired(), plan.events());
        prop_assert_eq!(acc_driver.fired(), plan.events());
        prop_assert_eq!(driver.retries_used(), acc_driver.retries_used());
        prop_assert_eq!(eng.recovery_log().len(), driver.retries_used());
        prop_assert_eq!(crash_order(&eng), crash_order(&acc));
        // Each kind keeps its order; across kinds the engine books a
        // round's crashes after its stragglers.
        prop_assert_eq!(speculations(&eng), speculations(&acc));
        prop_assert_eq!(backoffs(&eng), backoffs(&acc));
        prop_assert_eq!(eng.faulted_machines(), acc.faulted_machines());
    }
}
