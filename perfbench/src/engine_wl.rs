//! `engine-faulted`: the exact message engine under a seeded fault plan.
//!
//! One pass: a fresh `Cluster`, then one `run_program_with_faults` of
//! [`MinLabel`], a message-passing min-label propagation over
//! `RandomTree { n: 5000 }` with φ = 0.5. The plan carries crashes and
//! stragglers (`FaultPlan::random`), message drops and duplicates, and
//! payload corruption, under `RecoveryPolicy::restart`. The tree is a
//! fixed instance so that every seed runs the same round count; the
//! seed draws the fault plan, whose transport coins it also seeds.

use crate::checks;
use crate::trace::Tracer;
use crate::{Bench, Metric, Pass};
use csmpc_graph::rng::Seed;
use csmpc_graph::{CsrAdjacency, StreamFamily};
use csmpc_mpc::{
    Cluster, FaultPlan, MachineProgram, Message, MpcConfig, ParallelismMode, RecoveryPolicy,
    RouteArena, Stats,
};
use std::path::Path;
use std::time::Instant;

const N: usize = 5000;
const TREE_SEED: u64 = 0x5EED_7EE5;
const MAX_ROUNDS: usize = 100_000;
const CRASHES: usize = 3;
const STRAGGLERS: usize = 8;

/// Min-label propagation for one machine: it owns nodes `v` with
/// `v mod M = id` and their adjacency. Round 1 sends every owned label
/// to the neighbors' machines; later rounds lower labels from the inbox
/// and forward only the labels that changed. Each round sends one
/// message per destination machine, each word packing
/// `(target node << 32) | label`.
#[derive(Debug, Clone)]
pub struct MinLabel {
    machines: usize,
    /// Owned node ids, ascending.
    nodes: Vec<u32>,
    /// CSR over the owned nodes: `adj[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    adj: Vec<u32>,
    labels: Vec<u64>,
    started: bool,
    /// Messages sent, replays included.
    sent: u64,
    /// Nanoseconds spent in `round`, when `timed`.
    step_ns: u64,
    timed: bool,
    /// Outgoing messages per round call, when recording.
    recorded: Option<Vec<Vec<Message>>>,
    // Per-round scratch, reused.
    dirty: Vec<bool>,
    sends: Vec<(usize, u64)>,
}

impl MinLabel {
    /// One shard per machine for `csr` on `machines` machines.
    pub fn shards(csr: &CsrAdjacency, machines: usize) -> Vec<MinLabel> {
        (0..machines)
            .map(|id| {
                let nodes: Vec<u32> = (id..csr.n()).step_by(machines).map(|v| v as u32).collect();
                let mut offsets = vec![0u32];
                let mut adj = Vec::new();
                for &v in &nodes {
                    adj.extend_from_slice(csr.neighbors(v as usize));
                    offsets.push(adj.len() as u32);
                }
                MinLabel {
                    machines,
                    labels: nodes.iter().map(|&v| u64::from(v)).collect(),
                    dirty: vec![false; nodes.len()],
                    nodes,
                    offsets,
                    adj,
                    started: false,
                    sent: 0,
                    step_ns: 0,
                    timed: false,
                    recorded: None,
                    sends: Vec::new(),
                }
            })
            .collect()
    }

    fn step(&mut self, inbox: &[Message]) -> Vec<Message> {
        if self.started {
            for msg in inbox {
                for &w in &msg.words {
                    let (target, label) = ((w >> 32) as usize, w & 0xFFFF_FFFF);
                    let local = target / self.machines;
                    if label < self.labels[local] {
                        self.labels[local] = label;
                        self.dirty[local] = true;
                    }
                }
            }
        } else {
            self.started = true;
            self.dirty.fill(true);
        }
        // Destinations are visited in ascending machine order so that a
        // machine's sends are deterministic and stable.
        let sends = &mut self.sends;
        sends.clear();
        for (i, dirty) in self.dirty.iter_mut().enumerate() {
            if !std::mem::take(dirty) {
                continue;
            }
            let label = self.labels[i];
            for &w in &self.adj[self.offsets[i] as usize..self.offsets[i + 1] as usize] {
                sends.push((w as usize % self.machines, (u64::from(w) << 32) | label));
            }
        }
        sends.sort_unstable();
        let mut outs: Vec<Message> = Vec::new();
        for &(to, word) in sends.iter() {
            match outs.last_mut() {
                Some(m) if m.to == to => m.words.push(word),
                _ => outs.push(Message {
                    to,
                    words: vec![word],
                }),
            }
        }
        self.sent += outs.len() as u64;
        outs
    }
}

impl MachineProgram for MinLabel {
    fn round(&mut self, _id: usize, inbox: &[Message]) -> Vec<Message> {
        let t = self.timed.then(Instant::now);
        let outs = self.step(inbox);
        if let Some(t) = t {
            self.step_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        if let Some(rec) = &mut self.recorded {
            rec.push(outs.clone());
        }
        outs
    }

    fn storage_words(&self) -> usize {
        self.nodes.len() + self.offsets.len() + self.adj.len() + self.labels.len()
    }

    fn snapshot(&self) -> Vec<u64> {
        let mut s = Vec::with_capacity(self.labels.len() + 1);
        s.push(u64::from(self.started));
        s.extend_from_slice(&self.labels);
        s
    }

    fn restore(&mut self, snapshot: &[u64]) {
        self.started = snapshot[0] != 0;
        self.labels.copy_from_slice(&snapshot[1..]);
        self.dirty.fill(false);
    }
}

/// Labels by node id from a run's shards.
fn gather(shards: &[MinLabel]) -> Vec<u64> {
    let m = shards.len();
    let n: usize = shards.iter().map(|s| s.nodes.len()).sum();
    (0..n).map(|v| shards[v % m].labels[v / m]).collect()
}

pub struct EngineBench {
    words: usize,
    cluster_seed: Seed,
    template: Vec<MinLabel>,
    plan: FaultPlan,
    policy: RecoveryPolicy,
    oracle: Vec<u64>,
    quiet_labels: Vec<u64>,
}

struct Run {
    ms: f64,
    stats: Stats,
    shards: Vec<MinLabel>,
}

impl EngineBench {
    fn config() -> MpcConfig {
        MpcConfig {
            parallelism: ParallelismMode::Sequential,
            ..MpcConfig::with_phi(0.5)
        }
    }

    /// One timed engine run: fresh cluster, fresh shards (cloned before
    /// the clock starts).
    fn run(&self, plan: &FaultPlan, policy: RecoveryPolicy, timed: bool, record: bool) -> Run {
        let mut shards = self.template.clone();
        for s in &mut shards {
            s.timed = timed;
            s.recorded = record.then(Vec::new);
        }
        let t = Instant::now();
        let mut cl = Cluster::new(Self::config(), N, self.words, self.cluster_seed);
        cl.run_program_with_faults(&mut shards, Vec::new(), MAX_ROUNDS, plan, policy)
            .expect("min-label propagation runs to quiescence");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        Run {
            ms,
            stats: cl.stats().clone(),
            shards,
        }
    }

    fn quiet(&self) -> FaultPlan {
        FaultPlan::quiet(self.cluster_seed)
    }
}

impl Bench for EngineBench {
    const NAME: &'static str = "engine-faulted";
    const TAIL_PCT: f64 = 97.0;
    const MIN_PASSES: usize = 334;
    const WARMUP: usize = 25;
    const TRACE_PAIRS: usize = 12;

    fn mode() -> String {
        "Sequential".to_owned()
    }

    fn prepare(seed: u64, _out: &Path) -> Self {
        let family = StreamFamily::RandomTree {
            n: N,
            seed: Seed(TREE_SEED),
        };
        let csr = family.stream_csr();
        let words = 2 * family.n() + 2 * family.m();
        let machines = EngineBench::config().machines_for(N, words);
        let mut bench = EngineBench {
            template: MinLabel::shards(&csr, machines),
            oracle: checks::component_minima(&csr),
            words,
            cluster_seed: Seed(seed),
            plan: FaultPlan::quiet(Seed(seed)),
            policy: RecoveryPolicy::restart(CRASHES + 2),
            quiet_labels: Vec::new(),
        };
        let quiet = bench.run(&bench.quiet(), RecoveryPolicy::FailFast, false, false);
        bench.quiet_labels = gather(&quiet.shards);
        // Events land in the first three quarters of the quiet run, so
        // every crash fires and forces a recovery.
        let horizon = quiet.stats.rounds * 3 / 4;
        bench.plan = FaultPlan::random(Seed(seed), machines, horizon, CRASHES, STRAGGLERS)
            .with_message_faults(20, 20)
            .with_corruption(10);
        bench
    }

    fn pass(&mut self, tr: &mut Tracer, id: u64) -> Pass {
        let o = tr.begin("pass", Self::NAME, id);
        let run = tr.span("cluster", "run_program_with_faults", id, || {
            self.run(&self.plan, self.policy, false, false)
        });
        let _ = tr.end(o);
        let labels = gather(&run.shards);
        let s = &run.stats;
        Pass {
            ms: run.ms,
            check: checks::engine(&labels, &self.oracle, &self.quiet_labels, s.recovery_rounds),
            counts: vec![
                ("rounds", s.rounds as u64),
                ("total_words", s.total_words),
                ("messages", run.shards.iter().map(|p| p.sent).sum()),
                ("recovery_rounds", s.recovery_rounds as u64),
                ("recovery_words", s.recovery_words),
                ("corrupted_detected", s.corrupted_detected),
            ],
            service: None,
        }
    }

    fn layers(&mut self, tr: &mut Tracer, first: &[(&'static str, u64)]) -> Vec<Metric> {
        let count = |name| crate::count(first, name);
        let run_ms = crate::stats::median(&tr.durations_ms("cluster", "run_program_with_faults"));
        // Program step time: the faulted run with `round` timed.
        let mut steps = Vec::new();
        let (mut quiet_ff, mut quiet_rs, mut faulted) = (Vec::new(), Vec::new(), Vec::new());
        let quiet = self.quiet();
        for rep in 0..5u64 {
            let r = tr.span("cluster", "timed_step_run", 3000 + rep, || {
                self.run(&self.plan, self.policy, true, false)
            });
            steps.push(r.shards.iter().map(|p| p.step_ns).sum::<u64>() as f64 / 1e6);
            let r = tr.span("cluster", "quiet_failfast", 3000 + rep, || {
                self.run(&quiet, RecoveryPolicy::FailFast, false, false)
            });
            quiet_ff.push(r.ms);
            let r = tr.span("cluster", "quiet_restart", 3000 + rep, || {
                self.run(&quiet, self.policy, false, false)
            });
            quiet_rs.push(r.ms);
            let r = tr.span("faults", "faulted_restart", 3000 + rep, || {
                self.run(&self.plan, self.policy, false, false)
            });
            faulted.push(r.ms);
        }
        let med = crate::stats::median;
        let step_ms = med(&steps);
        // Route: replay the quiet run's rounds through a fresh arena.
        let recorded = self.run(&quiet, RecoveryPolicy::FailFast, false, true);
        let rounds: Vec<Vec<Message>> = {
            let per_machine: Vec<&Vec<Vec<Message>>> = recorded
                .shards
                .iter()
                .map(|s| s.recorded.as_ref().expect("recorded run"))
                .collect();
            let calls = per_machine.iter().map(|r| r.len()).max().unwrap_or(0);
            (0..calls)
                .map(|r| {
                    per_machine
                        .iter()
                        .filter_map(|m| m.get(r))
                        .flat_map(|outs| outs.iter().cloned())
                        .collect()
                })
                .collect()
        };
        let mut scatter_us = Vec::new();
        for rep in 0..5u64 {
            let mut arena = RouteArena::new(self.template.len());
            let mut total = 0.0;
            for round in &rounds {
                let mut incoming = round.clone();
                let o = tr.begin("route", "scatter", 4000 + rep);
                arena.scatter(&mut incoming);
                total += tr.end(o) * 1e3;
            }
            scatter_us.push(total);
        }
        let rounds_n = count("rounds");
        vec![
            Metric::new("cluster.run_ms", run_ms, "ms"),
            Metric::new("cluster.program_step_ms", step_ms, "ms"),
            Metric::new("cluster.self_ms", run_ms - step_ms, "ms"),
            Metric::new(
                "cluster.checkpoint_overhead_ms",
                med(&quiet_rs) - med(&quiet_ff),
                "ms",
            ),
            Metric::new(
                "faults.recovery_overhead_ms",
                med(&faulted) - med(&quiet_rs),
                "ms",
            ),
            Metric::new("route.scatter_us", med(&scatter_us), "us"),
            Metric::new("cluster.rounds", rounds_n, "count"),
            Metric::new("cluster.messages", count("messages"), "count"),
            Metric::new("cluster.total_words", count("total_words"), "count"),
            Metric::new("cluster.recovery_rounds", count("recovery_rounds"), "count"),
            Metric::new("cluster.recovery_words", count("recovery_words"), "count"),
            Metric::new(
                "cluster.corrupted_detected",
                count("corrupted_detected"),
                "count",
            ),
            Metric::new(
                "cluster.useful_round_ratio",
                (rounds_n - count("recovery_rounds")) / rounds_n,
                "ratio",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_label_matches_union_find_on_a_small_forest() {
        let csr = StreamFamily::TwoCycles { n: 40 }.stream_csr();
        let cfg = EngineBench::config();
        let machines = cfg.machines_for(40, 160);
        let mut shards = MinLabel::shards(&csr, machines);
        let mut cl = Cluster::new(cfg, 40, 160, Seed(1));
        let plan = FaultPlan::quiet(Seed(1))
            .crash(1, 2)
            .with_message_faults(100, 100);
        cl.run_program_with_faults(
            &mut shards,
            Vec::new(),
            1000,
            &plan,
            RecoveryPolicy::restart(4),
        )
        .expect("runs");
        assert_eq!(gather(&shards), checks::component_minima(&csr));
        assert!(cl.stats().recovery_rounds > 0);
    }
}
