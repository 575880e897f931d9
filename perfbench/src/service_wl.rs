//! `service-backlog` and `service-heavy`: the job service, used two ways.
//!
//! * backlog — one pass is a fresh journaled `JobService`, B = 3000 tiny
//!   jobs from the soak recipe (5 graph shapes, 3 algorithms, 4 skewed
//!   tenants, ~20 % faulted, ~2 % deadline poison, ~25 % low priority),
//!   then `run`, then `JobService::recover` from the pass's journal. The
//!   deep queue exercises the scheduler's dispatch scan.
//! * heavy — one pass is a fresh in-memory `JobService` with 40 jobs on
//!   40 distinct graphs of n = 1000–2500, more than `GraphStore` (32) and
//!   the CSR cache (16) hold, ~20 % faulted, then `run`. Job execution
//!   dominates and the program's caches miss.
//!
//! Both run `workers = nproc` with every job `Sequential` inside.

use crate::checks;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Bench, Metric, Pass, ServicePass};
use csmpc_graph::rng::{Seed, SplitMix64};
use csmpc_mpc::{Cluster, MpcConfig, ParallelismMode};
use csmpc_service::{
    graph_store, run_job, FaultSpec, GraphSpec, GraphStore, JobService, JobSpec, JobState, Journal,
    Priority, ServiceConfig, ServiceReport, Workload,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

const BACKLOG_JOBS: usize = 3000;
const HEAVY_JOBS: usize = 40;

/// The soak recipe, seeded: a handful of tiny graph shapes shared by
/// many jobs, three workloads, four tenants with skewed volume, ~20 %
/// fault plans, ~2 % deadline poison, ~25 % low priority.
fn backlog_batch(seed: u64, jobs: usize) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(Seed(seed ^ 0x50AB_2026));
    let tenants = ["acme", "globex", "initech", "umbrella"];
    (0..jobs as u64)
        .map(|i| {
            let graph = match rng.range(0, 5) {
                0 => GraphSpec::Cycle { n: 24 },
                1 => GraphSpec::Cycle { n: 48 },
                2 => GraphSpec::TwoCycles { n: 32 },
                3 => GraphSpec::Path { n: 40 },
                _ => GraphSpec::RandomTree {
                    n: 36,
                    seed: rng.range(0, 4),
                },
            };
            let workload = match rng.range(0, 3) {
                0 => Workload::LubyMis,
                1 => Workload::CcLabels,
                _ => Workload::BallColoring { radius: 2 },
            };
            let tenant = tenants[if rng.range(0, 2) == 0 {
                0
            } else {
                1 + rng.range(0, 3) as usize
            }];
            let mut spec = JobSpec::basic(tenant, workload, graph, Seed(seed ^ i));
            spec.priority = match rng.range(0, 8) {
                0 | 1 => Priority::Low,
                7 => Priority::High,
                _ => Priority::Normal,
            };
            if rng.range(0, 5) == 0 {
                spec.faults = Some(FaultSpec {
                    crashes: rng.range(0, 3) as usize,
                    stragglers: rng.range(0, 3) as usize,
                    horizon: 6,
                    corrupt_per_mille: if rng.range(0, 2) == 0 { 40 } else { 0 },
                    seed: 0xFA57_0000 ^ seed ^ i,
                });
                spec.recovery_retries = rng.range(0, 3) as usize;
            }
            if rng.range(0, 50) == 0 {
                spec.deadline_rounds = Some(1);
                spec.max_attempts = 3;
            }
            spec
        })
        .collect()
}

/// 40 jobs on 40 distinct graphs. Sizes are stratified over
/// n = 1000–2500 and the workloads rotate, so every seed draws the same
/// mix of work; the seed picks tree shapes, tenants, algorithm coins and
/// fault plans. Every fifth job is faulted.
fn heavy_batch(seed: u64, jobs: usize) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(Seed(seed ^ 0x4EA7_2026));
    let tenants = ["acme", "globex", "initech", "umbrella"];
    (0..jobs)
        .map(|i| {
            let n = 1000 + (1500 * i) / jobs.max(1);
            let n = n + n % 2; // two-cycles needs an even count
            let graph = match i % 4 {
                0 => GraphSpec::Cycle { n },
                1 => GraphSpec::Path { n },
                2 => GraphSpec::TwoCycles { n },
                _ => GraphSpec::RandomTree {
                    n,
                    seed: rng.next_u64(),
                },
            };
            let workload = match i % 3 {
                0 => Workload::LubyMis,
                1 => Workload::CcLabels,
                _ => Workload::BallColoring { radius: 2 },
            };
            let tenant = tenants[rng.range(0, 4) as usize];
            let mut spec = JobSpec::basic(tenant, workload, graph, Seed(seed ^ i as u64));
            // Radius-2 balls around a random tree's hubs outgrow the
            // default 64-word floor at these sizes.
            spec.min_space = 256;
            if i % 5 == 4 {
                spec.faults = Some(FaultSpec {
                    crashes: 1 + rng.range(0, 2) as usize,
                    stragglers: rng.range(0, 3) as usize,
                    horizon: 6,
                    corrupt_per_mille: 20,
                    seed: 0xFA57_0000 ^ seed ^ i as u64,
                });
                spec.recovery_retries = 2;
            }
            spec
        })
        .collect()
}

fn service_config(jobs: usize, capacity_per_job: usize) -> ServiceConfig {
    ServiceConfig {
        workers: crate::stats::nproc(),
        capacity_words: jobs * capacity_per_job,
        shed_fraction: 0.7,
        mode: ParallelismMode::Sequential,
    }
}

fn summarize(
    report: &ServiceReport,
    run_s: f64,
    recover_ms: Option<f64>,
) -> (ServicePass, Vec<(&'static str, u64)>) {
    let c = &report.counters;
    let attempts: u64 = report.outcomes.iter().map(|o| u64::from(o.attempts)).sum();
    let failed = report
        .outcomes
        .iter()
        .filter(|o| matches!(o.state, JobState::Rejected | JobState::Quarantined))
        .count() as u64;
    let wall_ms = report
        .outcomes
        .iter()
        .filter(|o| o.attempts > 0)
        .map(|o| o.wall_ms)
        .collect();
    let svc = ServicePass {
        jobs: report.outcomes.len() as u64,
        failed_jobs: failed,
        run_s,
        wall_ms,
        recover_ms,
    };
    let counts = vec![
        ("jobs", report.outcomes.len() as u64),
        ("attempts", attempts),
        ("completed", c.completed),
        ("degraded", c.degraded),
        ("rejected", c.rejected),
        ("quarantined", c.quarantined),
        ("retries", c.retries),
        ("shed", c.shed),
        ("backoff_ticks", c.backoff_ticks),
        ("deadline_failures", c.deadline_failures),
    ];
    (svc, counts)
}

/// Submits `specs` in order, one `admission` span per call, then drains
/// them with `run`; returns the report and the seconds inside `run`.
fn submit_and_run(
    svc: &JobService,
    specs: Vec<JobSpec>,
    tr: &mut Tracer,
    id: u64,
) -> (ServiceReport, f64) {
    for spec in specs {
        let o = tr.begin("admission", "submit", id);
        let _ = svc.submit(spec);
        let _ = tr.end(o);
    }
    let t = Instant::now();
    let report = tr.span("scheduler", "run", id, || svc.run());
    (report, t.elapsed().as_secs_f64())
}

/// Scheduler figures over the given passes.
fn scheduler_metrics(passes: &[ServicePass]) -> Vec<Metric> {
    let workers = crate::stats::nproc() as f64;
    let jobs: f64 = passes.iter().map(|p| p.jobs as f64).sum();
    let run_ms: f64 = passes.iter().map(|p| p.run_s * 1e3).sum();
    let busy_ms: f64 = passes.iter().flat_map(|p| p.wall_ms.iter()).sum();
    vec![
        Metric::new(
            "scheduler.overhead_ms_per_job",
            (workers * run_ms - busy_ms) / jobs,
            "ms",
        ),
        Metric::new(
            "scheduler.busy_share",
            busy_ms / (workers * run_ms),
            "ratio",
        ),
    ]
}

// ---------------------------------------------------------------- backlog

pub struct BacklogBench {
    batch: Vec<JobSpec>,
    cfg: ServiceConfig,
    journal: PathBuf,
    expected: Option<u64>,
    /// Per-pass summaries of traced passes, for the scheduler metrics.
    traced: Vec<ServicePass>,
}

impl BacklogBench {
    fn journal_path(&self, tag: &str) -> PathBuf {
        self.journal.with_extension(tag)
    }
}

impl Bench for BacklogBench {
    const NAME: &'static str = "service-backlog";
    const TAIL_PCT: f64 = 80.0;
    const MIN_PASSES: usize = 50;
    const WARMUP: usize = 4;
    const TRACE_PAIRS: usize = 3;

    fn mode() -> String {
        format!("Sequential jobs, {} workers", crate::stats::nproc())
    }

    fn prepare(seed: u64, out: &Path) -> Self {
        BacklogBench {
            batch: backlog_batch(seed, BACKLOG_JOBS),
            // The soak sizing: the batch barely fits, so the low-priority
            // tail rides the shedding rung without refusals.
            cfg: service_config(BACKLOG_JOBS, 700),
            journal: out.join(format!("backlog-journal-{seed}.bin")),
            expected: None,
            traced: Vec::new(),
        }
    }

    fn pass(&mut self, tr: &mut Tracer, id: u64) -> Pass {
        let specs = self.batch.clone();
        let path = self.journal_path("bin");
        let journal = Journal::create(&path).expect("create the pass journal");
        let t0 = Instant::now();
        let root = tr.begin("pass", Self::NAME, id);
        let svc = JobService::with_journal(self.cfg.clone(), journal);
        let (report, run_s) = submit_and_run(&svc, specs, tr, id);
        drop(svc);
        let t_rec = Instant::now();
        let (recovered, info) = tr
            .span("recovery", "recover", id, || {
                JobService::recover(self.cfg.clone(), &path)
            })
            .expect("recover the pass journal");
        let recover_ms = t_rec.elapsed().as_secs_f64() * 1e3;
        let _ = tr.end(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;

        let fp = report.fingerprint();
        let recovered_fp = recovered.run().fingerprint();
        let expected = *self.expected.get_or_insert(fp);
        let (svc_pass, mut counts) = summarize(&report, run_s, Some(recover_ms));
        counts.push(("journal.records_replayed", info.records_replayed));
        if tr.on() {
            self.traced.push(svc_pass.clone());
        }
        Pass {
            ms,
            check: checks::service(expected, fp, Some(recovered_fp)),
            counts,
            service: Some(svc_pass),
        }
    }

    fn layers(&mut self, tr: &mut Tracer, first: &[(&'static str, u64)]) -> Vec<Metric> {
        let count = |name| crate::count(first, name);
        let jobs = count("jobs");
        let submit_us: Vec<f64> = tr
            .durations_ms("admission", "submit")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        let recover_ms = median(&tr.durations_ms("recovery", "recover"));
        let replayed = count("journal.records_replayed");
        // Journal: decode the last pass's log, then re-append every
        // record to a fresh journal.
        let path = self.journal_path("bin");
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
        let log = Journal::open_for_recovery(&path).expect("reopen the pass journal");
        let records = log.records;
        drop(log.journal);
        let copy = self.journal_path("append");
        let mut append_us = Vec::new();
        for rep in 0..3u64 {
            let mut j = Journal::create(&copy).expect("create the append journal");
            let o = tr.begin("journal", "append_all", 5000 + rep);
            for rec in &records {
                j.append(rec).expect("append");
            }
            append_us.push(tr.end(o) * 1e3 / records.len().max(1) as f64);
        }
        std::fs::remove_file(&copy).ok();
        let mut metrics = vec![
            Metric::new(
                "admission.submit_us_p50",
                percentile(&submit_us, 50.0),
                "us",
            ),
            Metric::new(
                "admission.submit_us_p99",
                percentile(&submit_us, 99.0),
                "us",
            ),
            Metric::new("journal.append_us", median(&append_us), "us"),
            Metric::new(
                "journal.records_per_job",
                records.len() as f64 / jobs,
                "count",
            ),
            Metric::new("journal.bytes_per_job", bytes / jobs, "B"),
            Metric::new("recovery.records_replayed", replayed, "count"),
            Metric::new("recovery.us_per_record", recover_ms * 1e3 / replayed, "us"),
            // The retry, shedding and quarantine ladder: the soak recipe's
            // faulted, poisoned and low-priority jobs exercise it here.
            Metric::new(
                "service.attempts_per_job",
                count("attempts") / jobs,
                "count",
            ),
            Metric::new("service.retries", count("retries"), "count"),
            Metric::new("service.shed", count("shed"), "count"),
            Metric::new("service.degraded", count("degraded"), "count"),
            Metric::new("service.quarantined", count("quarantined"), "count"),
            Metric::new(
                "service.deadline_failures",
                count("deadline_failures"),
                "count",
            ),
            Metric::new(
                "service.useful_attempt_ratio",
                (count("completed") + count("degraded")) / count("attempts"),
                "ratio",
            ),
        ];
        metrics.extend(scheduler_metrics(&self.traced));
        metrics
    }

    fn cleanup(&mut self) {
        std::fs::remove_file(self.journal_path("bin")).ok();
    }
}

// ------------------------------------------------------------------ heavy

pub struct HeavyBench {
    batch: Vec<JobSpec>,
    cfg: ServiceConfig,
    expected: Option<u64>,
    /// Graph-store `(hits, misses)` when the traced passes began.
    store_before: Option<(u64, u64)>,
    traced: Vec<ServicePass>,
}

impl Bench for HeavyBench {
    const NAME: &'static str = "service-heavy";
    const TAIL_PCT: f64 = 96.0;
    const MIN_PASSES: usize = 250;
    const WARMUP: usize = 20;
    const TRACE_PAIRS: usize = 30;

    fn mode() -> String {
        format!("Sequential jobs, {} workers", crate::stats::nproc())
    }

    fn prepare(seed: u64, _out: &Path) -> Self {
        HeavyBench {
            batch: heavy_batch(seed, HEAVY_JOBS),
            // Ample capacity: every job is admitted at full service.
            cfg: service_config(HEAVY_JOBS, 1 << 20),
            expected: None,
            store_before: None,
            traced: Vec::new(),
        }
    }

    fn pass(&mut self, tr: &mut Tracer, id: u64) -> Pass {
        if tr.on() && self.store_before.is_none() {
            self.store_before = Some(graph_store::global().stats());
        }
        let specs = self.batch.clone();
        let t0 = Instant::now();
        let root = tr.begin("pass", Self::NAME, id);
        let svc = JobService::new(self.cfg.clone());
        let (report, run_s) = submit_and_run(&svc, specs, tr, id);
        let _ = tr.end(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;

        let fp = report.fingerprint();
        let expected = *self.expected.get_or_insert(fp);
        let (svc_pass, counts) = summarize(&report, run_s, None);
        if tr.on() {
            self.traced.push(svc_pass.clone());
        }
        Pass {
            ms,
            check: checks::service(expected, fp, None),
            counts,
            service: Some(svc_pass),
        }
    }

    fn layers(&mut self, tr: &mut Tracer, first: &[(&'static str, u64)]) -> Vec<Metric> {
        let count = |name| crate::count(first, name);
        let (h0, m0) = self.store_before.unwrap_or_default();
        let (h1, m1) = graph_store::global().stats();
        let (hits, misses) = ((h1 - h0) as f64, (m1 - m0) as f64);
        // run_job on a fresh cluster for each distinct spec, by workload.
        let mut by_workload: [Vec<f64>; 3] = Default::default();
        let fresh = GraphStore::with_capacity(HEAVY_JOBS + 1);
        let mut miss_us = Vec::new();
        for (i, spec) in self.batch.iter().enumerate() {
            let o = tr.begin("graph_store", "get_miss", 6000 + i as u64);
            let shared = fresh.get(&spec.graph);
            miss_us.push(tr.end(o) * 1e3);
            let g = &shared.graph;
            let cfg = MpcConfig {
                min_space: spec.min_space,
                parallelism: ParallelismMode::Sequential,
                ..MpcConfig::with_phi(spec.phi)
            };
            let mut cl = Cluster::new(cfg, g.n(), shared.words, spec.seed);
            let o = tr.begin("job", "run_job", 6000 + i as u64);
            run_job(&spec.workload, g, &mut cl).expect("fault-free run_job");
            let ms = tr.end(o);
            let slot = match spec.workload {
                Workload::LubyMis => 0,
                Workload::CcLabels => 1,
                Workload::BallColoring { .. } => 2,
            };
            by_workload[slot].push(ms);
        }
        let mut metrics = vec![
            Metric::new("job.luby_mis_ms", median(&by_workload[0]), "ms"),
            Metric::new("job.cc_labels_ms", median(&by_workload[1]), "ms"),
            Metric::new("job.ball_coloring_ms", median(&by_workload[2]), "ms"),
            Metric::new(
                "service.attempts_per_job.heavy",
                count("attempts") / count("jobs"),
                "count",
            ),
            Metric::new("graph_store.hit_ratio", hits / (hits + misses), "ratio"),
            Metric::new("graph_store.miss_us", median(&miss_us), "us"),
        ];
        // Scheduler overhead on the shallow queue, for contrast with the
        // backlog's.
        metrics.extend(
            scheduler_metrics(&self.traced)
                .into_iter()
                .map(|m| Metric::new(&format!("{}.heavy", m.name), m.value, m.unit)),
        );
        metrics
    }
}
