//! `soak` — the job-service soak harness: pushes a large seeded batch
//! of mixed jobs (healthy, faulted, deadline-poisoned, low-priority
//! sheddable) through `csmpc-service` and writes throughput, per-job
//! latency percentiles, and retry/quarantine/shed counts into
//! `BENCH_service.json` at the repository root.
//!
//! Flags:
//!
//! * `--smoke` — shrink to a CI-sized batch (still ≥ 1000 jobs) and
//!   write `target/bench/BENCH_service_smoke.json` instead, leaving every
//!   committed file untouched. To refresh the committed smoke baseline,
//!   copy that file over `BENCH_service_smoke.json` at the repository
//!   root.
//! * `--jobs N` / `--workers N` — override batch size / pool width.
//! * `--check-determinism` — run the same batch through TWO services
//!   concurrently (contending for the shared graph/CSR caches) and fail
//!   with exit 1 unless every per-job outcome is bit-identical. This is
//!   the service-level analogue of the engine's seq-vs-par equivalence
//!   gates.
//! * `--crash-every N` — re-run the batch through a *journaled* service
//!   that is killed after every `N` journal records, recovering and
//!   resuming until the batch completes. Fails with exit 1 unless the
//!   crash-riddled run's report fingerprint is bit-identical to the
//!   uninterrupted run's; reports recovery counts and latency in a
//!   `crash_recovery` JSON section.
//!
//! The batch recipe is a pure function of a fixed seed, so two
//! invocations (or the two concurrent services of the determinism
//! check) always see the same submission sequence.
//!
//! BENCH JSON write failures exit 2 with the offending path, mirroring
//! the `perf --gate` read-side contract.

use std::time::Instant;

/// Where `--smoke` writes its report: under the build directory, so a CI
/// run leaves the committed `BENCH_service_smoke.json` baseline as is.
const SMOKE_OUT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../target/bench/BENCH_service_smoke.json"
);

use csmpc_graph::rng::{Seed, SplitMix64};
use csmpc_mpc::ParallelismMode;
use csmpc_service::{
    CrashPlan, FaultSpec, GraphSpec, JobService, JobSpec, JobState, Journal, Priority,
    ServiceConfig, ServiceReport, Workload,
};

/// Deterministic mixed batch: a handful of graph shapes (so the shared
/// CSR spines actually get shared), three workloads, four tenants with
/// skewed volume, ~20% fault plans, ~2% deadline poison, ~25% low
/// priority (the shedding ladder's fodder).
fn build_batch(jobs: usize) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(Seed(0x50AB_2026));
    let tenants = ["acme", "globex", "initech", "umbrella"];
    let mut specs = Vec::with_capacity(jobs);
    for i in 0..jobs as u64 {
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
        // Volume skew: acme submits roughly half the batch — tenant
        // fairness is what keeps the others flowing anyway.
        let tenant = tenants[if rng.range(0, 2) == 0 {
            0
        } else {
            1 + rng.range(0, 3) as usize
        }];
        let mut spec = JobSpec::basic(tenant, workload, graph, Seed(i));
        spec.priority = match rng.range(0, 8) {
            0 | 1 => Priority::Low,
            7 => Priority::High,
            _ => Priority::Normal,
        };
        if rng.range(0, 5) == 0 {
            // A fifth of the batch carries real fault plans.
            spec.faults = Some(FaultSpec {
                crashes: rng.range(0, 3) as usize,
                stragglers: rng.range(0, 3) as usize,
                horizon: 6,
                corrupt_per_mille: if rng.range(0, 2) == 0 { 40 } else { 0 },
                seed: 0xFA57_0000 + i,
            });
            // Some fault carriers start with no in-run recovery budget:
            // at full service the job-level retry ladder escalates them
            // to completion; on the shedding rung they degrade to
            // supervised partial output instead.
            spec.recovery_retries = rng.range(0, 3) as usize;
        }
        if rng.range(0, 50) == 0 {
            // ~2% poison: a deadline no workload can meet, exercising
            // the retry ladder into quarantine.
            spec.deadline_rounds = Some(1);
            spec.max_attempts = 3;
        }
        specs.push(spec);
    }
    specs
}

fn service_config(jobs: usize, workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        // Sized so the whole batch *barely* fits (mean footprint is
        // ~550 words at these graph sizes): the 0.7 watermark lands
        // inside the submission sequence, so the low-priority slice of
        // the tail rides the shedding ladder (supervised degrade) while
        // the batch still admits without refusals.
        capacity_words: jobs * 700,
        shed_fraction: 0.7,
        mode: ParallelismMode::default(),
    }
}

fn run_once(jobs: usize, workers: usize) -> (ServiceReport, f64) {
    let svc = JobService::new(service_config(jobs, workers));
    let t0 = Instant::now();
    let report = svc.run_batch(build_batch(jobs));
    let secs = t0.elapsed().as_secs_f64();
    (report, secs)
}

/// What the crash/recover/resume loop measured, for the JSON section.
struct CrashRunStats {
    report: ServiceReport,
    recoveries: u64,
    records_replayed: u64,
    recovery_ms: Vec<f64>,
}

/// Run the batch through a journaled service that is killed after every
/// `crash_every` journal records, recovering from the on-disk log and
/// resubmitting the unpersisted tail until the batch completes. The
/// write-ahead discipline guarantees at least one fresh record lands per
/// cycle once `crash_every >= 2`, so the loop always terminates.
fn run_with_crashes(jobs: usize, workers: usize, crash_every: u64) -> CrashRunStats {
    let cfg = service_config(jobs, workers);
    let specs = build_batch(jobs);
    let path = std::env::temp_dir().join(format!("csmpc_soak_journal_{}.bin", std::process::id()));
    let journal = Journal::create(&path).unwrap_or_else(|e| {
        eprintln!("FAIL: cannot create journal at {}: {e}", path.display());
        std::process::exit(2);
    });
    let svc = JobService::with_journal(cfg.clone(), journal);
    svc.arm_crash(CrashPlan::kill_after(crash_every));
    for spec in &specs {
        svc.submit(spec.clone());
        if svc.crashed() {
            break;
        }
    }
    let mut attempt = svc.run_recoverable();
    let mut recoveries = 0u64;
    let mut records_replayed = 0u64;
    let mut recovery_ms = Vec::new();
    let report = loop {
        match attempt {
            Some(report) => break report,
            None => {
                let t0 = Instant::now();
                let (svc, info) = JobService::recover(cfg.clone(), &path).unwrap_or_else(|e| {
                    eprintln!("FAIL: recovery {} refused: {e}", recoveries + 1);
                    std::process::exit(1);
                });
                recovery_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                recoveries += 1;
                records_replayed += info.records_replayed;
                svc.arm_crash(CrashPlan::kill_after(crash_every));
                for spec in &specs[svc.submitted_jobs()..] {
                    svc.submit(spec.clone());
                    if svc.crashed() {
                        break;
                    }
                }
                attempt = svc.run_recoverable();
            }
        }
    };
    std::fs::remove_file(&path).ok();
    CrashRunStats {
        report,
        recoveries,
        records_replayed,
        recovery_ms,
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check_determinism = args.iter().any(|a| a == "--check-determinism");
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse::<usize>()
                    .unwrap_or_else(|_| panic!("{flag} wants a number"))
            })
    };
    let jobs = arg_after("--jobs").unwrap_or(if smoke { 1200 } else { 10_000 });
    let workers = arg_after("--workers").unwrap_or(4);
    let crash_every = arg_after("--crash-every").map(|n| {
        // Below 2 the first surviving record of each cycle can be a
        // replayed duplicate, so no cycle makes durable progress.
        (n as u64).max(2)
    });

    println!("soak: {jobs} jobs, {workers} workers, smoke={smoke}");

    let (report, secs) = run_once(jobs, workers);
    assert_eq!(
        report.outcomes.len(),
        jobs,
        "wedged queue: not every job reached a terminal state"
    );
    let c = report.counters;
    let throughput = jobs as f64 / secs.max(1e-9);

    let mut lat: Vec<f64> = report
        .outcomes
        .iter()
        .filter(|o| o.state != JobState::Rejected)
        .map(|o| o.wall_ms)
        .collect();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let (p50, p90, p99) = (
        percentile(&lat, 0.50),
        percentile(&lat, 0.90),
        percentile(&lat, 0.99),
    );
    let max_ms = lat.last().copied().unwrap_or(0.0);

    println!(
        "  {:.1} jobs/s over {secs:.2}s   latency p50 {p50:.3} ms  p90 {p90:.3} ms  \
         p99 {p99:.3} ms  max {max_ms:.3} ms",
        throughput
    );
    println!(
        "  completed {} degraded {} quarantined {} rejected {} shed {} retries {} \
         backoff_ticks {} deadline_failures {}",
        c.completed,
        c.degraded,
        c.quarantined,
        c.rejected,
        c.shed,
        c.retries,
        c.backoff_ticks,
        c.deadline_failures
    );

    let mut determinism = String::new();
    if check_determinism {
        // Two services over the same batch, *concurrently*, contending
        // for the shared graph store and CSR cache — per-job outcomes
        // must still be bit-identical.
        let (a, b) = std::thread::scope(|scope| {
            let ha = scope.spawn(|| run_once(jobs, workers).0);
            let hb = scope.spawn(|| run_once(jobs, workers).0);
            (ha.join().expect("run A"), hb.join().expect("run B"))
        });
        let (fa, fb) = (a.fingerprint(), b.fingerprint());
        if fa != fb || fa != report.fingerprint() {
            for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
                if x.digest != y.digest || x.state != y.state || x.attempts != y.attempts {
                    eprintln!(
                        "  job {:?}: ({:?}, digest {:#x}, attempts {}) vs \
                         ({:?}, digest {:#x}, attempts {})",
                        x.id, x.state, x.digest, x.attempts, y.state, y.digest, y.attempts
                    );
                }
            }
            eprintln!(
                "FAIL: concurrent determinism gate: fingerprints {fa:#x} / {fb:#x} / {:#x}",
                report.fingerprint()
            );
            std::process::exit(1);
        }
        println!("  determinism gate: OK (two concurrent runs, fingerprint {fa:#x})");
        determinism =
            format!(",\n  \"determinism\": {{\"checked\": true, \"fingerprint\": \"{fa:#x}\"}}");
    }

    let mut crash_recovery = String::new();
    if let Some(every) = crash_every {
        // The crash-riddled run must land on the exact same report as
        // the uninterrupted one — recovery is replay, not re-guessing.
        let crashed = run_with_crashes(jobs, workers, every);
        let (fc, fr) = (crashed.report.fingerprint(), report.fingerprint());
        if fc != fr {
            for (x, y) in crashed.report.outcomes.iter().zip(&report.outcomes) {
                if x.digest != y.digest || x.state != y.state || x.attempts != y.attempts {
                    eprintln!(
                        "  job {:?}: crash-run ({:?}, digest {:#x}, attempts {}) vs \
                         reference ({:?}, digest {:#x}, attempts {})",
                        x.id, x.state, x.digest, x.attempts, y.state, y.digest, y.attempts
                    );
                }
            }
            eprintln!("FAIL: crash-recovery gate: fingerprints {fc:#x} vs reference {fr:#x}");
            std::process::exit(1);
        }
        let (mean_ms, max_ms) = if crashed.recovery_ms.is_empty() {
            (0.0, 0.0)
        } else {
            let sum: f64 = crashed.recovery_ms.iter().sum();
            (
                sum / crashed.recovery_ms.len() as f64,
                crashed.recovery_ms.iter().cloned().fold(0.0, f64::max),
            )
        };
        println!(
            "  crash-recovery gate: OK ({} recoveries every {every} records, \
             {} records replayed, recover() mean {mean_ms:.3} ms max {max_ms:.3} ms)",
            crashed.recoveries, crashed.records_replayed
        );
        crash_recovery = format!(
            ",\n  \"crash_recovery\": {{\"crash_every\": {every}, \"recoveries\": {}, \
             \"records_replayed\": {}, \"recovery_ms\": {{\"mean\": {mean_ms:.4}, \
             \"max\": {max_ms:.4}}}, \"fingerprint_match\": true}}",
            crashed.recoveries, crashed.records_replayed
        );
    }

    let json = format!(
        "{{\n  \"suite\": \"csmpc job-service soak\",\n  \"jobs\": {jobs},\n  \
         \"workers\": {workers},\n  \"smoke\": {smoke},\n  \"wall_s\": {secs:.3},\n  \
         \"throughput_jobs_per_s\": {throughput:.1},\n  \"latency_ms\": {{\"p50\": {p50:.4}, \
         \"p90\": {p90:.4}, \"p99\": {p99:.4}, \"max\": {max_ms:.4}}},\n  \
         \"counters\": {{\"submitted\": {}, \"admitted\": {}, \"rejected\": {}, \"shed\": {}, \
         \"completed\": {}, \"degraded\": {}, \"quarantined\": {}, \"retries\": {}, \
         \"backoff_ticks\": {}, \"deadline_failures\": {}}}{determinism}{crash_recovery}\n}}\n",
        c.submitted,
        c.admitted,
        c.rejected,
        c.shed,
        c.completed,
        c.degraded,
        c.quarantined,
        c.retries,
        c.backoff_ticks,
        c.deadline_failures
    );

    let out = if smoke {
        SMOKE_OUT
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json")
    };
    let written = std::path::Path::new(out)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(out, &json));
    if let Err(e) = written {
        eprintln!("FAIL: cannot write {out}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out}");
}
