//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Workloads: `scale-1m`, `engine-faulted`, `service-backlog`,
//! `service-heavy` (see `perfbench/README.md`). Each run is a closed loop
//! driven by one client: the next pass starts when the previous one has
//! finished and its outputs have been checked.
//!
//! With `--trace 0` the run sets up the named workload three times
//! (reporting the median set-up time), then times passes for `--seconds`
//! (and at least the workload's minimum pass count) and prints the
//! end-to-end metrics. With `--trace 1` it runs all four workloads with
//! spans around every call into a layer, alternating untraced and traced
//! passes, prints the per-layer metrics and a self-time summary, and
//! writes the spans as Chrome trace-event JSON under `--out`.
//!
//! Every pass's outputs are checked, and the counts the determinism
//! contract fixes must equal the first pass's. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The process exits 1 when any check failed.

mod checks;
mod engine_wl;
mod scale_wl;
mod service_wl;
mod stats;
mod trace;

use stats::{json_num, json_str, median, percentile};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// A run never measures longer than this, whatever the pass minimum.
const HARD_CAP_S: f64 = 120.0;

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// What one service pass reports beyond its pass time.
#[derive(Debug, Clone)]
pub struct ServicePass {
    pub jobs: u64,
    /// Jobs ending `Rejected` or `Quarantined`.
    pub failed_jobs: u64,
    /// Seconds inside `JobService::run`.
    pub run_s: f64,
    /// `JobOutcome::wall_ms` of every job that ran.
    pub wall_ms: Vec<f64>,
    /// Milliseconds inside `JobService::recover` (backlog only).
    pub recover_ms: Option<f64>,
}

/// One timed pass: its time, its output check, and the counts the
/// determinism contract fixes.
pub struct Pass {
    pub ms: f64,
    pub check: Result<(), String>,
    pub counts: Vec<(&'static str, u64)>,
    pub service: Option<ServicePass>,
}

/// A benchmark workload.
pub trait Bench: Sized {
    const NAME: &'static str;
    /// Tail percentile reported as `pass_ms_tail`; `MIN_PASSES` leaves
    /// at least ten passes beyond it.
    const TAIL_PCT: f64;
    const MIN_PASSES: usize;
    /// Passes run inside each set-up, after input generation.
    const WARMUP: usize;
    /// Untraced/traced pass pairs in the traced run.
    const TRACE_PAIRS: usize;

    /// `ParallelismMode` (and worker count) the workload runs under.
    fn mode() -> String;
    /// Generates the inputs from `seed`; scratch files go under `out`.
    fn prepare(seed: u64, out: &Path) -> Self;
    /// Runs and checks one pass; `id` groups its spans.
    fn pass(&mut self, tr: &mut Tracer, id: u64) -> Pass;
    /// Per-layer metrics after the traced passes; `first` is the first
    /// pass's counts.
    fn layers(&mut self, tr: &mut Tracer, first: &[(&'static str, u64)]) -> Vec<Metric>;
    /// Removes scratch files.
    fn cleanup(&mut self) {}
}

/// The value of counter `name` in `counts`, or 0 when absent.
pub fn count(counts: &[(&str, u64)], name: &str) -> f64 {
    counts
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Checks every pass and its counts against the first pass's.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    first: Option<Vec<(&'static str, u64)>>,
    errors: Vec<String>,
}

impl Ledger {
    fn record(&mut self, pass: &Pass) {
        self.attempted += 1;
        let counts = match &self.first {
            None => {
                self.first = Some(pass.counts.clone());
                Ok(())
            }
            Some(first) => checks::exact_counts(first, &pass.counts),
        };
        if let Err(e) = pass.check.clone().and(counts) {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    fn first(&self) -> &[(&'static str, u64)] {
        self.first.as_deref().unwrap_or(&[])
    }

    fn counts_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (name, v) in self.first() {
            for b in name.bytes().chain(v.to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_build/perfbench");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must lie in (0, 60], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

const WORKLOADS: [&str; 4] = [
    scale_wl::ScaleBench::NAME,
    engine_wl::EngineBench::NAME,
    service_wl::BacklogBench::NAME,
    service_wl::HeavyBench::NAME,
];

/// The host record printed with every result.
fn host_line(fields: &[(&str, String)]) -> String {
    let mut all = vec![
        ("nproc", stats::nproc().to_string()),
        ("rayon_threads", rayon::current_num_threads().to_string()),
        ("service_workers", stats::nproc().to_string()),
        ("l3", json_str(&stats::l3_size())),
    ];
    all.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = all
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn print_result(correct: bool, ledger_attempted: u64, ledger_failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{ledger_attempted},\"failed\":{ledger_failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
}

/// Untraced run of one workload: end-to-end metrics.
fn run_untraced<B: Bench>(args: &Args) -> bool {
    let mut tr = Tracer::new(false);
    let mut ledger = Ledger::default();
    let mut setups = Vec::new();
    let mut bench: Option<B> = None;
    let mut id = 0u64;
    for _ in 0..SETUP_REPS {
        if let Some(mut old) = bench.take() {
            old.cleanup();
        }
        let t = Instant::now();
        let mut b = B::prepare(args.seed, &args.out);
        for _ in 0..B::WARMUP {
            let pass = b.pass(&mut tr, id);
            id += 1;
            ledger.record(&pass);
        }
        setups.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");

    let mut pass_ms = Vec::new();
    let mut service = Vec::new();
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        let enough = elapsed >= args.seconds && pass_ms.len() >= B::MIN_PASSES;
        if enough || elapsed >= HARD_CAP_S {
            break;
        }
        let pass = bench.pass(&mut tr, id);
        id += 1;
        ledger.record(&pass);
        pass_ms.push(pass.ms);
        service.extend(pass.service);
    }
    bench.cleanup();
    let measured_s = t0.elapsed().as_secs_f64();
    let tail_ok = stats::beyond(pass_ms.len(), B::TAIL_PCT) >= 10;

    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("pass_ms_p50", median(&pass_ms), "ms"),
        Metric::new("pass_ms_tail", percentile(&pass_ms, B::TAIL_PCT), "ms"),
        Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ];
    println!(
        "host {}",
        host_line(&[
            ("workload", json_str(B::NAME)),
            ("mode", json_str(&B::mode())),
            ("seed", args.seed.to_string()),
            ("passes", pass_ms.len().to_string()),
            ("measured_s", format!("{measured_s:.3}")),
            ("setup_reps", SETUP_REPS.to_string()),
            ("tail_percentile", B::TAIL_PCT.to_string()),
            (
                "passes_beyond_tail",
                stats::beyond(pass_ms.len(), B::TAIL_PCT).to_string()
            ),
        ])
    );
    println!(
        "counts {:#018x} {:?}",
        ledger.counts_fingerprint(),
        ledger.first()
    );
    for e in &ledger.errors {
        println!("FAILED {e}");
    }
    // Failed operations over attempted: passes whose check failed, and
    // for the service, jobs ending Rejected or Quarantined.
    let mut extra = vec![Metric::new(
        "failed_frac",
        ledger.failed as f64 / ledger.attempted as f64,
        "ratio",
    )];
    if !service.is_empty() {
        let jobs: u64 = service.iter().map(|s| s.jobs).sum();
        let failed_jobs: u64 = service.iter().map(|s| s.failed_jobs).sum();
        let run_s: f64 = service.iter().map(|s| s.run_s).sum();
        let wall: Vec<f64> = service
            .iter()
            .flat_map(|s| s.wall_ms.iter().copied())
            .collect();
        extra[0] = Metric::new("failed_frac", failed_jobs as f64 / jobs as f64, "ratio");
        extra.push(Metric::new("jobs_per_s", jobs as f64 / run_s, "jobs/s"));
        extra.push(Metric::new("job_ms_p50", median(&wall), "ms"));
        extra.push(Metric::new("job_ms_p99", percentile(&wall, 99.0), "ms"));
        let recover: Vec<f64> = service.iter().filter_map(|s| s.recover_ms).collect();
        if !recover.is_empty() {
            extra.push(Metric::new("recover_ms", median(&recover), "ms"));
        }
    }
    for m in metrics.iter().chain(&extra) {
        println!("metric {:<14} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = ledger.failed == 0 && tail_ok;
    if !tail_ok {
        println!("FAILED fewer than ten passes beyond p{}", B::TAIL_PCT);
    }
    print_result(correct, ledger.attempted, ledger.failed, &metrics);
    correct
}

/// One workload's share of the traced run.
fn trace_workload<B: Bench>(
    args: &Args,
    budget_s: f64,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    metrics: &mut Vec<Metric>,
) {
    tr.set_on(false);
    let mut bench = B::prepare(args.seed, &args.out);
    let mut local = Ledger::default();
    let mut id = 0u64;
    for _ in 0..B::WARMUP {
        let pass = bench.pass(tr, id);
        id += 1;
        local.record(&pass);
    }
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while plain.len() < B::TRACE_PAIRS
        || (t0.elapsed().as_secs_f64() < budget_s && plain.len() < 10 * B::TRACE_PAIRS)
    {
        for on in [false, true] {
            tr.set_on(on);
            let pass = bench.pass(tr, id);
            id += 1;
            local.record(&pass);
            if on { &mut traced } else { &mut plain }.push(pass.ms);
        }
    }
    tr.set_on(true);
    let first = local.first().to_vec();
    metrics.extend(bench.layers(tr, &first));
    tr.set_on(false);
    bench.cleanup();
    metrics.push(Metric::new(
        &format!("trace.overhead_ms.{}", B::NAME),
        median(&traced) - median(&plain),
        "ms",
    ));
    println!(
        "traced {:<16} pairs {:>4}  untraced p50 {:>10.3} ms  traced p50 {:>10.3} ms  counts {:#018x}",
        B::NAME,
        plain.len(),
        median(&plain),
        median(&traced),
        local.counts_fingerprint()
    );
    ledger.attempted += local.attempted;
    ledger.failed += local.failed;
    ledger.errors.extend(local.errors);
}

/// Traced run: every workload, every layer.
fn run_traced(args: &Args) -> std::io::Result<bool> {
    let mut tr = Tracer::new(false);
    let mut ledger = Ledger::default();
    let mut metrics = Vec::new();
    let budget = args.seconds / 4.0;
    trace_workload::<scale_wl::ScaleBench>(args, budget, &mut tr, &mut ledger, &mut metrics);
    trace_workload::<engine_wl::EngineBench>(args, budget, &mut tr, &mut ledger, &mut metrics);
    trace_workload::<service_wl::BacklogBench>(args, budget, &mut tr, &mut ledger, &mut metrics);
    trace_workload::<service_wl::HeavyBench>(args, budget, &mut tr, &mut ledger, &mut metrics);

    let modes = format!(
        "{{\"scale-1m\":{},\"engine-faulted\":{},\"service-backlog\":{},\"service-heavy\":{}}}",
        json_str(&scale_wl::ScaleBench::mode()),
        json_str(&engine_wl::EngineBench::mode()),
        json_str(&service_wl::BacklogBench::mode()),
        json_str(&service_wl::HeavyBench::mode()),
    );
    let host = host_line(&[
        ("workload", json_str("all (traced)")),
        ("modes", modes),
        ("seed", args.seed.to_string()),
        ("passes", ledger.attempted.to_string()),
    ]);
    println!("host {host}");
    println!("self time by layer (span minus child spans):");
    println!(
        "  {:<12} {:<26} {:>8} {:>12} {:>12}",
        "layer", "call", "spans", "total ms", "self ms"
    );
    for ((layer, name), (n, total, own)) in tr.self_times() {
        println!("  {layer:<12} {name:<26} {n:>8} {total:>12.3} {own:>12.3}");
    }
    for m in &metrics {
        println!("layer {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for e in &ledger.errors {
        println!("FAILED {e}");
    }
    std::fs::create_dir_all(&args.out)?;
    let path = args.out.join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, tr.chrome_json(&[("host".to_owned(), host)]))?;
    println!(
        "trace written to {} ({} spans)",
        path.display(),
        tr.spans().len()
    );
    let correct = ledger.failed == 0;
    print_result(correct, ledger.attempted, ledger.failed, &metrics);
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Thread budget: rayon runs at nproc threads (the caller plus
    // nproc - 1 pool workers), whatever the environment says.
    std::env::set_var("RAYON_NUM_THREADS", stats::nproc().to_string());
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let ok = if args.trace {
        run_traced(&args).unwrap_or_else(|e| {
            eprintln!("perfbench: writing the trace failed: {e}");
            false
        })
    } else {
        match args.workload.as_str() {
            "scale-1m" => run_untraced::<scale_wl::ScaleBench>(&args),
            "engine-faulted" => run_untraced::<engine_wl::EngineBench>(&args),
            "service-backlog" => run_untraced::<service_wl::BacklogBench>(&args),
            _ => run_untraced::<service_wl::HeavyBench>(&args),
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}
