//! `scale-1m`: the paper's one-versus-two-cycles connectivity shape at
//! n = 10⁶ on the scale path, plus ball coloring of a random tree.
//!
//! One pass: `scale::ingest` of `TwoCycles { n: 10⁶ }`, then
//! `scale::cc_labels` and `scale::luby_mis` on that CSR; then
//! `scale::ingest` of `RandomTree { n: 2·10⁵ }` and
//! `scale::ball_coloring`. The workspace is reused between passes; each
//! graph gets a fresh `Cluster` every pass.

use crate::checks;
use crate::trace::Tracer;
use crate::{Bench, Metric, Pass};
use csmpc_graph::rng::Seed;
use csmpc_graph::{CsrAdjacency, StreamFamily};
use csmpc_mpc::{scale, Cluster, MpcConfig, ParallelismMode, ScaleWorkspace};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const CYCLES_N: usize = 1_000_000;
const TREE_N: usize = 200_000;

pub struct ScaleBench {
    seed: u64,
    cycles: StreamFamily,
    tree: StreamFamily,
    ws: ScaleWorkspace,
    /// Union-find component minima of the cycles graph, computed on the
    /// first check.
    cycles_minima: Option<Vec<u64>>,
}

fn words(family: StreamFamily) -> usize {
    2 * family.n() + 2 * family.m()
}

fn cluster(family: StreamFamily, mode: ParallelismMode, seed: u64) -> Cluster {
    let cfg = MpcConfig {
        parallelism: mode,
        ..MpcConfig::with_phi(0.5)
    };
    Cluster::new(cfg, family.n(), words(family), Seed(seed))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Bytes one `cc_labels` iteration moves, counted from the kernel's
/// array accesses (each read or write once, no cache effects): the hook
/// sweep reads `label[v]`, two CSR offsets, every neighbor id and its
/// label, and writes `next[v]`; the jump sweep reads `next[v]`,
/// `label[t]`, `next[t]` and writes `jumped[v]`; the convergence test
/// compares `jumped` with `label`.
fn cc_bytes_per_iteration(csr: &CsrAdjacency) -> f64 {
    let n = csr.n() as f64;
    let arcs = csr.directed_edges() as f64;
    n * (8.0 + 8.0 + 8.0) + arcs * (4.0 + 8.0) + n * (8.0 * 4.0) + n * 16.0
}

impl ScaleBench {
    fn luby_seed(&self) -> Seed {
        Seed(self.seed ^ 0x4C55_4259)
    }

    fn color_seed(&self) -> Seed {
        Seed(self.seed ^ 0x434F_4C52)
    }

    /// Times each kernel with a fresh cluster in `mode`; returns
    /// `[ingest cycles, cc_labels, luby_mis, ingest tree, ball_coloring]`
    /// in milliseconds, each call inside a `parallel` span.
    fn kernel_times(&mut self, mode: ParallelismMode, tr: &mut Tracer, id: u64) -> [f64; 5] {
        let name = if mode.is_parallel() {
            "parallel"
        } else {
            "sequential"
        };
        let mut out = [0.0; 5];
        let mut cl = cluster(self.cycles, mode, self.seed);
        let o = tr.begin("parallel", name, id);
        let t = Instant::now();
        let csr = scale::ingest(self.cycles, &mut cl).expect("ingest two-cycles");
        out[0] = ms_since(t);
        let t = Instant::now();
        black_box(scale::cc_labels(&mut cl, &csr, &mut self.ws).expect("cc_labels"));
        out[1] = ms_since(t);
        let t = Instant::now();
        black_box(scale::luby_mis(&mut cl, &csr, self.luby_seed(), &mut self.ws).expect("luby"));
        out[2] = ms_since(t);
        let mut cl = cluster(self.tree, mode, self.seed);
        let t = Instant::now();
        let tree = scale::ingest(self.tree, &mut cl).expect("ingest tree");
        out[3] = ms_since(t);
        let t = Instant::now();
        black_box(
            scale::ball_coloring(&mut cl, &tree, self.color_seed(), &mut self.ws)
                .expect("coloring"),
        );
        out[4] = ms_since(t);
        let _ = tr.end(o);
        out
    }
}

/// Streams a buffer of `words` u64 through a chunked parallel sum at the
/// benchmark's thread count; returns the best GB/s of `reps` passes.
fn stream_gbps(words: usize, reps: usize) -> f64 {
    let buf: Vec<u64> = (0..words as u64).collect();
    let chunks = 64usize;
    let per = words.div_ceil(chunks);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let sums = csmpc_parallel::par_map_range(ParallelismMode::auto(), chunks, |c| {
            let lo = (c * per).min(words);
            let hi = ((c + 1) * per).min(words);
            buf[lo..hi].iter().fold(0u64, |a, &x| a.wrapping_add(x))
        });
        black_box(sums);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (words * 8) as f64 / best / 1e9
}

impl Bench for ScaleBench {
    const NAME: &'static str = "scale-1m";
    const TAIL_PCT: f64 = 85.0;
    const MIN_PASSES: usize = 67;
    const WARMUP: usize = 5;
    const TRACE_PAIRS: usize = 3;

    fn mode() -> String {
        format!("{:?}", ParallelismMode::auto())
    }

    fn prepare(seed: u64, _out: &Path) -> Self {
        ScaleBench {
            seed,
            cycles: StreamFamily::TwoCycles { n: CYCLES_N },
            tree: StreamFamily::RandomTree {
                n: TREE_N,
                seed: Seed(seed ^ 0x7EE5),
            },
            ws: ScaleWorkspace::new(),
            cycles_minima: None,
        }
    }

    fn pass(&mut self, tr: &mut Tracer, id: u64) -> Pass {
        let mode = ParallelismMode::auto();
        let (luby_seed, color_seed) = (self.luby_seed(), self.color_seed());
        let t0 = Instant::now();
        let root = tr.begin("pass", Self::NAME, id);
        let mut cl = cluster(self.cycles, mode, self.seed);
        let csr = tr.span("scale", "ingest_cycles", id, || {
            scale::ingest(self.cycles, &mut cl)
        });
        let csr = csr.expect("ingest two-cycles");
        let ws = &mut self.ws;
        let cc_iters = tr
            .span("scale", "cc_labels", id, || {
                scale::cc_labels(&mut cl, &csr, ws)
            })
            .expect("cc_labels");
        let (mis_size, luby_rounds) = tr
            .span("scale", "luby_mis", id, || {
                scale::luby_mis(&mut cl, &csr, luby_seed, ws)
            })
            .expect("luby_mis");
        let mut tree_cl = cluster(self.tree, mode, self.seed);
        let tree = tr
            .span("scale", "ingest_tree", id, || {
                scale::ingest(self.tree, &mut tree_cl)
            })
            .expect("ingest tree");
        let (colors, color_rounds) = tr
            .span("scale", "ball_coloring", id, || {
                scale::ball_coloring(&mut tree_cl, &tree, color_seed, ws)
            })
            .expect("ball_coloring");
        let _ = tr.end(root);
        let ms = ms_since(t0);

        let minima = self
            .cycles_minima
            .get_or_insert_with(|| checks::component_minima(&csr));
        let check = checks::cc_labels(&self.ws.label[..csr.n()], minima)
            .and_then(|()| checks::mis(&csr, &self.ws.state[..csr.n()]))
            .and_then(|()| checks::coloring(&tree, &self.ws.color[..tree.n()], colors));
        let (cs, ts) = (cl.stats(), tree_cl.stats());
        Pass {
            ms,
            check,
            counts: vec![
                ("cc_labels.iterations", cc_iters as u64),
                ("luby_mis.rounds", luby_rounds as u64),
                ("luby_mis.size", mis_size as u64),
                ("ball_coloring.rounds", color_rounds as u64),
                ("ball_coloring.colors", u64::from(colors)),
                ("cycles.rounds", cs.rounds as u64),
                ("cycles.total_words", cs.total_words),
                ("tree.rounds", ts.rounds as u64),
                ("tree.total_words", ts.total_words),
            ],
            service: None,
        }
    }

    fn layers(&mut self, tr: &mut Tracer, first: &[(&'static str, u64)]) -> Vec<Metric> {
        let med = |tr: &Tracer, name| crate::stats::median(&tr.durations_ms("scale", name));
        let count = |name| crate::count(first, name);
        let cc_ms = med(tr, "cc_labels");
        let cc_iters = count("cc_labels.iterations");
        let csr = self.cycles.stream_csr();
        let cc_bytes = cc_bytes_per_iteration(&csr) * cc_iters;
        drop(csr);
        let mut metrics = vec![
            Metric::new("scale.ingest_cycles_ms", med(tr, "ingest_cycles"), "ms"),
            Metric::new("scale.ingest_tree_ms", med(tr, "ingest_tree"), "ms"),
            Metric::new("scale.cc_labels_ms", cc_ms, "ms"),
            Metric::new("scale.luby_mis_ms", med(tr, "luby_mis"), "ms"),
            Metric::new("scale.ball_coloring_ms", med(tr, "ball_coloring"), "ms"),
            Metric::new("scale.cc_labels_iters", cc_iters, "count"),
            Metric::new("scale.luby_mis_iters", count("luby_mis.rounds"), "count"),
            Metric::new(
                "scale.cc_labels_gbps",
                cc_bytes / (cc_ms / 1e3) / 1e9,
                "GB/s",
            ),
        ];
        // Sequential-mode call time over default-mode call time, median
        // of three alternating repetitions per mode.
        let (mut seq, mut par) = (Vec::new(), Vec::new());
        for rep in 0..3u64 {
            seq.push(self.kernel_times(ParallelismMode::Sequential, tr, 1000 + rep));
            par.push(self.kernel_times(ParallelismMode::auto(), tr, 2000 + rep));
        }
        let speedup = |k: usize| {
            let s: Vec<f64> = seq.iter().map(|t| t[k]).collect();
            let p: Vec<f64> = par.iter().map(|t| t[k]).collect();
            crate::stats::median(&s) / crate::stats::median(&p)
        };
        metrics.push(Metric::new("parallel.ingest_speedup", speedup(0), "ratio"));
        metrics.push(Metric::new(
            "parallel.cc_labels_speedup",
            speedup(1),
            "ratio",
        ));
        metrics.push(Metric::new(
            "parallel.luby_mis_speedup",
            speedup(2),
            "ratio",
        ));
        metrics.push(Metric::new(
            "parallel.ball_coloring_speedup",
            speedup(4),
            "ratio",
        ));
        // Roofline: a plain streaming read as large as the cc-labels
        // label/next/jumped buffers (3 × 8 MB at n = 10⁶).
        metrics.push(Metric::new(
            "roofline.stream_gbps",
            stream_gbps(3 * CYCLES_N, 5),
            "GB/s",
        ));
        metrics
    }
}
