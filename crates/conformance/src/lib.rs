//! # csmpc-conformance
//!
//! The **static half** of the model-conformance analyzer: a self-contained,
//! dependency-free source scanner that enforces the repository's MPC-model
//! discipline (the runtime half lives in `csmpc_core::conformance`).
//!
//! One front end feeds every lint: a dependency-free lexer ([`lex`])
//! turns each file into line-stamped tokens plus a per-line comment table,
//! and an item parser ([`syntax`]) recovers functions, impl blocks, call
//! sites and `#[cfg(test)]` regions. Two layers of lints run on that
//! model and share one diagnostic type:
//!
//! 1. **Token lints** ([`token_lints`]) — per-file, zero-context scans of
//!    the token stream and item structure.
//! 2. **Interprocedural passes** ([`charge_flow`], [`races`],
//!    [`stability_flow`]) — a workspace call graph ([`callgraph`]) lifts
//!    the accounting and stability lints from textual to transitive, and
//!    adds parallel-closure race detection.
//!
//! [`analyze_workspace`] walks `crates/*/src`, runs both layers, applies
//! `csmpc-allow` suppressions ([`suppress`]) and reports unused ones;
//! [`baseline`] gates CI on *new* findings only. [`check_source`] runs the
//! token lints over a single source text.
//!
//! The lints, each tied to a definition of the source paper
//! (*Component Stability in Low-Space Massively Parallel Computation*,
//! PODC 2021):
//!
//! * [`Lint::Nondeterminism`] — simulator code must be replayable from the
//!   shared seed (Definition 9, replicability). Wall-clock reads
//!   (`SystemTime`, `Instant`), OS entropy (`thread_rng`, `OsRng`, …) and
//!   order-nondeterministic collections (`HashMap`, `HashSet`) are
//!   forbidden in non-test code of `crates/algorithms`, `crates/mpc`, and
//!   `crates/derand`; all randomness must derive from
//!   `csmpc_graph::rng::Seed`.
//! * [`Lint::UnaccountedPrimitive`] — every public graph-touching
//!   primitive in `crates/mpc/src/distributed.rs` that drives a
//!   `&mut Cluster` must charge the `Stats` ledger (via `charge_rounds`,
//!   `charge_words`, `charge_storage`, `charge_recovery`, `charge_replay`,
//!   `require_fits`, `run_program`, or `advance_rounds`) before returning.
//!   Unaccounted primitives silently break the paper's round/space cost
//!   model (`S = n^φ`, Section 2.4.2).
//! * [`Lint::RecoveryAccounting`] — in `crates/mpc/src/**` and
//!   `crates/service/src/**`, a function whose name marks it as a recovery
//!   path (`restore`, `recover`, `retry`, `speculate`, `quarantine`,
//!   `backoff`, or `replay`) and that mutates cluster state
//!   (`&mut Cluster` in its signature, or `&mut self` inside an inherent
//!   `impl Cluster` block) must charge the `Stats` ledger. Recovery is never free: replaying
//!   rounds from a checkpoint and reshipping machine state are real costs
//!   the cost model must see.
//! * [`Lint::StabilityDiscipline`] — an `MpcVertexAlgorithm` impl that
//!   declares `component_stable() == true` (Definition 13) must not reach
//!   global quantities except through the approved API: `count_nodes` and
//!   `max_degree` (Definition 13 allows `n` and `Δ`), and the
//!   component-local primitives (`neighbor_reduce`, `collect_balls`,
//!   `cc_labels`). Global mixes (`aggregate`, `broadcast`,
//!   `select_best_global`, `amplify`) and node-*name* reads (`g.name(v)` —
//!   stable outputs may depend on IDs, never names) are flagged.
//! * [`Lint::Determinism`] — parallel iterator chains in the simulator
//!   crates must materialize their results through an order-preserving
//!   merge. A raw `par_iter`/`into_par_iter` chain must end in `.collect()`
//!   (index order fixed by the executor) and must not be consumed by
//!   `.for_each(...)` or `.reduce(...)`, whose side-effect/merge order is
//!   unspecified in general rayon. The `csmpc_parallel::par_map*` helpers
//!   are the approved entry points and pass by construction. The lint also
//!   enforces the hot-path allocation discipline: a function marked with a
//!   `// #[csmpc_hot]` comment must not touch ordered maps
//!   (`BTreeMap`/`BTreeSet`) in its signature or body — the reusable flat
//!   workspaces (`csmpc_graph::ball::BallWorkspace`) exist precisely so
//!   the hot paths never pay a per-call map allocation.
//! * [`Lint::ChargeFlow`] — transitive cost accounting: every function
//!   reachable from an engine entry point that mutates cluster state and
//!   touches communication machinery must reach a `Stats` charge through
//!   some call path (see [`charge_flow`]).
//! * [`Lint::ParClosureRace`] — closures handed to the
//!   `csmpc_parallel::par_map*` helpers must not capture mutable state,
//!   use interior mutability, or iterate unordered maps (see [`races`]).
//! * [`Lint::StabilityFlow`] — `MpcVertexAlgorithm` impls that reach
//!   component-provenance machinery must declare `component_stable()`
//!   explicitly, and claimed-stable impls must not transitively reach a
//!   cross-component mix (see [`stability_flow`]).
//! * [`Lint::UnusedSuppression`] — a `csmpc-allow` annotation that
//!   silences nothing is itself a finding (see [`suppress`]).
//!
//! Diagnostics carry `file:line` locations. The only suppression syntax
//! is `// csmpc-allow(<lint>): <reason>` (or `csmpc-allow(all): <reason>`)
//! on the same or the immediately preceding line; the reason is
//! mandatory, and an annotation without one suppresses nothing.
//! [`Report::to_json`] and [`Report::to_sarif`] render machine-readable
//! output.
//!
//! The front end deliberately stops short of a full Rust parser: the lints
//! need identifier-level precision and item boundaries, and a
//! zero-dependency analyzer can run anywhere the workspace builds.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod callgraph;
pub mod charge_flow;
pub mod lex;
pub mod races;
pub mod stability_flow;
pub mod suppress;
pub mod syntax;
pub mod token_lints;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lints the analyzer knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Forbidden sources of nondeterminism (breaks Definition 9
    /// replicability).
    Nondeterminism,
    /// A public cluster-driving primitive that never charges the `Stats`
    /// ledger.
    UnaccountedPrimitive,
    /// A recovery/restore/retry path that mutates cluster state without
    /// charging the `Stats` ledger (recovery must never be free).
    RecoveryAccounting,
    /// A component-stable-declared algorithm reaching global quantities
    /// outside the approved API (breaks Definition 13).
    StabilityDiscipline,
    /// A parallel iterator chain consumed without an order-preserving merge
    /// (results must be `.collect()`ed in index order; unordered
    /// `.for_each`/`.reduce` consumption breaks sequential/parallel
    /// bit-identity).
    Determinism,
    /// Transitive accounting: a reachable cluster-mutating function touches
    /// communication machinery with no call path reaching a `Stats` charge.
    ChargeFlow,
    /// A `par_map*` closure captures mutable state, uses interior
    /// mutability, or iterates an unordered map.
    ParClosureRace,
    /// An `MpcVertexAlgorithm` impl touching provenance machinery without
    /// an explicit `component_stable()` declaration, or a claimed-stable
    /// impl transitively reaching a cross-component mix.
    StabilityFlow,
    /// A `csmpc-allow` suppression that silences nothing.
    UnusedSuppression,
}

impl Lint {
    /// The lint's machine-readable name (used in `allow(...)` suppressions
    /// and JSON output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Lint::Nondeterminism => "nondeterminism",
            Lint::UnaccountedPrimitive => "unaccounted-primitive",
            Lint::RecoveryAccounting => "recovery-accounting",
            Lint::StabilityDiscipline => "stability-discipline",
            Lint::Determinism => "determinism",
            Lint::ChargeFlow => "charge-flow",
            Lint::ParClosureRace => "par-closure-race",
            Lint::StabilityFlow => "stability-flow",
            Lint::UnusedSuppression => "unused-suppression",
        }
    }

    /// Parses a lint name (as used in suppression comments).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Lint> {
        match name {
            "nondeterminism" => Some(Lint::Nondeterminism),
            "unaccounted-primitive" => Some(Lint::UnaccountedPrimitive),
            "recovery-accounting" => Some(Lint::RecoveryAccounting),
            "stability-discipline" => Some(Lint::StabilityDiscipline),
            "determinism" => Some(Lint::Determinism),
            "charge-flow" => Some(Lint::ChargeFlow),
            "par-closure-race" => Some(Lint::ParClosureRace),
            "stability-flow" => Some(Lint::StabilityFlow),
            "unused-suppression" => Some(Lint::UnusedSuppression),
            _ => None,
        }
    }

    /// Every lint, in stable order (drives SARIF rule metadata and docs).
    pub const ALL: &'static [Lint] = &[
        Lint::Nondeterminism,
        Lint::UnaccountedPrimitive,
        Lint::RecoveryAccounting,
        Lint::StabilityDiscipline,
        Lint::Determinism,
        Lint::ChargeFlow,
        Lint::ParClosureRace,
        Lint::StabilityFlow,
        Lint::UnusedSuppression,
    ];

    /// One-line rule description (SARIF rule metadata, README table).
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Lint::Nondeterminism => {
                "forbidden nondeterminism source (wall clock, OS entropy, unordered map) in \
                 replayable simulator code (Definition 9)"
            }
            Lint::UnaccountedPrimitive => {
                "public &mut Cluster primitive whose own body never charges the Stats ledger"
            }
            Lint::RecoveryAccounting => {
                "recovery/restore/retry path mutating cluster state without charging the Stats \
                 ledger"
            }
            Lint::StabilityDiscipline => {
                "component-stable-declared algorithm calling a global-mix API or reading node \
                 names (Definition 13)"
            }
            Lint::Determinism => {
                "parallel iterator chain without an order-preserving merge, or ordered-map \
                 allocation in a #[csmpc_hot] body"
            }
            Lint::ChargeFlow => {
                "reachable cluster-mutating function touches communication machinery with no \
                 call path reaching a Stats charge"
            }
            Lint::ParClosureRace => {
                "par_map* closure captures mutable state, uses interior mutability, or iterates \
                 an unordered map"
            }
            Lint::StabilityFlow => {
                "MpcVertexAlgorithm impl touching provenance without an explicit \
                 component_stable() declaration, or a claimed-stable impl reaching a \
                 cross-component mix"
            }
            Lint::UnusedSuppression => "csmpc-allow annotation that silences nothing",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Finding severity. Both levels fail a baseline-gated build when new;
/// the distinction feeds SARIF `level` and lets downstream tooling rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Should be fixed or explicitly suppressed, but does not by itself
    /// contradict a paper invariant.
    Warning,
    /// Contradicts a model invariant (cost accounting, Definition 9/13).
    Error,
}

impl Severity {
    /// Machine-readable name (`"warning"` / `"error"`, as in SARIF).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, anchored to a `file:line` location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// How severe the finding is.
    pub severity: Severity,
    /// File the finding is in (as passed to the checker; the workspace
    /// scanner uses workspace-relative paths).
    pub file: PathBuf,
    /// 1-indexed line of the finding.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Call-chain witness for interprocedural findings (function names,
    /// entry point first); empty for token-level findings.
    pub witness: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.file.display(),
            self.line,
            self.severity,
            self.lint,
            self.message
        )?;
        if !self.witness.is_empty() {
            write!(f, " (call chain: {})", self.witness.join(" -> "))?;
        }
        Ok(())
    }
}

/// Result of scanning a set of files.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in (file, line) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// `true` when no lint fired.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Canonicalizes the finding list: sorted by `(file, line, lint)` and
    /// exact duplicates removed, so output is deterministic regardless of
    /// pass execution order.
    pub fn normalize(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
        self.diagnostics.dedup();
    }

    /// Machine-readable JSON summary.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"violations\": {},\n", self.diagnostics.len()));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let witness = d
                .witness
                .iter()
                .map(|w| format!("\"{}\"", json_escape(w)))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "\n    {{\"lint\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \
                 \"line\": {}, \"message\": \"{}\", \"witness\": [{witness}]}}",
                d.lint,
                d.severity,
                json_escape(&d.file.display().to_string()),
                d.line,
                json_escape(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// SARIF 2.1.0 log for code-scanning upload: one run, one rule per
    /// lint, one result per finding (witness rendered into the message).
    #[must_use]
    pub fn to_sarif(&self) -> String {
        let mut out = String::from(
            "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
             \"driver\": {\n          \"name\": \"csmpc-conformance\",\n          \
             \"informationUri\": \"https://arxiv.org/abs/2106.01880\",\n          \"rules\": [",
        );
        for (i, lint) in Lint::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
                lint.name(),
                json_escape(lint.description())
            ));
        }
        out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut message = d.message.clone();
            if !d.witness.is_empty() {
                message.push_str(&format!(" [call chain: {}]", d.witness.join(" -> ")));
            }
            out.push_str(&format!(
                "\n        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"{}\",\n          \
                 \"message\": {{\"text\": \"{}\"}},\n          \"locations\": [\n            \
                 {{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
                 \"region\": {{\"startLine\": {}}}}}}}\n          ]\n        }}",
                d.lint,
                d.severity,
                json_escape(&message),
                json_escape(&d.file.display().to_string()),
                d.line
            ));
        }
        out.push_str("\n      ]\n    }\n  ]\n}\n");
        out
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs the given token lints ([`token_lints`]) over one source text and
/// drops findings silenced by a `csmpc-allow` annotation. `file` is used
/// only for diagnostic locations. Interprocedural lints and
/// unused-suppression reporting need the whole source set; they run in
/// [`analyze_sources`].
#[must_use]
pub fn check_source(file: &Path, source: &str, lints: &[Lint]) -> Vec<Diagnostic> {
    let fm = syntax::parse_file(file.to_path_buf(), source);
    suppress::filter(&fm.comments, token_lints::run(&fm, lints))
}

/// The lints that apply to a workspace-relative path (`/`-separated).
#[must_use]
pub fn lints_for_path(rel: &str) -> Vec<Lint> {
    let mut lints = vec![Lint::StabilityDiscipline];
    const NONDET_ROOTS: &[&str] = &[
        "crates/algorithms/src/",
        "crates/mpc/src/",
        "crates/derand/src/",
    ];
    if NONDET_ROOTS.iter().any(|p| rel.starts_with(p)) {
        lints.push(Lint::Nondeterminism);
    }
    if rel == "crates/mpc/src/distributed.rs" {
        lints.push(Lint::UnaccountedPrimitive);
    }
    // The service crate hosts the crash-recovery replay paths
    // (`recover`/`replay_journal`): replayed journal frames are real
    // work the ledger must see, so it shares the recovery-accounting
    // root with the engine.
    if rel.starts_with("crates/mpc/src/") || rel.starts_with("crates/service/src/") {
        lints.push(Lint::RecoveryAccounting);
    }
    const DETERMINISM_ROOTS: &[&str] = &[
        "crates/mpc/src/",
        "crates/local/src/",
        "crates/core/src/",
        "crates/algorithms/src/",
        "crates/derand/src/",
        "crates/parallel/src/",
        // The graph crate hosts the `#[csmpc_hot]`-marked ball workspace
        // kernels; the hot-path allocation arm polices them.
        "crates/graph/src/",
        // The job service promises bit-identical per-job outputs under
        // concurrent scheduling, so its sources obey the same ordered-
        // collection discipline. (It is deliberately NOT a nondeterminism
        // root: wall-clock observability like per-job latency is allowed
        // there, excluded from fingerprints by construction.)
        "crates/service/src/",
    ];
    if DETERMINISM_ROOTS.iter().any(|p| rel.starts_with(p)) {
        lints.push(Lint::Determinism);
    }
    lints
}

/// The entries of `dir`, sorted — a deterministic scan order, as the
/// analyzer obeys its own nondeterminism rule.
fn sorted_paths(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<Vec<_>>>()?;
    paths.sort();
    Ok(paths)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for path in sorted_paths(dir)? {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs **both** analysis layers — the token lints ([`token_lints`],
/// path-gated by [`lints_for_path`]) and the interprocedural
/// passes ([`charge_flow`], [`races`], [`stability_flow`]) — over an
/// in-memory source set, applies `csmpc-allow` suppressions, reports
/// unused suppressions, and returns a normalized (sorted, deduped) report.
///
/// Paths are used both for diagnostics and for the path-gating of the
/// token lints, so pass workspace-relative `/`-separated paths.
#[must_use]
pub fn analyze_sources(sources: &[(PathBuf, String)]) -> Report {
    let files: Vec<syntax::FileModel> = sources
        .iter()
        .map(|(path, src)| syntax::parse_file(path.clone(), src))
        .collect();
    let graph = callgraph::CallGraph::build(&files);
    let mut pass_findings = Vec::new();
    pass_findings.extend(charge_flow::run(&files, &graph));
    pass_findings.extend(races::run(&files, &graph));
    pass_findings.extend(stability_flow::run(&files, &graph));

    let mut report = Report::default();
    for fm in &files {
        let rel = fm.path.display().to_string();
        let mut file_findings = token_lints::run(fm, &lints_for_path(&rel));
        file_findings.extend(pass_findings.iter().filter(|d| d.file == fm.path).cloned());
        report
            .diagnostics
            .extend(suppress::apply(&fm.path, &fm.comments, file_findings));
        report.files_scanned += 1;
    }
    report.normalize();
    report
}

/// The workspace scan (the only one): reads `<root>/crates/*/src/**/*.rs`
/// and runs [`analyze_sources`] over it. Diagnostics use workspace-relative
/// paths.
///
/// # Errors
///
/// I/O errors reading the tree.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for crate_dir in sorted_paths(&root.join("crates"))? {
        let src = crate_dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    let sources = files
        .into_iter()
        .map(|file| {
            let rel: Vec<_> = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect();
            Ok((PathBuf::from(rel.join("/")), fs::read_to_string(&file)?))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(analyze_sources(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nondeterminism_flags_clock_and_hash() {
        let src = "use std::time::Instant;\nfn f() { let m = HashMap::new(); }\n";
        let d = check_source(Path::new("x.rs"), src, &[Lint::Nondeterminism]);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].line, 1);
        assert_eq!(d[1].line, 2);
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        let d = check_source(Path::new("x.rs"), src, &[Lint::Nondeterminism]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unaccounted_primitive_fires_and_charged_passes() {
        let src = "\
impl Dg {
    pub fn counted(&self, cluster: &mut Cluster) -> usize {
        cluster.charge_rounds(1);
        0
    }
    pub fn leaky(&self, cluster: &mut Cluster) -> usize {
        let _ = cluster;
        0
    }
}
";
        let d = check_source(Path::new("x.rs"), src, &[Lint::UnaccountedPrimitive]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 6);
        assert!(d[0].message.contains("leaky"));
    }

    #[test]
    fn unaccounted_ignores_cluster_free_fns() {
        let src = "pub fn pure(x: usize) -> usize { x + 1 }\n";
        let d = check_source(Path::new("x.rs"), src, &[Lint::UnaccountedPrimitive]);
        assert!(d.is_empty());
    }

    #[test]
    fn stability_discipline_fires_only_when_declared_stable() {
        let stable = "\
impl MpcVertexAlgorithm for A {
    fn component_stable(&self) -> bool {
        true
    }
    fn run(&self) {
        let t = dg.aggregate(cluster, &v, f);
        let nm = g.name(0);
        let me = self.name();
    }
}
";
        let d = check_source(Path::new("x.rs"), stable, &[Lint::StabilityDiscipline]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].line, 6);
        assert_eq!(d[1].line, 7);

        let unstable = stable.replace("true", "false");
        let d = check_source(Path::new("x.rs"), &unstable, &[Lint::StabilityDiscipline]);
        assert!(d.is_empty(), "{d:?}");

        let undeclared = "\
impl MpcVertexAlgorithm for B {
    fn run(&self) {
        let t = dg.aggregate(cluster, &v, f);
    }
}
";
        let d = check_source(Path::new("x.rs"), undeclared, &[Lint::StabilityDiscipline]);
        assert!(d.is_empty(), "default component_stable() is false: {d:?}");
    }

    #[test]
    fn recovery_accounting_fires_on_uncharged_restore_paths() {
        let src = "\
impl Cluster {
    fn restore_checkpoint(&mut self, cp: &Checkpoint) -> usize {
        self.inboxes = cp.inboxes.clone();
        cp.words()
    }
    fn recover_machine(&mut self, machine: usize) {
        self.charge_rounds(1);
        let _ = machine;
    }
    pub fn recovery_log(&self) -> usize {
        0
    }
}
pub fn retry_send(cluster: &mut Cluster) {
    let _ = cluster;
}
";
        let d = check_source(Path::new("x.rs"), src, &[Lint::RecoveryAccounting]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("restore_checkpoint"));
        assert_eq!(d[1].line, 14);
        assert!(d[1].message.contains("retry_send"));
    }

    #[test]
    fn recovery_accounting_ignores_non_cluster_impls() {
        // `&mut self` outside an inherent `impl Cluster` block is not
        // cluster state: MachineProgram::restore on a user program is free.
        let src = "\
impl MachineProgram for TreeSum {
    fn restore(&mut self, snapshot: &[u64]) {
        self.acc = snapshot[0];
    }
}
trait MachineProgram {
    fn restore(&mut self, snapshot: &[u64]) {
        let _ = snapshot;
    }
}
impl Display for Cluster {
    fn recover_name(&mut self) -> usize {
        0
    }
}
";
        let d = check_source(Path::new("x.rs"), src, &[Lint::RecoveryAccounting]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn recovery_accounting_accepts_advance_rounds_as_charge() {
        let src = "\
pub fn retry_with_backoff(cluster: &mut Cluster) -> Result<(), MpcError> {
    cluster.advance_rounds(1)
}
";
        let d = check_source(Path::new("x.rs"), src, &[Lint::RecoveryAccounting]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn determinism_flags_unordered_consumption() {
        let src = "\
fn racy(items: &[u64], total: &AtomicU64) {
    items.par_iter().for_each(|&x| {
        total.fetch_add(x, Ordering::Relaxed);
    });
}
";
        let d = check_source(Path::new("x.rs"), src, &[Lint::Determinism]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("for_each"));
    }

    #[test]
    fn determinism_flags_collect_free_chain() {
        let src = "fn f(v: &[u64]) -> usize { v.par_iter().count() }\n";
        let d = check_source(Path::new("x.rs"), src, &[Lint::Determinism]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("collect"));
    }

    #[test]
    fn determinism_accepts_collected_chains() {
        let src = "\
fn doubled(v: Vec<u64>) -> Vec<u64> {
    v.into_par_iter().map(|x| x * 2).collect()
}
fn spread(v: &[u64]) -> Vec<u64> {
    v
        .par_iter()
        .map(|x| x * 2)
        .collect()
}
";
        let d = check_source(Path::new("x.rs"), src, &[Lint::Determinism]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn determinism_ignores_sequential_reduce_and_helpers() {
        // A plain iterator reduce and the approved par_map* helpers carry
        // none of the parallel tokens.
        let src = "\
fn fold(v: &[u64]) -> Option<u64> {
    v.iter().copied().reduce(|a, b| a + b)
}
fn swept(mode: ParallelismMode, v: &[u64]) -> Vec<u64> {
    par_map(mode, v, |_, x| x * 2)
}
";
        let d = check_source(Path::new("x.rs"), src, &[Lint::Determinism]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn hot_marked_functions_must_not_touch_ordered_maps() {
        let src = "\
// #[csmpc_hot]
fn ball_extent(&mut self, g: &Graph, v: usize) -> usize {
    let index: BTreeMap<u64, usize> = (0..4u64).map(|i| (i, 0)).collect();
    let mut seen = BTreeSet::new();
    seen.insert(0u64);
    index.len() + seen.len()
}
fn unmarked_helper() -> usize {
    let m: BTreeMap<u64, u64> = BTreeMap::new();
    m.len()
}
";
        let d = check_source(Path::new("x.rs"), src, &[Lint::Determinism]);
        assert_eq!(lines_of_test(&d), vec![3, 4], "{d:?}");
        assert!(d[0].message.contains("ball_extent"));
        assert!(d[0].message.contains("BTreeMap"));
        assert!(d[1].message.contains("BTreeSet"));
    }

    #[test]
    fn hot_marker_arm_is_suppressible_and_ignores_flat_bodies() {
        let src = "\
// #[csmpc_hot]
fn flat(&mut self, scratch: &mut Vec<u64>) -> usize {
    scratch.clear();
    scratch.len()
}
// #[csmpc_hot]
fn audited(&mut self) -> usize {
    // csmpc-allow(determinism): audited one-off construction
    let tmp = BTreeMap::from([(0u64, 1u64)]);
    tmp.len()
}
";
        let d = check_source(Path::new("x.rs"), src, &[Lint::Determinism]);
        assert!(d.is_empty(), "{d:?}");
    }

    fn lines_of_test(diags: &[Diagnostic]) -> Vec<usize> {
        diags.iter().map(|d| d.line).collect()
    }

    #[test]
    fn determinism_suppressible_like_any_lint() {
        let src = "\
// csmpc-allow(determinism): serial count on a tiny slice
fn counted(v: &[u64]) -> usize { v.par_iter().count() }
";
        let d = check_source(Path::new("x.rs"), src, &[Lint::Determinism]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn lint_selection_by_path() {
        assert!(
            lints_for_path("crates/mpc/src/distributed.rs").contains(&Lint::UnaccountedPrimitive)
        );
        assert!(lints_for_path("crates/mpc/src/cluster.rs").contains(&Lint::RecoveryAccounting));
        assert!(lints_for_path("crates/mpc/src/faults.rs").contains(&Lint::RecoveryAccounting));
        assert!(!lints_for_path("crates/core/src/runner.rs").contains(&Lint::RecoveryAccounting));
        assert!(lints_for_path("crates/algorithms/src/luby.rs").contains(&Lint::Nondeterminism));
        assert!(!lints_for_path("crates/graph/src/graph.rs").contains(&Lint::Nondeterminism));
        assert!(lints_for_path("crates/graph/src/graph.rs").contains(&Lint::StabilityDiscipline));
        assert!(lints_for_path("crates/mpc/src/cluster.rs").contains(&Lint::Determinism));
        assert!(lints_for_path("crates/local/src/engine.rs").contains(&Lint::Determinism));
        assert!(lints_for_path("crates/parallel/src/lib.rs").contains(&Lint::Determinism));
        assert!(lints_for_path("crates/core/src/runner.rs").contains(&Lint::Determinism));
        // The graph crate joined the determinism roots with the hot-path
        // workspace kernels (`#[csmpc_hot]` allocation policing).
        assert!(lints_for_path("crates/graph/src/ball.rs").contains(&Lint::Determinism));
        assert!(!lints_for_path("crates/bench/src/bin/perf.rs").contains(&Lint::Determinism));
        // The job service is a determinism root (ordered collections,
        // bit-identical per-job outputs) but not a nondeterminism root:
        // wall-clock latency observability is legitimate there.
        assert!(lints_for_path("crates/service/src/scheduler.rs").contains(&Lint::Determinism));
        assert!(!lints_for_path("crates/service/src/scheduler.rs").contains(&Lint::Nondeterminism));
    }

    #[test]
    fn json_summary_is_well_formed() {
        let diagnostics = check_source(
            Path::new("a.rs"),
            "use std::time::Instant;\n",
            &[Lint::Nondeterminism],
        );
        let r = Report {
            diagnostics,
            files_scanned: 2,
        };
        let js = r.to_json();
        assert!(js.contains("\"violations\": 1"), "{js}");
        assert!(js.contains("\"line\": 1"), "{js}");
        assert!(js.contains("\"lint\": \"nondeterminism\""), "{js}");
    }

    #[test]
    fn run_all_lints_on_clean_source() {
        let src = "\
pub fn count(cluster: &mut Cluster) -> usize {
    cluster.charge_rounds(1);
    let m = std::collections::BTreeMap::<u64, u64>::new();
    m.len()
}
";
        let d = check_source(Path::new("x.rs"), src, Lint::ALL);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn lint_names_round_trip() {
        for &lint in Lint::ALL {
            assert_eq!(Lint::from_name(lint.name()), Some(lint));
        }
    }

    #[test]
    fn analyze_sources_runs_both_layers_and_normalizes() {
        // One file with a token-level finding (HashMap in a nondeterminism
        // root) and an interprocedural one (uncharged comm helper).
        let src = "\
use std::collections::HashMap;
pub fn leak(cluster: &mut Cluster) {
    raw(cluster);
    cluster.charge_rounds(1);
}
fn raw(cluster: &mut Cluster) {
    cluster.inboxes.swap(0, 1);
}
";
        let sources = vec![(PathBuf::from("crates/mpc/src/x.rs"), src.to_string())];
        let report = analyze_sources(&sources);
        let lints: Vec<Lint> = report.diagnostics.iter().map(|d| d.lint).collect();
        assert!(lints.contains(&Lint::Nondeterminism), "{report:?}");
        assert!(lints.contains(&Lint::ChargeFlow), "{report:?}");
        // Normalized: sorted by (file, line, lint).
        let keys: Vec<(String, usize, Lint)> = report
            .diagnostics
            .iter()
            .map(|d| (d.file.display().to_string(), d.line, d.lint))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn analyze_sources_honors_csmpc_allow_and_flags_unused() {
        let src = "\
pub fn leak(cluster: &mut Cluster) {
    cluster.charge_rounds(1);
    raw(cluster);
}
// csmpc-allow(charge-flow): fixture exercises the raw wire path on purpose
fn raw(cluster: &mut Cluster) {
    cluster.inboxes.swap(0, 1);
}
// csmpc-allow(par-closure-race): nothing here to suppress
fn idle() {}
";
        let sources = vec![(PathBuf::from("crates/mpc/src/x.rs"), src.to_string())];
        let report = analyze_sources(&sources);
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.lint == Lint::ChargeFlow),
            "{report:?}"
        );
        let unused: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::UnusedSuppression)
            .collect();
        assert_eq!(unused.len(), 1, "{report:?}");
        assert_eq!(unused[0].line, 9);
    }

    #[test]
    fn sarif_output_is_parseable_and_complete() {
        let src = "use std::time::Instant;\n";
        let sources = vec![(PathBuf::from("crates/mpc/src/x.rs"), src.to_string())];
        let report = analyze_sources(&sources);
        assert!(!report.is_clean());
        let sarif = report.to_sarif();
        let doc = baseline::parse_json(&sarif).expect("SARIF must be valid JSON");
        let runs = doc.get("runs").expect("runs");
        let baseline::Json::Arr(runs) = runs else {
            panic!("runs not an array")
        };
        let results = runs[0].get("results").expect("results");
        let baseline::Json::Arr(results) = results else {
            panic!("results not an array")
        };
        assert_eq!(results.len(), report.diagnostics.len());
        assert_eq!(
            results[0].get("ruleId").and_then(baseline::Json::as_str),
            Some("nondeterminism")
        );
    }

    #[test]
    fn report_json_is_parseable_with_new_fields() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                lint: Lint::ChargeFlow,
                severity: Severity::Error,
                file: PathBuf::from("a.rs"),
                line: 3,
                message: "m \"quoted\"".into(),
                witness: vec!["entry".into(), "helper".into()],
            }],
            files_scanned: 1,
        };
        let doc = baseline::parse_json(&report.to_json()).expect("valid JSON");
        let diags = doc.get("diagnostics").expect("diagnostics");
        let baseline::Json::Arr(diags) = diags else {
            panic!("not an array")
        };
        assert_eq!(
            diags[0].get("severity").and_then(baseline::Json::as_str),
            Some("error")
        );
        let witness = diags[0].get("witness").expect("witness");
        let baseline::Json::Arr(w) = witness else {
            panic!("witness not an array")
        };
        assert_eq!(w.len(), 2);
    }
}
