//! The five per-file token lints, run over a parsed [`FileModel`].
//!
//! These are the cheap, zero-context checks: each looks at one file's
//! line-stamped token stream (comments and literal contents already
//! dropped by [`crate::lex`]) and its item structure from
//! [`crate::syntax`], never at the call graph. `#[cfg(test)]` tokens are
//! exempt from every lint. Findings are reported on the line of the token
//! that triggered them, sorted by `(line, lint)`; suppression is applied by
//! the caller ([`crate::suppress`]).

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::{Tok, TokKind};
use crate::syntax::{FileModel, FnItem};
use crate::{Diagnostic, Lint, Severity};

/// Runs the requested token lints over `fm`. Interprocedural lints in
/// `lints` are ignored (they need the whole workspace).
#[must_use]
pub fn run(fm: &FileModel, lints: &[Lint]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &lint in lints {
        let found = match lint {
            Lint::Nondeterminism => nondeterminism(fm),
            Lint::UnaccountedPrimitive => unaccounted_primitive(fm),
            Lint::RecoveryAccounting => recovery_accounting(fm),
            Lint::StabilityDiscipline => stability_discipline(fm),
            Lint::Determinism => determinism(fm),
            _ => Vec::new(),
        };
        out.extend(found.into_iter().map(|(line, message)| Diagnostic {
            lint,
            severity: Severity::Error,
            file: fm.path.clone(),
            line,
            message,
            witness: Vec::new(),
        }));
    }
    out.sort_by_key(|d| (d.line, d.lint));
    out
}

/// The whole token stream, as a span for [`code`].
const WHOLE_FILE: (usize, usize) = (0, usize::MAX);

/// Production (non-`#[cfg(test)]`) tokens of `fm` in `[a, b]`, with their
/// indices.
fn code(fm: &FileModel, (a, b): (usize, usize)) -> impl Iterator<Item = (usize, &Tok)> {
    let end = b.saturating_add(1).min(fm.toks.len());
    fm.toks[a.min(end)..end]
        .iter()
        .enumerate()
        .map(move |(k, t)| (a + k, t))
        .filter(|&(k, _)| !fm.test_mask[k])
}

/// The method name when `toks[k]` is an identifier called as a method
/// (`.name(`).
fn method_call(toks: &[Tok], k: usize) -> Option<&str> {
    let t = &toks[k];
    (t.kind == TokKind::Ident
        && k > 0
        && toks[k - 1].is_punct(".")
        && toks.get(k + 1).is_some_and(|n| n.is_punct("(")))
    .then_some(t.text.as_str())
}

const OS_ENTROPY: &str =
    "OS entropy breaks replicability (Definition 9); derive randomness from csmpc_graph::rng::Seed";

/// Forbidden identifiers, each with why.
const NONDET_TOKENS: &[(&str, &str)] = &[
    (
        "SystemTime",
        "wall-clock read; simulator runs must be replayable from csmpc_graph::rng::Seed (Definition 9)",
    ),
    (
        "Instant",
        "monotonic-clock read; simulator runs must be replayable from csmpc_graph::rng::Seed (Definition 9)",
    ),
    (
        "thread_rng",
        "OS-seeded RNG breaks replicability (Definition 9); derive randomness from csmpc_graph::rng::Seed",
    ),
    ("OsRng", OS_ENTROPY),
    ("from_entropy", OS_ENTROPY),
    ("getrandom", OS_ENTROPY),
    (
        "RandomState",
        "randomized hasher state makes iteration order nondeterministic; use BTreeMap/BTreeSet",
    ),
    (
        "HashMap",
        "iteration order is nondeterministic across runs; use BTreeMap so executions are replayable",
    ),
    (
        "HashSet",
        "iteration order is nondeterministic across runs; use BTreeSet so executions are replayable",
    ),
];

/// One finding per (line, forbidden identifier).
fn nondeterminism(fm: &FileModel) -> Vec<(usize, String)> {
    let hits: BTreeSet<(usize, usize)> = code(fm, WHOLE_FILE)
        .filter_map(|(_, t)| Some((t.line, NONDET_TOKENS.iter().position(|p| t.is_ident(p.0))?)))
        .collect();
    hits.into_iter()
        .map(|(line, idx)| {
            let (token, why) = NONDET_TOKENS[idx];
            (line, format!("use of `{token}`: {why}"))
        })
        .collect()
}

/// Identifiers that charge the `Stats` ledger (directly, or by running a
/// program whose rounds the engine charges).
const CHARGE_TOKENS: &[&str] = &[
    "charge_rounds",
    "charge_words",
    "charge_storage",
    "charge_recovery",
    "charge_replay",
    "require_fits",
    "run_program",
    "advance_rounds",
];

/// Name fragments that mark a function as a recovery path. Beyond the
/// checkpoint-restore family, the supervision layer's speculation,
/// quarantine, and backoff paths all consume real rounds/words and must
/// charge the ledger too.
const RECOVERY_KEYWORDS: &[&str] = &[
    "restore",
    "recover",
    "retry",
    "speculate",
    "quarantine",
    "backoff",
    "replay",
];

fn charges(fm: &FileModel, f: &FnItem) -> bool {
    fm.body_idents(f)
        .any(|t| CHARGE_TOKENS.contains(&t.text.as_str()))
}

/// Production fns with a body that `wants` selects and whose body never
/// charges. A selected fn's body is not searched for nested fns.
fn uncharged_fns(fm: &FileModel, wants: impl Fn(&FnItem) -> bool) -> impl Iterator<Item = &FnItem> {
    let mut resume = 0usize;
    fm.fns.iter().filter(move |f| {
        let Some((open, close)) = f.body else {
            return false;
        };
        if f.in_test || open < resume || !wants(f) {
            return false;
        }
        resume = close + 1;
        !charges(fm, f)
    })
}

fn unaccounted_primitive(fm: &FileModel) -> Vec<(usize, String)> {
    uncharged_fns(fm, |f| {
        f.is_pub && FileModel::flat_sig(f).contains("&mutCluster")
    })
    .map(|f| {
        (
            f.line,
            format!(
                "public primitive `{}` drives `&mut Cluster` but never charges the Stats ledger \
                 (expected one of charge_rounds/charge_words/charge_storage/charge_recovery/\
                 require_fits/run_program/advance_rounds); unaccounted primitives break the \
                 S = n^phi cost model",
                f.name
            ),
        )
    })
    .collect()
}

/// A fn mutates cluster state when it takes `&mut Cluster`, or `&mut self`
/// inside an inherent `impl Cluster` block.
fn recovery_accounting(fm: &FileModel) -> Vec<(usize, String)> {
    uncharged_fns(fm, |f| {
        let flat = FileModel::flat_sig(f);
        RECOVERY_KEYWORDS.iter().any(|kw| f.name.contains(kw))
            && (flat.contains("&mutCluster")
                || (flat.contains("&mutself") && fm.in_inherent_cluster_impl(f)))
    })
    .map(|f| {
        (
            f.line,
            format!(
                "recovery path `{}` mutates cluster state but never charges the Stats ledger; \
                 recovery is never free — replayed rounds and reshipped checkpoint words are \
                 real costs the model must see",
                f.name
            ),
        )
    })
    .collect()
}

/// Global-mixing methods a component-stable algorithm must not call. The
/// approved API is: `count_nodes`/`max_degree` (Definition 13 allows `n`
/// and `Δ`) and component-local primitives (`neighbor_reduce`,
/// `collect_balls`, `cc_labels`).
const GLOBAL_MIX_CALLS: &[(&str, &str)] = &[
    (
        "aggregate",
        "global aggregation mixes all components; Definition 13 allows a stable output to depend only on (CC(v), v, n, Delta, S)",
    ),
    (
        "broadcast",
        "broadcast hands every component a value of unrestricted origin; use count_nodes/max_degree for the global reads Definition 13 allows",
    ),
    (
        "select_best_global",
        "global winner selection is the canonical component-unstable step (Theorem 5)",
    ),
    (
        "amplify",
        "success amplification selects a global winner and is component-unstable (Theorem 5)",
    ),
];

/// `amplify` is also flagged as a free function; the others only as
/// methods.
const FREE_MIX_CALL: usize = 3;

/// Pseudo-index (after [`GLOBAL_MIX_CALLS`]) of a node-name read.
const NAME_READ: usize = GLOBAL_MIX_CALLS.len();

/// Scans every `impl MpcVertexAlgorithm for ...` whose
/// `component_stable()` body contains `true`: one finding per (line,
/// global-mix call), then one per line that reads a node name through
/// `.name(...)` on a receiver other than `self`.
fn stability_discipline(fm: &FileModel) -> Vec<(usize, String)> {
    let toks = &fm.toks;
    let mut hits = BTreeSet::new();
    let mut resume = 0usize;
    for (idx, im) in fm.impls.iter().enumerate() {
        let (open, close) = im.body;
        if im.trait_name.as_deref() != Some("MpcVertexAlgorithm")
            || open < resume
            || fm.test_mask[open]
        {
            continue;
        }
        resume = close + 1;
        let declares_stable = fm
            .fns
            .iter()
            .find(|f| f.impl_idx == Some(idx) && f.name == "component_stable")
            .is_some_and(|f| fm.body_idents(f).any(|t| t.text == "true"));
        if !declares_stable {
            continue;
        }
        for (k, t) in code(fm, im.body) {
            let method = method_call(toks, k);
            let free = t.kind == TokKind::Ident && toks.get(k + 1).is_some_and(|n| n.is_punct("("));
            if let Some(c) = GLOBAL_MIX_CALLS
                .iter()
                .position(|&(call, _)| t.text == call)
            {
                if method.is_some() || (free && c == FREE_MIX_CALL) {
                    hits.insert((t.line, c));
                }
            }
            if method == Some("name") && !(k >= 2 && toks[k - 2].is_ident("self")) {
                hits.insert((t.line, NAME_READ));
            }
        }
    }
    hits.into_iter()
        .map(|(line, c)| match GLOBAL_MIX_CALLS.get(c) {
            Some(&(call, why)) => (
                line,
                format!("component-stable-declared algorithm calls `{call}`: {why}"),
            ),
            None => (
                line,
                "component-stable-declared algorithm reads a node *name*; Definition 13 allows \
                 outputs to depend on IDs, never names"
                    .to_string(),
            ),
        })
        .collect()
}

/// Tokens that start a raw parallel-iterator chain. The
/// `csmpc_parallel::par_map*` helpers deliberately contain none of these
/// names, so code going through the approved entry points passes untouched.
const PAR_TOKENS: &[&str] = &["par_iter", "par_iter_mut", "into_par_iter", "par_bridge"];

/// How many lines a parallel chain may span before the lint gives up
/// looking for its order-fixing merge.
const PAR_CHAIN_MAX_LINES: usize = 40;

/// Comment marker naming a function as engine hot-path code; it must be
/// the whole comment on its line (prose that merely *mentions* the marker
/// does not mark anything). Marked functions run once per vertex per
/// round (or tighter); the reusable flat workspaces exist so they never
/// allocate an ordered map per call, and constructing one there silently
/// reintroduces the churn the workspaces removed.
const HOT_MARKER: &str = "// #[csmpc_hot]";

/// Ordered-map identifiers forbidden inside hot-marked function bodies,
/// in reporting priority (one finding per line).
const HOT_ALLOC_TOKENS: &[&str] = &["BTreeMap", "BTreeSet"];

fn determinism(fm: &FileModel) -> Vec<(usize, String)> {
    let mut out = hot_allocations(fm);
    out.extend(par_chains(fm));
    out
}

/// The hot-path arm: the first fn declared on or below each
/// [`HOT_MARKER`] comment must not mention an ordered map, in its body or
/// its signature (a hot fn returning a map builds one per call).
fn hot_allocations(fm: &FileModel) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, comment) in fm.comments.iter().enumerate() {
        if comment.trim() != HOT_MARKER {
            continue;
        }
        let Some(f) = fm.fns.iter().find(|f| f.line > idx) else {
            continue;
        };
        let Some((_, close)) = f.body else {
            continue;
        };
        // line -> highest-priority ordered-map token on it
        let mut lines: BTreeMap<usize, usize> = BTreeMap::new();
        for (_, t) in code(fm, (f.tok, close)) {
            if let Some(p) = HOT_ALLOC_TOKENS.iter().position(|&m| t.is_ident(m)) {
                lines
                    .entry(t.line)
                    .and_modify(|q| *q = p.min(*q))
                    .or_insert(p);
            }
        }
        out.extend(lines.into_iter().map(|(line, p)| {
            (
                line,
                format!(
                    "`{}` inside `#[csmpc_hot]`-marked `{}`: hot-path code must reuse the flat \
                     workspace buffers (csmpc_graph::ball::BallWorkspace) instead of paying a \
                     per-call ordered-map allocation",
                    HOT_ALLOC_TOKENS[p], f.name
                ),
            )
        }));
    }
    out
}

/// The parallel-chain arm. A chain runs from the line of a raw parallel
/// iterator token to the first line holding a `;` or `}` (at most
/// [`PAR_CHAIN_MAX_LINES`] lines); it must be merged by a `.collect*`
/// method and never consumed by `.for_each(...)`/`.reduce(...)`.
fn par_chains(fm: &FileModel) -> Vec<(usize, String)> {
    let toks = &fm.toks;
    let on_lines = |first: usize, last: usize| {
        let a = toks.partition_point(|t| t.line < first);
        let b = toks.partition_point(|t| t.line <= last);
        a..b
    };
    let mut out = Vec::new();
    let mut done_through = 0usize;
    for (_, t) in code(fm, WHOLE_FILE) {
        if t.line <= done_through
            || t.kind != TokKind::Ident
            || !PAR_TOKENS.contains(&t.text.as_str())
        {
            continue;
        }
        let start = t.line;
        let cap = start + PAR_CHAIN_MAX_LINES - 1;
        let end = toks[on_lines(start, cap)]
            .iter()
            .find(|t| t.is_punct(";") || t.is_punct("}"))
            .map_or(cap, |t| t.line);
        done_through = end;
        let chain = on_lines(start, end);
        let consumed = chain
            .clone()
            .any(|k| matches!(method_call(toks, k), Some("for_each" | "reduce")));
        let merged = chain.clone().any(|k| {
            toks[k].is_punct(".")
                && toks
                    .get(k + 1)
                    .is_some_and(|m| m.kind == TokKind::Ident && m.text.starts_with("collect"))
        });
        if consumed {
            out.push((
                start,
                "parallel iterator chain is consumed by `.for_each`/`.reduce`, whose \
                 side-effect/merge order is unspecified; materialize results with an \
                 order-preserving `.collect()` (or use csmpc_parallel::par_map*) so sequential \
                 and parallel runs stay bit-identical"
                    .to_string(),
            ));
        } else if !merged {
            out.push((
                start,
                "parallel iterator chain never materializes through an order-preserving \
                 `.collect()`; results must be merged in item-index order (or use \
                 csmpc_parallel::par_map*) so sequential and parallel runs stay bit-identical"
                    .to_string(),
            ));
        }
    }
    out
}
