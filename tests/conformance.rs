//! Workspace-level model-conformance gate.
//!
//! The full static analyzer (`csmpc-conformance`: token lints plus the
//! interprocedural charge-flow, par-closure-race and stability-flow
//! passes, with suppression hygiene) runs over the entire workspace from
//! this integration test, so `cargo test` fails the moment anyone
//! introduces a nondeterminism source, an unaccounted primitive, an
//! uncharged recovery path, a stability-discipline breach, or a stale
//! `csmpc-allow`. The same scan is available as a binary
//! (`cargo run -p csmpc-conformance --bin conformance`).

use std::path::Path;

use csmpc_conformance::{analyze_workspace, check_source, Lint};

#[test]
fn workspace_has_zero_conformance_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = analyze_workspace(root).expect("workspace scan");
    assert!(
        report.files_scanned >= 40,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "conformance violations:\n{}",
        report.to_json()
    );
}

#[test]
fn the_gate_actually_bites() {
    // Guard against the scanner rotting into a yes-machine: a seeded
    // violation of each lint must still be caught.
    let nondet = "use std::time::Instant;\n";
    assert_eq!(
        check_source(Path::new("x.rs"), nondet, &[Lint::Nondeterminism]).len(),
        1
    );

    let unaccounted = "pub fn probe(cluster: &mut Cluster) -> usize {\n    0\n}\n";
    assert_eq!(
        check_source(
            Path::new("x.rs"),
            unaccounted,
            &[Lint::UnaccountedPrimitive]
        )
        .len(),
        1
    );

    let unstable = "\
impl MpcVertexAlgorithm for Liar {
    fn component_stable(&self) -> bool { true }
    fn run(&self) { dg.aggregate(cluster, &v, f); }
}
";
    assert_eq!(
        check_source(Path::new("x.rs"), unstable, &[Lint::StabilityDiscipline]).len(),
        1
    );

    let free_recovery = "\
pub fn restore_inboxes(cluster: &mut Cluster, cp: &Checkpoint) {
    cluster.inboxes = cp.inboxes.clone();
}
";
    assert_eq!(
        check_source(
            Path::new("x.rs"),
            free_recovery,
            &[Lint::RecoveryAccounting]
        )
        .len(),
        1
    );

    let unordered = "\
fn racy(items: &[u64], total: &AtomicU64) {
    items.par_iter().for_each(|&x| {
        total.fetch_add(x, Ordering::Relaxed);
    });
}
";
    assert_eq!(
        check_source(Path::new("x.rs"), unordered, &[Lint::Determinism]).len(),
        1
    );
}

#[test]
fn fixture_violations_are_reported_with_file_and_line() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = root.join("crates/conformance/fixtures/nondeterminism_violation.rs");
    let source = std::fs::read_to_string(&fixture).expect("fixture readable");
    let diags = check_source(
        Path::new("crates/conformance/fixtures/nondeterminism_violation.rs"),
        &source,
        &[Lint::Nondeterminism],
    );
    assert!(!diags.is_empty());
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/conformance/fixtures/nondeterminism_violation.rs:4:"),
        "{rendered}"
    );

    let fixture = root.join("crates/conformance/fixtures/determinism_violation.rs");
    let source = std::fs::read_to_string(&fixture).expect("fixture readable");
    let diags = check_source(
        Path::new("crates/conformance/fixtures/determinism_violation.rs"),
        &source,
        &[Lint::Determinism],
    );
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags[0].to_string().contains("for_each"), "{}", diags[0]);
    assert!(diags[1].to_string().contains("collect"), "{}", diags[1]);
}
