//! `conformance` — run the static analysis engine (token lints +
//! interprocedural passes, one shared front end) over the workspace.
//!
//! ```text
//! conformance [--format text|json|sarif] [--baseline FILE]
//!             [--write-baseline FILE] [--sarif-out FILE] [ROOT]
//! ```
//!
//! * `ROOT` — workspace root (defaults to the nearest ancestor of the
//!   current directory containing a `crates/` subdirectory).
//! * `--format` — primary-output format on stdout (`text` default);
//!   `--json` is shorthand for `--format json`.
//! * `--baseline FILE` — only findings *not* listed in the baseline fail
//!   the run; baselined findings are counted but not fatal.
//! * `--write-baseline FILE` — write a baseline accepting every current
//!   finding, then exit successfully.
//! * `--sarif-out FILE` — additionally write a SARIF 2.1.0 log (for CI
//!   artifact upload), independent of `--format`.
//!
//! Exit status distinguishes findings from breakage: `0` clean (or all
//! findings baselined), `1` new findings, `2` usage/I/O/baseline-parse
//! errors.

use std::path::PathBuf;
use std::process::ExitCode;

use csmpc_conformance::baseline::Baseline;
use csmpc_conformance::{analyze_workspace, Report};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    format: Format,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    sarif_out: Option<PathBuf>,
    root: Option<PathBuf>,
}

fn usage() {
    println!(
        "usage: conformance [--format text|json|sarif] [--baseline FILE]\n\
         \x20                  [--write-baseline FILE] [--sarif-out FILE] [ROOT]\n\
         \n\
         Static model-conformance analysis of crates/*/src. One lexer and\n\
         item parser feed the token lints (nondeterminism,\n\
         unaccounted-primitive, recovery-accounting, stability-discipline,\n\
         determinism), the interprocedural passes (charge-flow,\n\
         par-closure-race, stability-flow) and suppression hygiene\n\
         (unused-suppression).\n\
         \n\
         Suppress a finding with `// csmpc-allow(<lint>): <reason>` on the\n\
         same or the preceding line; this is the only suppression syntax,\n\
         and an annotation without a reason suppresses nothing.\n\
         \n\
         Exit codes: 0 clean / all findings baselined, 1 new findings,\n\
         2 internal or usage error."
    );
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        format: Format::Text,
        baseline: None,
        write_baseline: None,
        sarif_out: None,
        root: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--json" => opts.format = Format::Json,
            "--format" => {
                let v = args.next().ok_or("--format needs a value")?;
                opts.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--baseline" => {
                let v = args.next().ok_or("--baseline needs a file path")?;
                opts.baseline = Some(PathBuf::from(v));
            }
            "--write-baseline" => {
                let v = args.next().ok_or("--write-baseline needs a file path")?;
                opts.write_baseline = Some(PathBuf::from(v));
            }
            "--sarif-out" => {
                let v = args.next().ok_or("--sarif-out needs a file path")?;
                opts.sarif_out = Some(PathBuf::from(v));
            }
            _ if arg.starts_with('-') => return Err(format!("unknown flag: {arg}")),
            _ => opts.root = Some(PathBuf::from(arg)),
        }
    }
    Ok(Some(opts))
}

fn find_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        if dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn emit(report: &Report, opts: &Options, new: &[&csmpc_conformance::Diagnostic], baselined: usize) {
    match opts.format {
        Format::Json => println!("{}", report.to_json()),
        Format::Sarif => println!("{}", report.to_sarif()),
        Format::Text => {
            for d in new {
                println!("{d}");
            }
            let mut summary = format!(
                "conformance: {} finding(s) across {} file(s) scanned",
                report.diagnostics.len(),
                report.files_scanned
            );
            if opts.baseline.is_some() {
                summary.push_str(&format!(" ({} baselined, {} new)", baselined, new.len()));
            }
            println!("{summary}");
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => {
            usage();
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("conformance: {msg}");
            return ExitCode::from(2);
        }
    };
    let root = match opts.root.clone() {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_root(cwd) {
                Some(r) => r,
                None => {
                    eprintln!("conformance: no `crates/` directory found above the current dir");
                    return ExitCode::from(2);
                }
            }
        }
    };
    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("conformance: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &opts.write_baseline {
        let text = Baseline::render(&report);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("conformance: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "conformance: wrote baseline {} accepting {} finding(s)",
            path.display(),
            report.diagnostics.len()
        );
        return ExitCode::SUCCESS;
    }
    let base = match &opts.baseline {
        None => Baseline::empty(),
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("conformance: cannot read baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match Baseline::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("conformance: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
    };
    let (new, baselined) = base.split(&report.diagnostics);
    if let Some(path) = &opts.sarif_out {
        if let Err(e) = std::fs::write(path, report.to_sarif()) {
            eprintln!("conformance: cannot write SARIF {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    emit(&report, &opts, &new, baselined.len());
    if new.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
