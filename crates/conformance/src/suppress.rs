//! Inline suppression handling: `// csmpc-allow(<lint>): <reason>`.
//!
//! A suppression on line *L* silences findings of the named lint on line
//! *L* (trailing comment) or line *L + 1* (comment-above style) of the
//! same file. `csmpc-allow(all): <reason>` silences every lint at the
//! location. This is the analyzer's only suppression syntax, and it
//! covers token lints and interprocedural passes alike.
//!
//! The reason is mandatory — it is the reviewable artifact — so an
//! annotation without one silences nothing. A suppression that silences
//! nothing (reason-less, unknown lint, or simply stale) is itself a
//! finding ([`crate::Lint::UnusedSuppression`]), so stale annotations
//! cannot accumulate after the code they excused is fixed.

use crate::{Diagnostic, Lint, Severity};
use std::path::Path;

/// One parsed `csmpc-allow` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// 1-indexed line the annotation sits on.
    pub line: usize,
    /// The lint name as written (`"all"` allowed).
    pub lint_name: String,
    /// Parsed lint; `None` for `all` or an unknown name.
    pub lint: Option<Lint>,
    /// The reason text after the colon (empty if omitted, in which case
    /// the annotation silences nothing).
    pub reason: String,
}

impl Suppression {
    /// `true` when this annotation silences `lint` at `line`.
    #[must_use]
    pub fn covers(&self, lint: Lint, line: usize) -> bool {
        let lint_ok = self.lint_name == "all" || self.lint == Some(lint);
        // Never let a suppression swallow the unused-suppression meta-lint.
        !self.reason.is_empty()
            && lint_ok
            && lint != Lint::UnusedSuppression
            && (line == self.line || line == self.line + 1)
    }
}

/// Extracts all `csmpc-allow` annotations from a per-line comment table
/// (index 0 = line 1).
///
/// Only plain `//` comments count: doc comments (`///`, `//!`) are
/// documentation, not annotations, so prose *describing* the suppression
/// syntax (like this module's own docs) never suppresses anything.
#[must_use]
pub fn parse_suppressions(comments: &[String]) -> Vec<Suppression> {
    const MARKER: &str = "csmpc-allow(";
    let mut out = Vec::new();
    for (idx, comment) in comments.iter().enumerate() {
        let trimmed = comment.trim_start();
        if trimmed.starts_with("///") || trimmed.starts_with("//!") {
            continue;
        }
        let mut rest = comment.as_str();
        while let Some(pos) = rest.find(MARKER) {
            let after = &rest[pos + MARKER.len()..];
            let Some(close) = after.find(')') else { break };
            let lint_name = after[..close].trim().to_string();
            let tail = &after[close + 1..];
            let reason = tail
                .strip_prefix(':')
                .map(|r| {
                    // Reason runs to the next annotation on the line, if any.
                    let end = r.find(MARKER).unwrap_or(r.len());
                    r[..end].trim_end_matches("//").trim().to_string()
                })
                .unwrap_or_default();
            out.push(Suppression {
                line: idx + 1,
                lint: Lint::from_name(&lint_name),
                lint_name,
                reason,
            });
            rest = tail;
        }
    }
    out
}

/// Splits `findings` into those no annotation in `sups` covers, and a
/// per-annotation "silenced something" flag.
fn partition(sups: &[Suppression], findings: Vec<Diagnostic>) -> (Vec<Diagnostic>, Vec<bool>) {
    let mut used = vec![false; sups.len()];
    let mut kept = Vec::new();
    for d in findings {
        let mut suppressed = false;
        for (i, s) in sups.iter().enumerate() {
            if s.covers(d.lint, d.line) {
                used[i] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(d);
        }
    }
    (kept, used)
}

/// Drops the `findings` (all belonging to the file whose comment table is
/// given) that a `csmpc-allow` annotation silences, without reporting
/// unused annotations.
#[must_use]
pub fn filter(comments: &[String], findings: Vec<Diagnostic>) -> Vec<Diagnostic> {
    partition(&parse_suppressions(comments), findings).0
}

/// Filters `findings` (all belonging to the file whose comment table and
/// path are given) through the file's `csmpc-allow` annotations, then
/// appends one [`Lint::UnusedSuppression`] finding per annotation that
/// silenced nothing (or names an unknown lint, or gives no reason).
#[must_use]
pub fn apply(path: &Path, comments: &[String], findings: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let sups = parse_suppressions(comments);
    let (mut kept, used) = partition(&sups, findings);
    for (i, s) in sups.iter().enumerate() {
        if used[i] {
            continue;
        }
        let message = if s.lint.is_none() && s.lint_name != "all" {
            format!(
                "csmpc-allow names unknown lint `{}`; it suppresses nothing (known lints: \
                 see `Lint::from_name`)",
                s.lint_name
            )
        } else if s.reason.is_empty() {
            format!(
                "missing reason: `csmpc-allow({})` must say why after a colon \
                 (`csmpc-allow({}): <reason>`); it suppresses nothing",
                s.lint_name, s.lint_name
            )
        } else {
            format!(
                "unused suppression `csmpc-allow({})`: no {} finding on this or the next \
                 line — remove the annotation",
                s.lint_name,
                if s.lint_name == "all" {
                    "lint"
                } else {
                    s.lint_name.as_str()
                },
            )
        };
        kept.push(Diagnostic {
            lint: Lint::UnusedSuppression,
            severity: Severity::Warning,
            file: path.to_path_buf(),
            line: s.line,
            message,
            witness: Vec::new(),
        });
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn comments(pairs: &[(usize, &str)]) -> Vec<String> {
        let max = pairs.iter().map(|&(l, _)| l).max().unwrap_or(1);
        let mut out = vec![String::new(); max];
        for &(l, text) in pairs {
            out[l - 1] = text.to_string();
        }
        out
    }

    fn finding(lint: Lint, line: usize) -> Diagnostic {
        Diagnostic {
            lint,
            severity: Severity::Error,
            file: PathBuf::from("x.rs"),
            line,
            message: "m".into(),
            witness: Vec::new(),
        }
    }

    #[test]
    fn parse_extracts_lint_and_reason() {
        let c = comments(&[(
            3,
            "// csmpc-allow(par-closure-race): thread-local workspace",
        )]);
        let s = parse_suppressions(&c);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].line, 3);
        assert_eq!(s[0].lint, Some(Lint::ParClosureRace));
        assert_eq!(s[0].reason, "thread-local workspace");
    }

    #[test]
    fn same_line_and_next_line_are_covered() {
        let c = comments(&[(2, "// csmpc-allow(charge-flow): setup-only path")]);
        let kept = apply(
            Path::new("x.rs"),
            &c,
            vec![finding(Lint::ChargeFlow, 2), finding(Lint::ChargeFlow, 3)],
        );
        assert!(kept.is_empty(), "{kept:?}");
    }

    #[test]
    fn wrong_lint_or_far_line_is_not_covered() {
        let c = comments(&[(2, "// csmpc-allow(charge-flow): reason")]);
        let kept = apply(
            Path::new("x.rs"),
            &c,
            vec![
                finding(Lint::ParClosureRace, 2),
                finding(Lint::ChargeFlow, 5),
            ],
        );
        // Both findings survive, and the suppression is reported unused.
        assert_eq!(kept.len(), 3, "{kept:?}");
        assert!(kept
            .iter()
            .any(|d| d.lint == Lint::UnusedSuppression && d.line == 2));
    }

    #[test]
    fn allow_all_covers_everything_once() {
        let c = comments(&[(1, "// csmpc-allow(all): fixture scaffolding")]);
        let kept = apply(
            Path::new("x.rs"),
            &c,
            vec![
                finding(Lint::Nondeterminism, 1),
                finding(Lint::ChargeFlow, 2),
            ],
        );
        assert!(kept.is_empty(), "{kept:?}");
    }

    #[test]
    fn doc_comments_are_not_annotations() {
        let c = comments(&[
            (
                1,
                "/// Write `// csmpc-allow(charge-flow): why` to suppress.",
            ),
            (2, "//! Mentions csmpc-allow(all): in module docs."),
        ]);
        assert!(parse_suppressions(&c).is_empty());
    }

    #[test]
    fn unknown_lint_is_reported() {
        let c = comments(&[(4, "// csmpc-allow(no-such-lint): oops")]);
        let kept = apply(Path::new("x.rs"), &c, Vec::new());
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].lint, Lint::UnusedSuppression);
        assert!(kept[0].message.contains("unknown lint"));
    }

    #[test]
    fn reasonless_annotation_suppresses_nothing_and_is_reported() {
        for spelling in ["// csmpc-allow(nondeterminism)", "// csmpc-allow(all):   "] {
            let c = comments(&[(1, spelling)]);
            let kept = apply(
                Path::new("x.rs"),
                &c,
                vec![finding(Lint::Nondeterminism, 2)],
            );
            assert_eq!(kept.len(), 2, "{spelling}: {kept:?}");
            assert_eq!(kept[0].lint, Lint::Nondeterminism);
            assert_eq!(kept[1].lint, Lint::UnusedSuppression);
            assert_eq!(kept[1].line, 1);
            assert!(kept[1].message.contains("missing reason"), "{kept:?}");
            assert_eq!(
                filter(&c, vec![finding(Lint::Nondeterminism, 2)]).len(),
                1,
                "{spelling}"
            );
        }
    }

    #[test]
    fn unused_suppression_cannot_suppress_itself() {
        let c = comments(&[
            (1, "// csmpc-allow(unused-suppression): nice try"),
            (2, "// csmpc-allow(charge-flow): also unused"),
        ]);
        let kept = apply(Path::new("x.rs"), &c, Vec::new());
        assert_eq!(kept.len(), 2, "{kept:?}");
        assert!(kept.iter().all(|d| d.lint == Lint::UnusedSuppression));
    }
}
