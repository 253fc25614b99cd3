//! `experiments analyze`: one entry point that runs the whole static-
//! analysis engine — the token-based source lints (with allowlist
//! subtraction and the L010 staleness gate) and the exhaustive plan-space
//! model checker — and returns its outcome for the console report.

use iolap_analyze::modelcheck::{self, ModelCheckReport};
use iolap_analyze::{Allowlist, LintFinding};
use std::time::Instant;

/// Outcome of one `experiments analyze` run.
pub struct AnalysisRecord {
    /// Lint findings that survive the allowlist, plus any L010 staleness
    /// findings for allowlist entries that no longer match anything.
    /// Deterministically ordered (file, line, rule).
    pub lint_violations: Vec<LintFinding>,
    /// Findings absorbed by `scripts/lint-allow.txt` (audited exceptions).
    pub lint_allowlisted: usize,
    /// Plan-space model-checker outcome.
    pub model: ModelCheckReport,
    /// Wall-clock time of the whole sweep in milliseconds.
    pub wall_ms: f64,
}

impl AnalysisRecord {
    /// Total gate-failing violations: surviving lint findings (L010
    /// staleness included) plus model-checker soundness violations
    /// (unsound-accepted, accepted-but-flagged, missed mutations).
    pub fn violations(&self) -> usize {
        self.lint_violations.len() + self.model.violations()
    }
}

/// Run the full static-analysis sweep over the repo sources and the
/// bounded plan space. Errors only on I/O (unreadable allowlist or source
/// tree) — analysis findings are data, not errors.
pub fn run_analysis(smoke: bool) -> std::io::Result<AnalysisRecord> {
    let start = Instant::now();
    let root = iolap_analyze::repo_root();
    let allow = Allowlist::load(&root.join("scripts/lint-allow.txt"))?;
    let findings = iolap_analyze::lint_tree(&root)?;
    let lint_allowlisted = findings.iter().filter(|f| allow.allows(f)).count();
    let stale = allow.stale_entries(&findings);
    let mut lint_violations: Vec<LintFinding> =
        findings.into_iter().filter(|f| !allow.allows(f)).collect();
    lint_violations.extend(stale);
    iolap_analyze::sort_findings(&mut lint_violations);

    let depth = if smoke {
        modelcheck::SMOKE_DEPTH
    } else {
        modelcheck::FULL_DEPTH
    };
    let model = modelcheck::run(depth);
    Ok(AnalysisRecord {
        lint_violations,
        lint_allowlisted,
        model,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}
