//! `secmed-lint` — in-tree static analysis for the secmed workspace.
//!
//! A hand-rolled Rust lexer ([`lexer`]), a test-region and suppression
//! aware source model ([`source`]), and a pluggable rule engine
//! ([`engine`]) enforce the workspace's security invariants as a CI gate:
//!
//! - `panic-freedom` — no aborting escape hatches in protocol/crypto/bigint
//!   code (a panic in the mediator is a DoS lever),
//! - `transport-discipline` — protocol messages flow through the recording
//!   `secmed-core::transport`, keeping traces complete,
//! - `wire-discipline` — frame codec calls only at the fabric boundary,
//! - `determinism` — wall-clock reads only in `crates/obs` / `crates/bench`,
//! - `dependency-policy` — every `Cargo.toml` dependency is a path dep.
//!
//! plus the AST/callgraph rules layered on the item-level parser
//! ([`ast`], [`callgraph`], [`taint`]):
//!
//! - `secret-flow` — interprocedural taint: key material must not reach
//!   branches, loop bounds, allocation sizes, or `==`/`!=`,
//! - `census-coverage` — modular exponentiations in `crates/crypto` must
//!   bump the primitive census so Table 2 stays exact.
//!
//! Bounded retries, explained degradation, and harness-only fault
//! schedules are not rules: `secmed-core`'s types hold them
//! (`DeliveryPolicy::new`, `ReconnectPolicy::new`, `Degradations`, and
//! the driver-side `Link`), so the compiler rejects a violation.
//!
//! Violations render as `file:line: rule-id: message`; a machine-readable
//! JSONL report goes to `target/obs/lint.jsonl`.  Audited escapes use
//! `// lint:allow(rule-id) -- reason` (reason mandatory; unused or
//! malformed suppressions are themselves findings under `lint-allow`).
//! Accepted findings ratchet against the committed `lint-baseline.json`
//! ([`baseline`]): new findings fail, stale entries fail, and
//! `secmed-lint --bless-baseline` regenerates the file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod baseline;
pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod taint;
pub mod walk;

use std::io;
use std::path::Path;

pub use engine::{Finding, ManifestFile, Rule, RunOutcome};
pub use source::SourceFile;

/// The committed baseline file name, resolved against the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// Runs the default rule set over the workspace rooted at `root` on one
/// thread.  The outcome is raw — baseline ratcheting is [`gate_workspace`].
pub fn lint_workspace(root: &Path) -> io::Result<RunOutcome> {
    lint_workspace_with(root, 1)
}

/// [`lint_workspace`] with an explicit per-file thread count (`0` ⇒ pool
/// default).  Output is identical at any thread count.
pub fn lint_workspace_with(root: &Path, threads: usize) -> io::Result<RunOutcome> {
    let ws = walk::collect(root)?;
    Ok(engine::run_with(
        &rules::default_rules(),
        &ws.sources,
        &ws.manifests,
        threads,
    ))
}

/// A full CI-gate evaluation: the raw outcome plus the baseline ratchet.
pub struct GateResult {
    /// The raw engine outcome.
    pub outcome: RunOutcome,
    /// Findings split against `lint-baseline.json` (an absent file is an
    /// empty baseline: every finding is new).
    pub ratchet: baseline::Ratchet,
}

impl GateResult {
    /// True when CI should pass: no new findings, no stale baseline
    /// entries.
    pub fn passing(&self) -> bool {
        self.ratchet.clean()
    }
}

/// Lints the workspace and ratchets against the committed baseline.
pub fn gate_workspace(root: &Path, threads: usize) -> io::Result<GateResult> {
    let outcome = lint_workspace_with(root, threads)?;
    let base = load_baseline(root)?;
    let ratchet = base.ratchet(&outcome.findings);
    Ok(GateResult { outcome, ratchet })
}

/// Loads `lint-baseline.json` from `root`; a missing file is an empty
/// baseline, a malformed one is an error (a silently-ignored baseline
/// would un-ratchet CI).
pub fn load_baseline(root: &Path) -> io::Result<baseline::Baseline> {
    let path = root.join(BASELINE_FILE);
    match std::fs::read_to_string(&path) {
        Ok(text) => baseline::Baseline::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(baseline::Baseline::default()),
        Err(e) => Err(e),
    }
}
