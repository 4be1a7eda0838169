//! The shipped rule set.
//!
//! Each rule is a small, self-contained module; `default_rules` assembles
//! the set the `secmed-lint` binary and the self-test run.  DESIGN.md's
//! "Static analysis" section maps every rule to the paper property it
//! protects.

mod census_coverage;
mod dependency_policy;
mod determinism;
mod panic_freedom;
mod secret_flow;
mod transport_discipline;
mod wire_discipline;

pub use census_coverage::CensusCoverage;
pub use dependency_policy::DependencyPolicy;
pub use determinism::Determinism;
pub use panic_freedom::PanicFreedom;
pub use secret_flow::SecretFlow;
pub use transport_discipline::TransportDiscipline;
pub use wire_discipline::WireDiscipline;

use crate::engine::Rule;

/// The seven shipped rules, in reporting order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(PanicFreedom),
        Box::new(SecretFlow),
        Box::new(CensusCoverage),
        Box::new(TransportDiscipline),
        Box::new(WireDiscipline),
        Box::new(Determinism),
        Box::new(DependencyPolicy),
    ]
}
