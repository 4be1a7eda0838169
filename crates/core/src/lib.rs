#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The Multimedia Mediator (MMM): credential-based secure mediation with
//! three ciphertext-processing JOIN protocols.
//!
//! This crate is the paper's primary contribution, assembled from the
//! workspace substrates:
//!
//! * [`credential`] — the certification authority and property-based
//!   credentials (Section 2, Figure 2),
//! * [`policy`] — credential-based access control with row-level filtering
//!   at the datasources,
//! * [`party`] — client, mediator, and datasource state,
//! * [`transport`] — an in-process recorded message fabric: every
//!   protocol message is logged with sender, receiver, label, and byte
//!   size, which is what the leakage audit and the interaction-pattern
//!   report (Table 1, §6) are computed from,
//! * [`protocol`] — the request phase (Listing 1) and the three delivery
//!   phases: DAS (Listing 2), commutative encryption (Listing 3), private
//!   matching (Listing 4), each with the optimizations from the paper's
//!   footnotes,
//! * [`engine`] — the execution engine: [`ScenarioBuilder`] assembles a
//!   scenario from a workload, [`RunOptions`] picks the protocol, thread
//!   policy, and trace sink, and [`Engine::run`] is the single entry
//!   point for executing a protocol (deterministically at any thread
//!   count),
//! * [`audit`] — empirical regeneration of Table 1: what the mediator and
//!   client actually observe,
//! * [`cost`] — the §6 computational analysis as closed-form operation
//!   counts, checked against the measured counters,
//! * [`observe`] — the bridge into the unified `secmed_obs` run report
//!   (phase timings + traffic + primitive census + leakage in one record),
//! * [`workload`] — synthetic relation generators standing in for the
//!   paper's (unavailable) enterprise datasets,
//! * [`hierarchy`] — mediator-as-datasource chaining (the future-work
//!   item of Section 8),
//! * [`plan`] — typed query plans (leakage budgets, per-node protocol
//!   choice) and [`Engine::run_plan`], which executes a multi-way join
//!   plan over the mediator hierarchy.

pub mod audit;
pub mod cost;
pub mod credential;
pub mod engine;
pub mod hierarchy;
pub mod observe;
pub mod party;
pub mod plan;
pub mod policy;
pub mod protocol;
pub mod transport;
pub mod workload;

pub use credential::{CertificationAuthority, Credential, Property};
pub use engine::{Engine, ExecPolicy, RunOptions, ScenarioBuilder, TraceSink};
pub use party::{Client, DataSource, Mediator};
pub use plan::{LeakageBudget, NodeInput, Plan, PlanNode, PlanReport, PlanRunOptions};
pub use policy::{AccessDecision, AccessPolicy, AccessRule};
pub use protocol::{
    CommutativeConfig, CommutativeMode, DasConfig, DasSetting, PmConfig, PmEval, PmPayloadMode,
    ProtocolKind, RunReport, Scenario,
};
pub use protocol::{Degradations, RunOutcome};
pub use transport::socket::{ReconnectPolicy, SocketFabric};
pub use transport::{
    DeliveryError, DeliveryFailure, DeliveryPolicy, Envelope, Fabric, FaultKind, FaultPlan, Link,
    LinkMask, OnExhausted, Outage, PartyId, Transport,
};

/// Errors from the mediation layer.
#[derive(Debug)]
pub enum MedError {
    /// The client's credentials did not satisfy any access rule.
    AccessDenied(String),
    /// A credential signature failed verification.
    BadCredential(String),
    /// Query parsing/decomposition failed.
    Query(relalg::RelError),
    /// A cryptographic operation failed.
    Crypto(secmed_crypto::CryptoError),
    /// The DAS layer failed.
    Das(secmed_das::DasError),
    /// A wire frame failed to encode/decode canonically.
    Wire(transport::WireError),
    /// A message stayed undelivered after every allowed attempt.
    Delivery(transport::DeliveryFailure),
    /// Protocol-level invariant violation (malformed message flow).
    Protocol(String),
    /// The fabric's infrastructure failed (torn socket, rejected session)
    /// — distinct from a modeled [`FaultKind`] the plan injected.
    Fabric(String),
    /// The server refused admission (`ServerBusy`): a *retryable* typed
    /// condition — the caller may back off and dial again, unlike the
    /// terminal [`MedError::Fabric`] failures.
    Busy(String),
}

impl std::fmt::Display for MedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MedError::AccessDenied(who) => write!(f, "access denied: {who}"),
            MedError::BadCredential(m) => write!(f, "bad credential: {m}"),
            MedError::Query(e) => write!(f, "query error: {e}"),
            MedError::Crypto(e) => write!(f, "crypto error: {e}"),
            MedError::Das(e) => write!(f, "DAS error: {e}"),
            MedError::Wire(e) => write!(f, "wire error: {e}"),
            MedError::Delivery(e) => write!(f, "delivery failed: {e}"),
            MedError::Protocol(m) => write!(f, "protocol error: {m}"),
            MedError::Fabric(m) => write!(f, "fabric error: {m}"),
            MedError::Busy(m) => write!(f, "server busy: {m}"),
        }
    }
}

impl std::error::Error for MedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MedError::Query(e) => Some(e),
            MedError::Crypto(e) => Some(e),
            MedError::Das(e) => Some(e),
            MedError::Wire(e) => Some(e),
            MedError::Delivery(e) => Some(e),
            MedError::AccessDenied(_)
            | MedError::BadCredential(_)
            | MedError::Protocol(_)
            | MedError::Fabric(_)
            | MedError::Busy(_) => None,
        }
    }
}

impl From<relalg::RelError> for MedError {
    fn from(e: relalg::RelError) -> Self {
        MedError::Query(e)
    }
}

impl From<secmed_crypto::CryptoError> for MedError {
    fn from(e: secmed_crypto::CryptoError) -> Self {
        MedError::Crypto(e)
    }
}

impl From<secmed_das::DasError> for MedError {
    fn from(e: secmed_das::DasError) -> Self {
        MedError::Das(e)
    }
}

impl From<transport::WireError> for MedError {
    fn from(e: transport::WireError) -> Self {
        MedError::Wire(e)
    }
}

#[cfg(test)]
mod error_tests {
    use std::error::Error as _;

    use super::*;

    /// Collects the Display of every error in the `source()` chain,
    /// starting below `e` itself.
    fn chain(e: &dyn std::error::Error) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = e.source();
        while let Some(c) = cur {
            out.push(c.to_string());
            cur = c.source();
        }
        out
    }

    #[test]
    fn source_exposes_the_wrapped_cause() {
        let wire = MedError::Wire(transport::WireError::BadMagic);
        let got = chain(&wire);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], transport::WireError::BadMagic.to_string());

        let query = MedError::Query(relalg::RelError::UnknownAttribute("x".into()));
        assert_eq!(chain(&query).len(), 1);

        let das = MedError::Das(secmed_das::DasError::EmptyDomain);
        assert_eq!(chain(&das).len(), 1);
    }

    #[test]
    fn delivery_chain_reaches_the_wire_error() {
        // Delivery → DeliveryFailure → WireError: a two-link chain.
        let err = MedError::Delivery(transport::DeliveryFailure {
            from: PartyId::Client,
            to: PartyId::Mediator,
            label: "L1.1".into(),
            attempts: 3,
            last: transport::DeliveryError::Undecodable(transport::WireError::Truncated),
        });
        let got = chain(&err);
        assert_eq!(got.len(), 2, "failure then its wire cause: {got:?}");
        assert!(got[0].contains("undelivered after 3 attempt"));
        assert_eq!(got[1], transport::WireError::Truncated.to_string());
    }

    #[test]
    fn leaf_errors_have_no_source() {
        assert!(MedError::AccessDenied("who".into()).source().is_none());
        assert!(MedError::Protocol("oops".into()).source().is_none());
        assert!(MedError::BadCredential("sig".into()).source().is_none());
    }
}
