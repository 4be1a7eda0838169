//! The shared chaos harness: the PR 5 seeded fault sweep, parameterized
//! over the [`Fabric`] that carries the bytes.
//!
//! The suite's four invariants (typed outcomes only; correct or honestly
//! non-clean; schedule independence; byte accounting reconciles) are
//! statements about the *recorded delivery semantics*, not about any one
//! fabric.  This module owns the seeds, plans, fingerprints, and checks;
//! a caller supplies a factory that builds a fresh fabric per run — the
//! in-process recorder in `secmed-core`'s own tests, a loopback
//! [`SocketFabric`](secmed_core::SocketFabric) session in the server's —
//! and the identical sweep must pass over both.
//!
//! Fingerprints deliberately exclude `RunReport::primitives`: the
//! primitive census is a process-global counter bank, so concurrent test
//! threads pollute each other's deltas.  Everything else — result,
//! outcome, transport log, leakage views — is compared byte for byte.

use std::num::{NonZeroU64, NonZeroU8};

use secmed_core::workload::{Workload, WorkloadSpec};
use secmed_core::{
    CommutativeConfig, DasConfig, DeliveryPolicy, Engine, Fabric, FaultPlan, OnExhausted, Outage,
    PartyId, PmConfig, ProtocolKind, ReconnectPolicy, RunOptions, RunOutcome, RunReport,
    ScenarioBuilder, TraceSink,
};

use crate::Gen;

/// Fault seeds swept per protocol (the PR 5 floor is 64).
pub const SEEDS: u64 = 64;

/// Thread counts every seed must agree across.
pub const THREADS: [usize; 3] = [1, 2, 8];

/// The DAS protocol flavor the sweep drives.
pub const DAS: ProtocolKind = ProtocolKind::Das(DasConfig {
    scheme: secmed_das::PartitionScheme::EquiDepth(2),
    setting: secmed_core::DasSetting::ClientSetting,
});

/// The commutative-encryption flavor the sweep drives.
pub const COMMUTATIVE: ProtocolKind = ProtocolKind::Commutative(CommutativeConfig {
    mode: secmed_core::CommutativeMode::IdReferences,
});

/// The private-matching flavor the sweep drives.
pub const PM: ProtocolKind = ProtocolKind::Pm(PmConfig {
    eval: secmed_core::PmEval::Horner,
    payload: secmed_core::PmPayloadMode::SessionKeyTable,
});

/// A deliberately tiny workload: the sweep's cost is dominated by
/// public-key work per row, so chaos coverage buys breadth with a small
/// join, not a large one.
pub fn workload() -> Workload {
    WorkloadSpec {
        left_rows: 6,
        right_rows: 6,
        left_domain: 3,
        right_domain: 3,
        shared_values: 2,
        payload_attrs: 1,
        seed: "chaos".to_string(),
        ..Default::default()
    }
    .generate()
}

/// The fault plan and retry policy for one chaos case, drawn entirely
/// from the testkit DRBG so every case reproduces from its seed alone.
pub fn plan_for(seed: u64) -> (FaultPlan, DeliveryPolicy) {
    let mut g = Gen::for_case("chaos-plan", seed);
    let mut plan = FaultPlan::none(format!("chaos/{seed}"));
    plan.drop_per_mille = g.per_mille(120);
    plan.corrupt_per_mille = g.per_mille(120);
    plan.truncate_per_mille = g.per_mille(100);
    plan.duplicate_per_mille = g.per_mille(100);
    plan.delay_per_mille = g.per_mille(100);
    // One case in four also takes a party down for a span of steps.
    if g.u64_below(4) == 0 {
        let party = g
            .choose(&[
                PartyId::Mediator,
                PartyId::Client,
                PartyId::source("r1"),
                PartyId::source("r2"),
            ])
            .clone();
        plan.outages.push(Outage {
            party,
            from_step: g.u64_below(12),
            steps: 1 + g.u64_below(3),
        });
    }
    let attempts = NonZeroU8::new(2 + (seed % 3) as u8).expect("2..=4 attempts");
    let on_exhausted = if seed.is_multiple_of(2) {
        OnExhausted::Abort
    } else {
        OnExhausted::Degrade
    };
    let policy = DeliveryPolicy::new(attempts, on_exhausted);
    (plan, policy)
}

/// The client reconnect discipline for one chaos case: a generous redial
/// budget (server-side kills can strike several times per run) with fast,
/// seed-keyed jittered backoff, so sweeps stay quick *and* deterministic
/// at every thread count.
pub fn reconnect_for(seed: u64) -> ReconnectPolicy {
    const CAP: NonZeroU64 = NonZeroU64::new(2_000_000).unwrap();
    ReconnectPolicy::new(64, 50_000, CAP, seed)
}

/// One chaos run over a caller-supplied fabric.  Under an installed plan
/// the engine must never return `Err` — that is invariant 1.
pub fn run_chaos_on<Fab: Fabric>(
    fabric: Fab,
    kind: ProtocolKind,
    seed: u64,
    threads: usize,
) -> RunReport {
    let w = workload();
    let mut sc = ScenarioBuilder::new(&w).seed("chaos").build();
    let (plan, policy) = plan_for(seed);
    let opts = RunOptions::new(kind)
        .threads(threads)
        .trace(TraceSink::Discard)
        .delivery(policy)
        .faults(plan);
    Engine::run_on(fabric, &mut sc, &opts)
        .unwrap_or_else(|e| panic!("{} seed {seed}: chaos run returned Err: {e}", kind.name()))
}

/// Everything a run reports except the process-global primitive census
/// (see the module docs for why it is excluded).
pub fn fingerprint(r: &RunReport) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        r.result, r.outcome, r.transport, r.mediator_view, r.client_view
    )
}

/// The fault-free result relation, the yardstick for invariant 2.
pub fn expected_result(kind: ProtocolKind) -> String {
    let w = workload();
    let mut sc = ScenarioBuilder::new(&w).seed("chaos").build();
    let opts = RunOptions::new(kind).trace(TraceSink::Discard);
    let report = Engine::run(&mut sc, &opts).expect("fault-free run succeeds");
    assert!(report.outcome.is_clean(), "fault-free run must be Clean");
    format!("{:?}", report.result)
}

/// Invariants 2 and 4 over one report (already known not to have
/// panicked, invariant 1).
pub fn check_report(kind: ProtocolKind, seed: u64, report: &RunReport, expected: &str) {
    let name = kind.name();
    match &report.outcome {
        RunOutcome::Clean | RunOutcome::RecoveredWithRetries { .. } => {
            assert_eq!(
                format!("{:?}", report.result),
                expected,
                "{name} seed {seed}: outcome {} but the result diverged",
                report.outcome
            );
        }
        // `Degradations` cannot be empty, so a degraded run always says
        // what it lost.
        RunOutcome::Degraded { .. } => {}
        RunOutcome::Aborted { .. } => {
            assert_eq!(
                report.result.len(),
                0,
                "{name} seed {seed}: Aborted run must not carry rows"
            );
        }
    }
    // Retries reported on the outcome come from the fabric's counter.
    assert_eq!(
        report.outcome.retries(),
        report.transport.retries(),
        "{name} seed {seed}: outcome retries diverged from the fabric"
    );
    // Invariant 4: the receiver partition of the log covers every byte —
    // failed attempts, duplicates, and delayed copies included.
    let parties = [
        PartyId::Client,
        PartyId::Mediator,
        PartyId::source("r1"),
        PartyId::source("r2"),
        PartyId::Ca,
    ];
    let per_receiver: usize = parties
        .iter()
        .map(|p| report.transport.bytes_received_by(p))
        .sum();
    assert_eq!(
        per_receiver,
        report.transport.total_bytes(),
        "{name} seed {seed}: per-receiver bytes do not partition the log"
    );
    assert_eq!(
        report.mediator_view.bytes_observed,
        report.transport.bytes_received_by(&PartyId::Mediator),
        "{name} seed {seed}: mediator view out of sync with the log"
    );
    assert_eq!(
        report.client_view.bytes_received,
        report.transport.bytes_received_by(&PartyId::Client),
        "{name} seed {seed}: client view out of sync with the log"
    );
    // Overhead never exceeds the log it is carved from.
    let (extra_msgs, extra_bytes) = report.transport.overhead();
    assert!(extra_msgs <= report.transport.message_count());
    assert!(extra_bytes <= report.transport.total_bytes());
}

/// Sweeps all seeds for one protocol over fabrics built by `make_fabric`
/// (called once per run; it receives the case seed and must yield a
/// fresh fabric whose recorded semantics do not depend on the thread
/// count).  Each seed runs at every thread count, invariants 2 and 4 are
/// checked on the sequential report, and invariant 3 compares the full
/// fingerprints across thread counts.
pub fn sweep_on<Fab, F>(kind: ProtocolKind, make_fabric: F)
where
    Fab: Fabric,
    F: Fn(u64) -> Fab,
{
    let expected = expected_result(kind);
    let mut outcomes = [0usize; 4];
    for seed in 0..SEEDS {
        let base = run_chaos_on(make_fabric(seed), kind, seed, THREADS[0]);
        check_report(kind, seed, &base, &expected);
        let base_print = fingerprint(&base);
        for &threads in &THREADS[1..] {
            let other = fingerprint(&run_chaos_on(make_fabric(seed), kind, seed, threads));
            assert_eq!(
                base_print,
                other,
                "{} seed {seed}: report diverged between 1 and {threads} threads",
                kind.name()
            );
        }
        match base.outcome {
            RunOutcome::Clean => outcomes[0] += 1,
            RunOutcome::RecoveredWithRetries { .. } => outcomes[1] += 1,
            RunOutcome::Degraded { .. } => outcomes[2] += 1,
            RunOutcome::Aborted { .. } => outcomes[3] += 1,
        }
    }
    // The sweep must actually exercise the fault machinery: across 64
    // seeded plans at these rates, both recovery and non-clean endings
    // occur.  (Counts are deterministic — seeded plans, seeded runs.)
    assert!(
        outcomes[1] + outcomes[2] + outcomes[3] > 0,
        "{}: no seed produced a non-clean outcome — rates too low to test anything: {outcomes:?}",
        kind.name()
    );
    assert!(
        outcomes[0] + outcomes[1] > 0,
        "{}: no seed delivered a clean-or-recovered run: {outcomes:?}",
        kind.name()
    );
}

/// The acceptance boundary for the whole fault layer: installing a plan
/// with every rate at zero changes nothing — report fingerprints
/// (result, outcome, transport log, views) are byte-identical to a run
/// with no plan installed at all.  Parameterized over the fabric like
/// [`sweep_on`]; the factory is called once per run with a per-kind
/// index, and both runs of a pair receive the *same* index — fabrics
/// that thread an identity (a session id) onto their frames must keep
/// the pair comparable byte for byte.
pub fn zero_fault_invariance_on<Fab, F>(make_fabric: F)
where
    Fab: Fabric,
    F: Fn(u64) -> Fab,
{
    for (i, kind) in [DAS, COMMUTATIVE, PM].into_iter().enumerate() {
        let w = workload();
        let mut sc = ScenarioBuilder::new(&w).seed("chaos").build();
        let opts = RunOptions::new(kind).trace(TraceSink::Discard);
        let bare = Engine::run_on(make_fabric(i as u64), &mut sc, &opts).expect("fault-free run");

        let mut sc = ScenarioBuilder::new(&w).seed("chaos").build();
        let opts = RunOptions::new(kind)
            .trace(TraceSink::Discard)
            .faults(FaultPlan::none("zero"));
        let zeroed = Engine::run_on(make_fabric(i as u64), &mut sc, &opts).expect("zero-fault run");

        assert_eq!(
            fingerprint(&bare),
            fingerprint(&zeroed),
            "{}: a zero-rate plan must be observationally absent",
            kind.name()
        );
    }
}
