//! Bridge from protocol-level artifacts to the unified observability
//! report.
//!
//! [`unified_report`] joins the four measurement surfaces of one protocol
//! run — trace spans (phase wall-clock), the transport log (per-edge
//! messages and bytes), the primitive census, and the leakage audit — into
//! one [`secmed_obs::RunReport`].  The totals in the unified report are
//! *derived from the same recorders the tests assert against*, so report
//! numbers and test numbers can never drift apart.

use secmed_obs::report::{EdgeStat, OpStat, PlanNodeStat, RunReport as UnifiedReport};
use secmed_obs::trace::Record;

use crate::plan::{Plan, PlanReport};
use crate::protocol::{ProtocolKind, RunReport};
use crate::transport::PartyId;
use crate::workload::WorkloadSpec;

/// Builds the unified report for one finished run.
///
/// `records` are the trace records of the run (collect them with
/// `secmed_obs::trace::checkpoint()` before `Scenario::run` and
/// `take_since` after); phase rows keep only spans prefixed with the
/// protocol key, so records from other instrumented code are harmless.
pub fn unified_report(
    kind: ProtocolKind,
    report: &RunReport,
    records: &[Record],
    workload: Vec<(String, u64)>,
) -> UnifiedReport {
    let key = kind.key();
    let phases = UnifiedReport::phases_from_records(records, Some(&format!("{key}.")));

    // Per-edge traffic, in first-use order, straight from the transport log.
    let mut edges: Vec<EdgeStat> = Vec::new();
    for e in report.transport.log() {
        let from = e.from.to_string();
        let to = e.to.to_string();
        match edges.iter_mut().find(|x| x.from == from && x.to == to) {
            Some(x) => {
                x.messages += 1;
                x.bytes += e.bytes() as u64;
            }
            None => edges.push(EdgeStat {
                from,
                to,
                messages: 1,
                bytes: e.bytes() as u64,
            }),
        }
    }

    let ops: Vec<OpStat> = report
        .primitives
        .iter()
        .map(|(op, count)| OpStat {
            name: op.name().to_string(),
            count: *count,
        })
        .collect();

    // §6 interaction pattern: for every party that talked to the fabric,
    // the number of maximal send-runs ("the client has to interact twice
    // with the mediator").
    let mut partners: Vec<PartyId> = Vec::new();
    for e in report.transport.log() {
        for p in [&e.from, &e.to] {
            if *p != PartyId::Mediator && !partners.contains(p) {
                partners.push(p.clone());
            }
        }
    }
    let interactions: Vec<(String, u64)> = partners
        .iter()
        .map(|p| (p.to_string(), report.transport.interactions_of(p) as u64))
        .collect();

    let leakage = vec![
        format!("mediator: {}", report.mediator_view.describe()),
        format!("client: {}", report.client_view.describe()),
    ];

    UnifiedReport {
        protocol: key.to_string(),
        workload,
        phases,
        edges,
        ops,
        interactions,
        leakage,
        result_rows: report.result.len() as u64,
        outcome: report.outcome.key().to_string(),
        retries: report.outcome.retries(),
        metrics: report.metrics.clone(),
        plan: Vec::new(),
    }
}

/// Plan-section rows for a unified report: one [`PlanNodeStat`] per
/// executed node, carrying the chosen protocol and the
/// predicted-vs-observed primitive cross-check.
pub fn plan_stats(exec: &PlanReport) -> Vec<PlanNodeStat> {
    exec.nodes
        .iter()
        .map(|n| PlanNodeStat {
            label: n.label.clone(),
            protocol: n.protocol.key().to_string(),
            predicted_ops: n.predicted.total(),
            observed_ops: n.observed.total(),
            divergence_ppm: n.divergence.max_ppm,
            result_rows: n.report.result.len() as u64,
        })
        .collect()
}

/// Builds the unified report for one executed plan.
///
/// Traffic, primitive, interaction, and metric sections merge every
/// node's [`unified_report`] (summed per edge / primitive / partner /
/// metric key, in first-use order), the leakage section carries each
/// node's audited views prefixed with its label, and the `plan` section
/// records the per-node protocol choice and divergence cross-check.  Every number is
/// drawn from the nodes' own recorders, so the report is byte-identical
/// across reruns and thread counts.
pub fn unified_plan_report(plan: &Plan, exec: &PlanReport) -> UnifiedReport {
    let mut edges: Vec<EdgeStat> = Vec::new();
    let mut ops: Vec<OpStat> = Vec::new();
    let mut interactions: Vec<(String, u64)> = Vec::new();
    let mut leakage: Vec<String> = Vec::new();
    let mut metrics: Vec<(String, u64)> = Vec::new();
    let mut retries = 0u64;
    let mut outcome = "clean".to_string();
    for n in &exec.nodes {
        let node = unified_report(n.protocol, &n.report, &[], Vec::new());
        merge_by_key(
            &mut edges,
            node.edges,
            |a, b| a.from == b.from && a.to == b.to,
            |a, b| {
                a.messages += b.messages;
                a.bytes += b.bytes;
            },
        );
        merge_by_key(
            &mut ops,
            node.ops,
            |a, b| a.name == b.name,
            |a, b| a.count += b.count,
        );
        merge_by_key(
            &mut interactions,
            node.interactions,
            |a, b| a.0 == b.0,
            |a, b| a.1 += b.1,
        );
        merge_by_key(
            &mut metrics,
            node.metrics,
            |a, b| a.0 == b.0,
            |a, b| a.1 += b.1,
        );
        leakage.extend(node.leakage.iter().map(|l| format!("{}: {l}", n.label)));
        retries += node.retries;
        if outcome == "clean" {
            outcome = node.outcome;
        }
    }
    metrics.sort();
    UnifiedReport {
        protocol: "plan".to_string(),
        workload: vec![
            ("tables".to_string(), plan.tables.len() as u64),
            ("nodes".to_string(), plan.nodes.len() as u64),
        ],
        phases: Vec::new(),
        edges,
        ops,
        interactions,
        leakage,
        result_rows: exec.result.len() as u64,
        outcome,
        retries,
        metrics,
        plan: plan_stats(exec),
    }
}

/// Appends `items` to `into` in order, folding each into the existing
/// entry with the same key via `add` (first-use order is kept).
fn merge_by_key<T>(
    into: &mut Vec<T>,
    items: Vec<T>,
    same_key: impl Fn(&T, &T) -> bool,
    add: impl Fn(&mut T, &T),
) {
    for item in items {
        match into.iter_mut().find(|x| same_key(x, &item)) {
            Some(x) => add(x, &item),
            None => into.push(item),
        }
    }
}

/// The workload key/value pairs a report carries, derived from a spec.
pub fn workload_pairs(spec: &WorkloadSpec) -> Vec<(String, u64)> {
    vec![
        ("left_rows".to_string(), spec.left_rows as u64),
        ("right_rows".to_string(), spec.right_rows as u64),
        ("left_domain".to_string(), spec.left_domain as u64),
        ("right_domain".to_string(), spec.right_domain as u64),
        ("shared_values".to_string(), spec.shared_values as u64),
        ("payload_attrs".to_string(), spec.payload_attrs as u64),
    ]
}
