//! The four workloads: seeded set-up and one verified query each.
//!
//! Every input is generated here from the workload seed; the program
//! under test only ever receives these generated relations and keys.
//! Each client owns a small pool of distinct datasets and cycles through
//! them, so no two consecutive queries of a client join the same data.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::Arc;

use relalg::{Relation, Value};
use secmed_core::cost;
use secmed_core::hierarchy::SourceSpec;
use secmed_core::plan::{LeakageBudget, PlanRunOptions};
use secmed_core::workload::WorkloadSpec;
use secmed_core::{
    AccessPolicy, CertificationAuthority, Client, CommutativeConfig, DasConfig, Engine, PmConfig,
    Property, ReconnectPolicy, RunOptions, RunReport, Scenario, ScenarioBuilder, SocketFabric,
    TraceSink,
};
use secmed_crypto::drbg::HmacDrbg;
use secmed_crypto::group::{GroupSize, SafePrimeGroup};
use secmed_obs::SpanGuard;
use secmed_plan::{stats_of, Planner, SourceStats};
use secmed_server::Server;
use secmed_testkit::federation::{self, FederationSpec};
use secmed_testkit::Gen;

/// Pool width of the in-process workloads (a fixed value, not the host's
/// core count, so figures from different hosts describe the same work).
pub const POOL_THREADS: usize = 2;

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Private matching, 32x32 rows, in-process.
    PmJoin,
    /// DAS client setting, 64x64 rows, in-process.
    DasJoin,
    /// Two concurrent clients of 4x4 commutative sessions over loopback.
    SessionSmall,
    /// A planned 3-table SQL chain join.
    SqlFederation,
}

impl Name {
    /// Every workload, in documentation order.
    pub const ALL: [Name; 4] = [
        Name::PmJoin,
        Name::DasJoin,
        Name::SessionSmall,
        Name::SqlFederation,
    ];

    /// The command-line name.
    pub fn key(self) -> &'static str {
        match self {
            Name::PmJoin => "pm_join",
            Name::DasJoin => "das_join",
            Name::SessionSmall => "session_small",
            Name::SqlFederation => "sql_federation",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.key() == s)
    }

    /// Concurrent closed-loop clients.
    pub fn clients(self) -> usize {
        match self {
            Name::SessionSmall => 2,
            _ => 1,
        }
    }

    /// Distinct datasets the clients cycle through.  A run averages over
    /// many of them, so its figures describe the workload's shape rather
    /// than the luck of a few draws; the tiny session joins vary most
    /// from draw to draw and get the largest pool.
    pub fn datasets(self) -> usize {
        match self {
            Name::SessionSmall => 512,
            Name::DasJoin => 128,
            _ => 64,
        }
    }

    /// Whether each query runs as a fresh session over the loopback server.
    pub fn over_socket(self) -> bool {
        self == Name::SessionSmall
    }

    fn spec(self, seed_label: &str) -> WorkloadSpec {
        let (rows, domain, shared, payload_attrs) = match self {
            Name::PmJoin => (32, 16, 8, 2),
            Name::DasJoin => (64, 32, 16, 2),
            _ => (4, 4, 2, 1),
        };
        WorkloadSpec {
            left_rows: rows,
            right_rows: rows,
            left_domain: domain,
            right_domain: domain,
            shared_values: shared,
            payload_attrs,
            seed: seed_label.to_string(),
            ..Default::default()
        }
    }

    /// Engine options of the two-table workloads.
    pub fn run_options(self, sink: TraceSink) -> RunOptions {
        let opts = match self {
            Name::PmJoin => RunOptions::pm(PmConfig::default()),
            Name::DasJoin => RunOptions::das(DasConfig::default()),
            _ => RunOptions::commutative(CommutativeConfig::default()),
        };
        let threads = if self.over_socket() { 1 } else { POOL_THREADS };
        opts.threads(threads).trace(sink)
    }
}

/// A relation in a canonical form: columns sorted by name, rows sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canon {
    names: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Canon {
    /// Canonicalizes `rel`; `None` if it lacks one of `names`' columns.
    fn with_names(rel: &Relation, names: &[String]) -> Option<Canon> {
        if rel.schema().arity() != names.len() {
            return None;
        }
        let idx: Vec<usize> = names
            .iter()
            .map(|n| rel.schema().index_of(n).ok())
            .collect::<Option<_>>()?;
        let mut rows: Vec<Vec<Value>> = rel
            .tuples()
            .iter()
            .map(|t| idx.iter().map(|&i| t.at(i).clone()).collect())
            .collect();
        rows.sort();
        Some(Canon {
            names: names.to_vec(),
            rows,
        })
    }

    /// The canonical form of a reference result.
    pub fn of(rel: &Relation) -> Canon {
        let mut names: Vec<String> = rel
            .schema()
            .attr_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        names.sort();
        Canon::with_names(rel, &names).unwrap_or(Canon {
            names,
            rows: Vec::new(),
        })
    }

    /// Whether `rel` equals this reference up to row and column order.
    pub fn matches(&self, rel: &Relation) -> bool {
        Canon::with_names(rel, &self.names).as_ref() == Some(self)
    }
}

/// One two-table dataset with its plaintext reference.
pub struct Pair {
    /// The left source's relation.
    pub left: Relation,
    /// The right source's relation.
    pub right: Relation,
    /// `Scenario::expected_result()`, canonicalized.
    pub expected: Canon,
}

/// One federation dataset with its plaintext reference.
pub struct Chain {
    /// Relations by table name.
    pub catalog: BTreeMap<String, Relation>,
    /// Per-source planner statistics.
    pub stats: BTreeMap<String, SourceStats>,
    /// The chain query.
    pub query: String,
    /// `relalg::sql::parse(query).eval(catalog)`, canonicalized.
    pub expected: Canon,
}

impl Chain {
    /// Schemas of the catalog, as the planner wants them.
    pub fn schemas(&self) -> BTreeMap<String, relalg::Schema> {
        self.catalog
            .iter()
            .map(|(k, v)| (k.clone(), v.schema().clone()))
            .collect()
    }

    /// The plaintext reference evaluation.
    pub fn reference(&self) -> Result<Relation, String> {
        reference(&self.catalog, &self.query)
    }
}

/// `relalg::sql::parse(query).eval(catalog)`.
fn reference(catalog: &BTreeMap<String, Relation>, query: &str) -> Result<Relation, String> {
    let catalog: HashMap<String, Relation> = catalog
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    relalg::sql::parse(query)
        .and_then(|q| q.eval(&catalog))
        .map_err(|e| format!("reference: {e}"))
}

/// What a client queries.
pub enum Cases {
    /// Two-table datasets, served in turn by one scenario's sources.
    Pairs {
        /// The client's parties (keys are set up once per client).
        scenario: Box<Scenario>,
        /// The datasets, shared by every client of the workload.
        pairs: Arc<Vec<Pair>>,
    },
    /// Federations, with the CA that certifies every per-node client.
    Chains {
        /// The certification authority.
        ca: Box<CertificationAuthority>,
        /// Group of every per-node client key.
        group: SafePrimeGroup,
        /// Label prefix of per-node client keys.
        label: String,
        /// The federations.
        chains: Vec<Chain>,
    },
}

/// One closed-loop client: its datasets and its position in the cycle.
pub struct ClientState {
    /// Client index (0-based), part of every session id.
    pub index: u64,
    /// The datasets.
    pub cases: Cases,
    /// Queries issued so far.
    pub issued: u64,
    /// Where in the dataset cycle this client starts, so concurrent
    /// clients query different data.
    pub start: u64,
}

/// Everything set-up produces.
pub struct Setup {
    /// The closed-loop clients.
    pub clients: Vec<ClientState>,
    /// The loopback server (socket workloads only).
    pub server: Option<Server>,
}

impl Pair {
    /// Installs this dataset on the scenario's two sources.
    pub fn install(&self, scenario: &mut Scenario) {
        scenario.left.replace_relation(self.left.clone());
        scenario.right.replace_relation(self.right.clone());
    }
}

/// Generates the two-table datasets and one scenario per client (each
/// with its own keys), computing every reference with
/// `Scenario::expected_result()` on the first client's parties.
fn build_pairs(name: Name, prefix: &str, rep: usize) -> Result<Vec<Cases>, String> {
    let data: Vec<_> = (0..name.datasets())
        .map(|i| name.spec(&format!("{prefix}/data/{i}")).generate())
        .collect();
    let first = data.first().ok_or("no datasets")?;
    let mut scenarios: Vec<Scenario> = (0..name.clients())
        .map(|c| {
            ScenarioBuilder::new(first)
                .seed(&format!("{prefix}/party/{c}/{rep}"))
                .build()
        })
        .collect();
    let mut pairs = Vec::new();
    for w in data {
        let sc = &mut scenarios[0];
        sc.left.replace_relation(w.left.clone());
        sc.right.replace_relation(w.right.clone());
        let expected = sc
            .expected_result()
            .map_err(|e| format!("reference: {e}"))?;
        pairs.push(Pair {
            left: w.left,
            right: w.right,
            expected: Canon::of(&expected),
        });
    }
    let pairs = Arc::new(pairs);
    Ok(scenarios
        .into_iter()
        .map(|scenario| Cases::Pairs {
            scenario: Box::new(scenario),
            pairs: pairs.clone(),
        })
        .collect())
}

fn build_chains(prefix: &str, rep: usize) -> Result<Cases, String> {
    let spec = FederationSpec {
        tables: 3,
        rows: 32,
        key_domain: 10,
        payload_domain: 1000,
    };
    let mut chains = Vec::new();
    for i in 0..Name::SqlFederation.datasets() {
        let fed = federation::chain(
            &mut Gen::for_case(&format!("{prefix}/data"), i as u64),
            &spec,
        );
        let query = fed.query();
        let expected = Canon::of(&reference(&fed.catalog, &query)?);
        chains.push(Chain {
            stats: stats_of(&fed.catalog),
            query,
            catalog: fed.catalog,
            expected,
        });
    }
    let group = SafePrimeGroup::preset(GroupSize::S512);
    let mut rng = HmacDrbg::from_label(&format!("{prefix}/ca/{rep}"));
    let ca = CertificationAuthority::new(group.clone(), &mut rng);
    Ok(Cases::Chains {
        ca: Box::new(ca),
        group,
        label: format!("{prefix}/client"),
        chains,
    })
}

/// Builds every input of `name` from `seed`.  `rep` varies only the
/// party key labels, so repeated set-ups do the same kind of work on
/// the same datasets without replaying one key search.
pub fn setup(name: Name, seed: u64, rep: usize) -> Result<Setup, String> {
    let prefix = format!("perfbench/{}/{seed}", name.key());
    let cases = if name == Name::SqlFederation {
        vec![build_chains(&prefix, rep)?]
    } else {
        build_pairs(name, &prefix, rep)?
    };
    let stride = (name.datasets() / name.clients()) as u64;
    let clients = cases
        .into_iter()
        .enumerate()
        .map(|(c, cases)| ClientState {
            index: c as u64,
            cases,
            issued: 0,
            start: c as u64 * stride,
        })
        .collect();
    let server = if name.over_socket() {
        Some(Server::bind().map_err(|e| format!("bind loopback server: {e}"))?)
    } else {
        None
    };
    Ok(Setup { clients, server })
}

/// How one query is issued.
#[derive(Clone, Copy)]
pub struct QueryCtx {
    /// The workload.
    pub name: Name,
    /// Trace spans (the benchmark's and the engine's) kept or dropped.
    pub traced: bool,
    /// The server to open a session on, if the workload uses one.
    pub addr: Option<SocketAddr>,
}

impl QueryCtx {
    fn sink(&self) -> TraceSink {
        if self.traced {
            TraceSink::Keep
        } else {
            TraceSink::Discard
        }
    }
}

/// The benchmark's own span around a call into a layer (traced runs only).
pub fn layer_span(traced: bool, name: &str) -> Option<SpanGuard> {
    traced.then(|| secmed_obs::span(name))
}

/// The outcome of one query.
pub struct QueryOut {
    /// One report per engine run (one, or one per plan node).
    pub reports: Vec<RunReport>,
    /// Why the query failed; `None` when the result equals the
    /// reference and every run ended `Clean`.
    pub error: Option<String>,
    /// Plan nodes (plan workloads only).
    pub plan_nodes: u64,
    /// Summed §6 weighted cost of the plan's nodes.
    pub plan_weighted_cost: u64,
    /// Census of the per-node client set-ups, which run outside
    /// `Engine::run` (plan workloads only).
    pub client_setup_census: Vec<(secmed_crypto::metrics::Op, u64)>,
    /// Runs whose own census differs from the §6 prediction (computed
    /// in traced runs only).
    pub census_mismatched: u64,
}

impl QueryOut {
    fn new(error: Option<String>) -> QueryOut {
        QueryOut {
            reports: Vec::new(),
            error,
            plan_nodes: 0,
            plan_weighted_cost: 0,
            client_setup_census: Vec::new(),
            census_mismatched: 0,
        }
    }

    /// Fabric bytes of every run of the query.
    pub fn bytes(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.transport.total_bytes() as u64)
            .sum()
    }

    /// Fabric bytes delivered to the client.
    pub fn client_bytes(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.client_view.bytes_received as u64)
            .sum()
    }
}

/// Issues the client's next query and verifies its result.
pub fn query(client: &mut ClientState, ctx: &QueryCtx) -> QueryOut {
    let dataset = ((client.start + client.issued) % ctx.name.datasets() as u64) as usize;
    let seq = client.issued;
    client.issued += 1;
    let _q = layer_span(ctx.traced, "bench.query");
    match &mut client.cases {
        Cases::Pairs { scenario, pairs } => {
            let session = ((client.index + 1) << 32) | seq;
            query_pair(scenario, &pairs[dataset], ctx, session)
        }
        Cases::Chains {
            ca,
            group,
            label,
            chains,
        } => {
            let keys = format!("{label}/{seq}");
            query_chain(&chains[dataset], ca, group, &keys, ctx)
        }
    }
}

fn query_pair(scenario: &mut Scenario, pair: &Pair, ctx: &QueryCtx, session: u64) -> QueryOut {
    pair.install(scenario);
    let opts = ctx.name.run_options(ctx.sink());
    let run = match ctx.addr {
        Some(addr) => {
            run_over_socket(addr, session, scenario, &opts, ctx.traced).map(|(report, _)| report)
        }
        None => {
            let _s = layer_span(ctx.traced, "bench.engine_run");
            Engine::run(scenario, &opts).map_err(|e| e.to_string())
        }
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => return QueryOut::new(Some(e)),
    };
    let _v = layer_span(ctx.traced, "bench.verify");
    let mut out = QueryOut::new(verdict(
        report.outcome.is_clean(),
        pair.expected.matches(&report.result),
    ));
    if ctx.traced {
        out.census_mismatched = u64::from(census_mismatch(pair, &opts, &report));
    }
    out.reports.push(report);
    out
}

/// Why a delivered query failed, if it did.
fn verdict(clean: bool, matches: bool) -> Option<String> {
    if !clean {
        Some("a run did not finish Clean".to_string())
    } else if !matches {
        Some("result differs from the plaintext reference".to_string())
    } else {
        None
    }
}

/// Whether a run's own census differs from the §6 prediction for its
/// shape (concurrent runs bleed into each other's census).
fn census_mismatch(pair: &Pair, opts: &RunOptions, report: &RunReport) -> bool {
    let server = report.mediator_view.server_result_size.unwrap_or(0);
    match cost::shape_of(&pair.left, &pair.right, "k", server) {
        Ok(shape) => {
            let predicted = cost::predict(&opts.protocol, &shape);
            let observed = cost::observed(&report.primitives);
            !cost::divergence(&predicted, &observed).within_tolerance()
        }
        Err(_) => true,
    }
}

/// One scenario as a fresh loopback session: connect (`Hello`), run,
/// and say `Goodbye` as the fabric tears down.  Also returns how long
/// the connect and handshake took, in ns.
pub fn run_over_socket(
    addr: SocketAddr,
    session: u64,
    scenario: &mut Scenario,
    opts: &RunOptions,
    traced: bool,
) -> Result<(RunReport, u64), String> {
    let t0 = crate::sys::now_ns();
    let fabric = {
        let _s = layer_span(traced, "bench.connect");
        SocketFabric::connect_with(addr, session, opts.delivery, ReconnectPolicy::none())
            .map_err(|e| e.to_string())?
    };
    let connect_ns = crate::sys::now_ns().saturating_sub(t0);
    let _s = layer_span(traced, "bench.engine_run");
    let report = Engine::run_on(fabric, scenario, opts).map_err(|e| e.to_string())?;
    Ok((report, connect_ns))
}

fn query_chain(
    chain: &Chain,
    ca: &CertificationAuthority,
    group: &SafePrimeGroup,
    keys: &str,
    ctx: &QueryCtx,
) -> QueryOut {
    let plan = {
        let _s = layer_span(ctx.traced, "bench.plan");
        Planner::new().plan(
            &chain.query,
            &chain.schemas(),
            &chain.stats,
            LeakageBudget::open(),
        )
    };
    let plan = match plan {
        Ok(p) => p,
        Err(e) => return QueryOut::new(Some(format!("plan: {e}"))),
    };
    let sources: Vec<SourceSpec> = chain
        .catalog
        .iter()
        .map(|(name, rel)| SourceSpec {
            name: name.clone(),
            relation: rel.clone(),
            policy: AccessPolicy::allow_all(),
        })
        .collect();
    let opts = PlanRunOptions::default()
        .threads(POOL_THREADS)
        .trace(ctx.sink());
    let node = Cell::new(0u64);
    let census = Cell::new(Vec::new());
    let template = || {
        let _s = layer_span(ctx.traced, "bench.client_setup");
        let before = secmed_crypto::metrics::Snapshot::capture();
        let client = Client::setup(
            ca,
            vec![Property::new("role", "analyst")],
            group.clone(),
            512,
            &format!("{keys}/{}", node.get()),
        );
        node.set(node.get() + 1);
        let mut acc = census.take();
        acc.extend(secmed_crypto::metrics::Snapshot::capture().since(&before));
        census.set(acc);
        client
    };
    let exec = {
        let _s = layer_span(ctx.traced, "bench.run_plan");
        Engine::run_plan(ca, template, sources, &plan, &opts)
    };
    let mut out = QueryOut::new(None);
    out.plan_nodes = plan.nodes.len() as u64;
    out.plan_weighted_cost = plan.nodes.iter().map(|n| n.predicted.weighted_cost()).sum();
    out.client_setup_census = census.take();
    let exec = match exec {
        Ok(e) => e,
        Err(e) => {
            out.error = Some(format!("run_plan: {e}"));
            return out;
        }
    };
    let _v = layer_span(ctx.traced, "bench.verify");
    out.census_mismatched = exec
        .nodes
        .iter()
        .filter(|n| !n.divergence.within_tolerance())
        .count() as u64;
    out.error = verdict(
        exec.nodes.iter().all(|n| n.report.outcome.is_clean()),
        chain.expected.matches(&exec.result),
    );
    out.reports = exec.nodes.into_iter().map(|n| n.report).collect();
    out
}
