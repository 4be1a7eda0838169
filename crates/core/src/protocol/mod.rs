//! The mediation protocols.
//!
//! [`crate::engine::Engine::run`] executes the shared request phase
//! (paper Listing 1) followed by the selected delivery phase:
//!
//! * [`das`] — Listing 2 (client setting),
//! * [`commutative`] — Listing 3 (with the footnote-1 ID-reference
//!   optimization as an option),
//! * [`pm`] — Listing 4 (with naive/Horner/bucketed evaluation and the
//!   footnote-2 session-key-table optimization as options).
//!
//! Every run returns a [`RunReport`] carrying the global result, the full
//! transport log, both parties' views (for the Table 1 audit), and the
//! delta of cryptographic-primitive counters (for the Table 2 census).

pub mod commutative;
pub mod das;
pub mod pm;

use std::collections::BTreeMap;

use relalg::sql::{decompose, parse, Residual};
use relalg::{Relation, Schema, Tuple, Value};
use secmed_crypto::metrics::Op;
use secmed_das::PartitionScheme;

use crate::audit::{ClientView, MediatorView};
use crate::party::{Client, DataSource, Mediator};
use crate::transport::{DeliveryFailure, Fabric, Frame, Link, PartyId, Transport};
use crate::MedError;

/// Which delivery-phase protocol to run, with its options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Database-as-a-Service bucketization (Listing 2, client setting).
    Das(DasConfig),
    /// Commutative encryption (Listing 3).
    Commutative(CommutativeConfig),
    /// Private matching via homomorphic encryption (Listing 4).
    Pm(PmConfig),
}

impl ProtocolKind {
    /// The paper's name for this protocol (Table 1/2 row label).
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Das(_) => "Database-as-a-Service",
            ProtocolKind::Commutative(_) => "Commutative Encryption",
            ProtocolKind::Pm(_) => "Private Matching",
        }
    }

    /// Short machine-readable key used as the trace-span prefix.
    pub fn key(&self) -> &'static str {
        match self {
            ProtocolKind::Das(_) => "das",
            ProtocolKind::Commutative(_) => "commutative",
            ProtocolKind::Pm(_) => "pm",
        }
    }
}

/// Where the DAS query translator lives (paper Section 3.1: "it is
/// possible to place the DAS query translator in any layer of the
/// mediation system"; the paper details the client setting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DasSetting {
    /// Listing 2: index tables reach only the client, which derives the
    /// server query.  Costs the client a second interaction.
    #[default]
    ClientSetting,
    /// The translator sits at the mediator: sources hand over their index
    /// tables in plaintext, the mediator translates and executes the
    /// server query itself.  One client interaction — but the mediator
    /// now sees the partition ranges and "would be able to approximate
    /// the join attribute value for each tuple" (the leakage the paper
    /// warns about; kept as an explicit insecure baseline).
    MediatorSetting,
}

/// DAS options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DasConfig {
    /// How each source partitions its active domain.
    pub scheme: PartitionScheme,
    /// Where the query translator runs.
    pub setting: DasSetting,
}

impl Default for DasConfig {
    fn default() -> Self {
        DasConfig {
            scheme: PartitionScheme::EquiDepth(8),
            setting: DasSetting::ClientSetting,
        }
    }
}

/// How the commutative protocol ships tuple ciphertexts (paper footnote 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommutativeMode {
    /// Exactly Listing 3: the encrypted tuple sets are echoed through the
    /// opposite datasource.
    EchoTuples,
    /// Footnote 1: the mediator keeps the tuple ciphertexts and sends only
    /// fixed-length IDs with the hash values; better performance *and*
    /// the opposite source never holds the other's ciphertexts.
    #[default]
    IdReferences,
}

/// Commutative-protocol options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommutativeConfig {
    /// Tuple-shipping mode.
    pub mode: CommutativeMode,
}

/// How the PM protocol evaluates the encrypted polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PmEval {
    /// Power-sum evaluation.
    Naive,
    /// Horner's rule (Freedman's efficiency note).
    #[default]
    Horner,
    /// Freedman's hash-bucket allocation with this many buckets.
    Bucketed(usize),
}

/// How the PM protocol carries tuple payloads (paper footnote 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PmPayloadMode {
    /// Tuple sets ride inside the polynomial payload (`a || Tup(a)`).
    /// Fails with `MessageTooLarge` if a tuple set exceeds the Paillier
    /// plaintext space — exactly the limitation footnote 2 addresses.
    Inline,
    /// Footnote 2: a fresh session key per tuple set; the polynomial
    /// payload carries only `a || key || id` and the tuple sets travel in
    /// a separate ID-keyed table of symmetric ciphertexts.
    #[default]
    SessionKeyTable,
}

/// PM options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PmConfig {
    /// Polynomial evaluation strategy.
    pub eval: PmEval,
    /// Payload transport mode.
    pub payload: PmPayloadMode,
}

/// How a protocol run ended, robustness-wise.
///
/// Under a fault plan a run may still complete perfectly
/// ([`RunOutcome::Clean`]), complete correctly only because the bounded
/// retry absorbed fabric faults ([`RunOutcome::RecoveredWithRetries`]),
/// complete with a documented partial substitute after a delivery was
/// exhausted ([`RunOutcome::Degraded`]), or stop at an unrecoverable step
/// ([`RunOutcome::Aborted`]).  The variant is part of the report — chaos
/// runs never panic and never silently return a wrong join; they return a
/// typed outcome instead.
#[derive(Debug)]
pub enum RunOutcome {
    /// Every delivery succeeded on its first attempt.
    Clean,
    /// The result is the correct join, but the fabric misbehaved and the
    /// retry policy absorbed it.
    RecoveredWithRetries {
        /// Retransmissions executed across the run.
        retries: u64,
    },
    /// A delivery was exhausted and the driver substituted a documented
    /// partial input instead of aborting (policy `OnExhausted::Degrade`).
    Degraded {
        /// Which deliveries degraded, in protocol order.
        details: Degradations,
        /// Retransmissions executed across the run.
        retries: u64,
    },
    /// The run stopped: a delivery was exhausted at a step with no sound
    /// degradation (or the policy demands aborting).
    Aborted {
        /// The terminal error.
        error: MedError,
        /// Retransmissions executed before the run stopped.
        retries: u64,
    },
}

impl RunOutcome {
    /// Whether the run completed without any fault interference.
    pub fn is_clean(&self) -> bool {
        matches!(self, RunOutcome::Clean)
    }

    /// Whether a result reached the client (clean, recovered, or
    /// degraded — everything but an abort).
    pub fn delivered(&self) -> bool {
        !matches!(self, RunOutcome::Aborted { .. })
    }

    /// Retransmissions executed during the run.
    pub fn retries(&self) -> u64 {
        match self {
            RunOutcome::Clean => 0,
            RunOutcome::RecoveredWithRetries { retries }
            | RunOutcome::Degraded { retries, .. }
            | RunOutcome::Aborted { retries, .. } => *retries,
        }
    }

    /// Short machine-readable key (trace field / report column).
    pub fn key(&self) -> &'static str {
        match self {
            RunOutcome::Clean => "clean",
            RunOutcome::RecoveredWithRetries { .. } => "recovered",
            RunOutcome::Degraded { .. } => "degraded",
            RunOutcome::Aborted { .. } => "aborted",
        }
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Clean => write!(f, "clean"),
            RunOutcome::RecoveredWithRetries { retries } => {
                write!(f, "recovered after {retries} retransmission(s)")
            }
            RunOutcome::Degraded { details, retries } => {
                write!(f, "degraded ({details}; {retries} retransmission(s))")
            }
            RunOutcome::Aborted { error, retries } => {
                write!(f, "aborted after {retries} retransmission(s): {error}")
            }
        }
    }
}

/// The deliveries a degraded run substituted past, in protocol order.
///
/// Never empty: the only constructor returns `None` for an empty list of
/// notes, so a [`RunOutcome::Degraded`] always says what it lost.
/// `Debug` renders like the `Vec<String>` of notes; `Display` joins them
/// with `"; "`.
///
/// ```
/// use secmed_core::{Degradations, RunOutcome};
/// let details = Degradations::new(vec!["L3.4 undelivered".to_string()]).unwrap();
/// let outcome = RunOutcome::Degraded { details, retries: 0 };
/// assert_eq!(outcome.to_string(), "degraded (L3.4 undelivered; 0 retransmission(s))");
/// assert!(Degradations::new(Vec::new()).is_none());
/// ```
///
/// A degraded outcome built from a bare list does not compile:
///
/// ```compile_fail,E0308
/// use secmed_core::RunOutcome;
/// let outcome = RunOutcome::Degraded { details: vec![], retries: 0 };
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Degradations(Vec<String>);

impl Degradations {
    /// The drivers' degradation notes, or `None` when there are none.
    pub fn new(notes: Vec<String>) -> Option<Self> {
        (!notes.is_empty()).then_some(Degradations(notes))
    }
}

impl std::fmt::Debug for Degradations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::fmt::Display for Degradations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0.join("; "))
    }
}

/// The standard note a driver records when it degrades past an exhausted
/// delivery (one entry in [`RunOutcome::Degraded`]'s details).
pub(crate) fn degrade_note(f: &DeliveryFailure) -> String {
    format!("{} undelivered after {} attempt(s)", f.label, f.attempts)
}

/// A driver's outcome from its degradation notes: `Degraded` with them,
/// `Clean` without any.  The engine fills in `retries`.
pub(crate) fn driver_outcome(notes: Vec<String>) -> RunOutcome {
    Degradations::new(notes).map_or(RunOutcome::Clean, |details| RunOutcome::Degraded {
        details,
        retries: 0,
    })
}

/// The complete output of one protocol run.
#[derive(Debug)]
pub struct RunReport {
    /// The global result delivered to the client.
    pub result: Relation,
    /// How the run ended (clean / recovered / degraded / aborted).
    pub outcome: RunOutcome,
    /// Every message that crossed the fabric.
    pub transport: Transport,
    /// What the mediator could derive.
    pub mediator_view: MediatorView,
    /// What the client received beyond the exact result.
    pub client_view: ClientView,
    /// Cryptographic primitives invoked during the run (Table 2 census).
    pub primitives: Vec<(Op, u64)>,
    /// Deterministic-class metrics for this run, sorted by name: pure
    /// functions of the scenario seed (frames, bytes, retries, fault and
    /// primitive tallies), computed from this run's own transport log and
    /// census delta — never from wall clocks — so the byte-identical
    /// determinism fingerprint covers them at every thread count.
    pub metrics: Vec<(String, u64)>,
}

/// A configured mediation scenario: one client, one mediator, two sources.
pub struct Scenario {
    /// The querying client.
    pub client: Client,
    /// The mediator.
    pub mediator: Mediator,
    /// The left datasource.
    pub left: DataSource,
    /// The right datasource.
    pub right: DataSource,
    /// The SQL query the client issues.
    pub query: String,
}

impl Scenario {
    /// The plaintext reference: what an honest party holding both filtered
    /// partial results would compute (used by tests to verify every
    /// protocol end-to-end).
    pub fn expected_result(&mut self) -> Result<Relation, MedError> {
        let mut transport = Transport::new();
        let p = request_phase(self, Link::new(&mut transport))?;
        let joined = p.left_partial.join_on(&p.right_partial, &p.join_attrs)?;
        apply_residual(&joined, &p.residual)
    }
}

/// Everything the request phase (Listing 1) establishes.
pub struct Prepared {
    /// Join attribute base names (`A_join`, possibly several).
    pub join_attrs: Vec<String>,
    /// Residual client work from query decomposition.
    pub residual: Residual,
    /// The left source's filtered partial result (held at the source).
    pub left_partial: Relation,
    /// The right source's filtered partial result (held at the source).
    pub right_partial: Relation,
    /// The credential subset `CR_1` the mediator forwarded to the left
    /// source; its keys are what the source encrypts for.
    pub left_creds: Vec<crate::credential::Credential>,
    /// The credential subset `CR_2` for the right source.
    pub right_creds: Vec<crate::credential::Credential>,
}

impl Prepared {
    /// The client public key the left source encrypts its data under —
    /// taken from the forwarded credentials, as the paper prescribes
    /// ("The public keys in the credentials can be used by the
    /// datasources to send information ... securely via the mediator to
    /// the client").
    pub fn left_client_key(&self) -> &secmed_crypto::HybridPublicKey {
        self.left_creds[0].hybrid_key()
    }

    /// The client public key for the right source.
    pub fn right_client_key(&self) -> &secmed_crypto::HybridPublicKey {
        self.right_creds[0].hybrid_key()
    }
}

/// The mediator's credential-subset selection (Listing 1, step 2): forward
/// the credentials asserting at least one property the source's policy
/// advertises; always at least one credential travels, because it carries
/// the client's public keys.
fn credential_subset(
    all: &[crate::credential::Credential],
    advertised: &[crate::credential::Property],
) -> Vec<crate::credential::Credential> {
    let relevant: Vec<_> = all
        .iter()
        .filter(|c| advertised.iter().any(|p| c.asserts(p)))
        .cloned()
        .collect();
    if relevant.is_empty() {
        all.first().cloned().into_iter().collect()
    } else {
        relevant
    }
}

/// Listing 1: the client sends the query and credentials; the mediator
/// decomposes, localizes sources, forwards credential subsets; the sources
/// check credentials and evaluate the partial queries.
///
/// Every message is a real [`Frame`]: the mediator works on the *decoded*
/// query and credentials it received, and each source decodes (and then
/// verifies) the credential subset off the wire — byte sizes on the
/// transport are exact encoded lengths.
pub fn request_phase<F: Fabric>(
    sc: &mut Scenario,
    mut transport: Link<'_, F>,
) -> Result<Prepared, MedError> {
    // Step 1: client → mediator — the query text plus the client's
    // encoded credentials.
    let query_frame = Frame::Query {
        sql: sc.query.clone(),
        credentials: sc
            .client
            .credentials()
            .iter()
            .map(crate::credential::Credential::encode)
            .collect(),
    };
    let received = transport.deliver(
        PartyId::Client,
        PartyId::Mediator,
        "L1.1 query q + credentials CR",
        &query_frame,
    )?;
    let Frame::Query { sql, credentials } = received else {
        return Err(MedError::Protocol("expected a query frame".to_string()));
    };
    let group = sc.mediator.credential_group()?.clone();
    let client_creds: Vec<crate::credential::Credential> = credentials
        .iter()
        .map(|bytes| crate::credential::Credential::decode(bytes, &group))
        .collect::<Result<_, _>>()?;

    // Step 2: mediator decomposes the received query and resolves join
    // attributes.
    let tree = parse(&sql)?;
    let decomp = decompose(&tree)?;
    if decomp.join.left != sc.left.name() || decomp.join.right != sc.right.name() {
        return Err(MedError::Protocol(format!(
            "query touches {}/{} but scenario sources are {}/{}",
            decomp.join.left,
            decomp.join.right,
            sc.left.name(),
            sc.right.name()
        )));
    }
    let join_attrs = if decomp.join.attrs.is_empty() {
        sc.mediator
            .natural_join_attrs(&decomp.join.left, &decomp.join.right)?
    } else {
        decomp.join.attrs.clone()
    };

    // Step 3: mediator → sources (partial query + credential subset + A_i),
    // each as one frame; the sources decode their credential subsets off
    // the wire and verify them in step 4.
    let mut source_creds = Vec::with_capacity(2);
    for (source, partial_sql, label) in [
        (&sc.left, &decomp.q1, "L1.3 ⟨q1, CR1, A1⟩"),
        (&sc.right, &decomp.q2, "L1.3 ⟨q2, CR2, A2⟩"),
    ] {
        let subset = credential_subset(&client_creds, &source.advertised_properties());
        let frame = Frame::PartialQuery {
            sql: partial_sql.clone(),
            credentials: subset
                .iter()
                .map(crate::credential::Credential::encode)
                .collect(),
            join_attrs: join_attrs.clone(),
        };
        let received = transport.deliver(
            PartyId::Mediator,
            PartyId::source(source.name()),
            label,
            &frame,
        )?;
        let Frame::PartialQuery { credentials, .. } = received else {
            return Err(MedError::Protocol(
                "expected a partial-query frame".to_string(),
            ));
        };
        let source_group = source.ca_key().group().clone();
        let decoded: Vec<crate::credential::Credential> = credentials
            .iter()
            .map(|bytes| crate::credential::Credential::decode(bytes, &source_group))
            .collect::<Result<_, _>>()?;
        source_creds.push(decoded);
    }
    let right_creds = source_creds.pop().unwrap_or_default();
    let left_creds = source_creds.pop().unwrap_or_default();

    // Step 4: sources check credentials and evaluate the partial queries.
    let left_partial = sc.left.answer_partial_query(&left_creds)?;
    let right_partial = sc.right.answer_partial_query(&right_creds)?;

    Ok(Prepared {
        join_attrs,
        residual: decomp.residual,
        left_partial,
        right_partial,
        left_creds,
        right_creds,
    })
}

/// Applies the residual client query (post-join selection, projection,
/// and aggregation — all client-side work in the mediated setting).
pub fn apply_residual(joined: &Relation, residual: &Residual) -> Result<Relation, MedError> {
    let mut out = joined.clone();
    if let Some(pred) = &residual.pred {
        out = out.select(pred)?;
    }
    if let Some((group_cols, aggs)) = &residual.aggregate {
        let groups: Vec<&str> = group_cols.iter().map(String::as_str).collect();
        let agg_refs: Vec<(relalg::AggFn, &str)> =
            aggs.iter().map(|(f, c)| (*f, c.as_str())).collect();
        out = out.aggregate(&groups, &agg_refs)?;
    } else if let Some(cols) = &residual.cols {
        let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        out = out.project(&refs)?;
    }
    Ok(out)
}

/// Canonical byte encoding of a tuple's join-key (supports composite keys —
/// the multi-attribute extension of Section 8).
pub fn join_key_bytes(t: &Tuple, key_indices: &[usize]) -> Vec<u8> {
    let key: Vec<Value> = key_indices.iter().map(|&i| t.at(i).clone()).collect();
    relalg::encode_tuple(&Tuple::new(key))
}

/// Groups a relation by join key: key bytes → (`Tup_i(a)` tuples).
pub fn group_by_join_key(
    rel: &Relation,
    attrs: &[String],
) -> Result<BTreeMap<Vec<u8>, Vec<Tuple>>, MedError> {
    let indices: Vec<usize> = attrs
        .iter()
        .map(|a| rel.schema().index_of(a))
        .collect::<Result<_, _>>()?;
    let mut groups: BTreeMap<Vec<u8>, Vec<Tuple>> = BTreeMap::new();
    for t in rel.tuples() {
        groups
            .entry(join_key_bytes(t, &indices))
            .or_default()
            .push(t.clone());
    }
    Ok(groups)
}

/// Client-side join assembly from matched tuple-set pairs (commutative and
/// PM protocols): cross product within each pair, as in Listing 3 step 8.
///
/// The paper assumes a semi-honest mediator; since the decrypted tuples
/// carry their join values anyway, the client verifies the match for free
/// and rejects pairs a misbehaving mediator combined wrongly, instead of
/// silently producing a wrong join.
pub fn assemble_from_tuple_sets(
    left_schema: &Schema,
    right_schema: &Schema,
    attrs: &[String],
    pairs: &[(Vec<Tuple>, Vec<Tuple>)],
) -> Result<Relation, MedError> {
    let left_idx: Vec<usize> = attrs
        .iter()
        .map(|a| left_schema.index_of(a))
        .collect::<Result<_, _>>()?;
    let right_idx: Vec<usize> = attrs
        .iter()
        .map(|a| right_schema.index_of(a))
        .collect::<Result<_, _>>()?;
    let schema = left_schema.join_schema(right_schema, attrs);
    let mut out = Relation::empty(schema);
    for (ls, rs) in pairs {
        for l in ls {
            for r in rs {
                let matches = left_idx
                    .iter()
                    .zip(&right_idx)
                    .all(|(&li, &ri)| l.at(li) == r.at(ri));
                if !matches {
                    return Err(MedError::Protocol(
                        "result message pairs tuples with different join values — \
                         the mediator deviated from the protocol"
                            .to_string(),
                    ));
                }
                out.insert(l.concat_skipping(r, &right_idx))?;
            }
        }
    }
    Ok(out)
}

/// Client-side join assembly from candidate tuple *pairs* (DAS protocol):
/// apply the true join condition `Cond_C`, then combine.
pub fn assemble_from_candidates(
    left_schema: &Schema,
    right_schema: &Schema,
    attrs: &[String],
    candidates: &[(Tuple, Tuple)],
) -> Result<Relation, MedError> {
    let left_idx: Vec<usize> = attrs
        .iter()
        .map(|a| left_schema.index_of(a))
        .collect::<Result<_, _>>()?;
    let right_idx: Vec<usize> = attrs
        .iter()
        .map(|a| right_schema.index_of(a))
        .collect::<Result<_, _>>()?;
    let schema = left_schema.join_schema(right_schema, attrs);
    let mut out = Relation::empty(schema);
    for (l, r) in candidates {
        let matches = left_idx
            .iter()
            .zip(&right_idx)
            .all(|(&li, &ri)| l.at(li) == r.at(ri));
        if matches {
            out.insert(l.concat_skipping(r, &right_idx))?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::{Type, Value};

    fn rel(rows: &[(i64, &str)]) -> Relation {
        let mut r = Relation::empty(Schema::new(&[("k", Type::Int), ("p", Type::Str)]));
        for &(k, p) in rows {
            r.insert(Tuple::new(vec![Value::Int(k), Value::from(p)]))
                .unwrap();
        }
        r
    }

    #[test]
    fn join_key_bytes_distinguishes_composite_keys() {
        let t1 = Tuple::new(vec![Value::Int(1), Value::Int(23)]);
        let t2 = Tuple::new(vec![Value::Int(12), Value::Int(3)]);
        // Naive concatenation of "1"+"23" and "12"+"3" would collide; the
        // length-prefixed codec must not.
        assert_ne!(join_key_bytes(&t1, &[0, 1]), join_key_bytes(&t2, &[0, 1]));
        assert_eq!(join_key_bytes(&t1, &[0]), join_key_bytes(&t1, &[0]));
    }

    #[test]
    fn group_by_join_key_partitions_rows() {
        let r = rel(&[(1, "a"), (2, "b"), (1, "c")]);
        let groups = group_by_join_key(&r, &["k".to_string()]).unwrap();
        assert_eq!(groups.len(), 2);
        let total: usize = groups.values().map(Vec::len).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn group_by_unknown_attribute_errors() {
        let r = rel(&[(1, "a")]);
        assert!(group_by_join_key(&r, &["ghost".to_string()]).is_err());
    }

    #[test]
    fn assemble_from_tuple_sets_cross_products_each_pair() {
        let left = rel(&[(1, "l1"), (1, "l2")]);
        let right_schema = Schema::new(&[("k", Type::Int), ("q", Type::Str)]);
        let r1 = Tuple::new(vec![Value::Int(1), Value::from("r1")]);
        let r2 = Tuple::new(vec![Value::Int(1), Value::from("r2")]);
        let pairs = vec![(left.tuples().to_vec(), vec![r1, r2])];
        let joined =
            assemble_from_tuple_sets(left.schema(), &right_schema, &["k".to_string()], &pairs)
                .unwrap();
        assert_eq!(joined.len(), 4);
        assert_eq!(joined.schema().attr_names(), vec!["k", "p", "q"]);
    }

    #[test]
    fn assemble_from_candidates_filters_false_positives() {
        let left = rel(&[(1, "l")]);
        let right_schema = Schema::new(&[("k", Type::Int), ("q", Type::Str)]);
        let matching = Tuple::new(vec![Value::Int(1), Value::from("hit")]);
        let fake = Tuple::new(vec![Value::Int(9), Value::from("miss")]);
        let candidates = vec![
            (left.tuples()[0].clone(), matching),
            (left.tuples()[0].clone(), fake),
        ];
        let joined = assemble_from_candidates(
            left.schema(),
            &right_schema,
            &["k".to_string()],
            &candidates,
        )
        .unwrap();
        assert_eq!(
            joined.len(),
            1,
            "the DAS client query drops non-matching pairs"
        );
    }

    #[test]
    fn assemble_from_tuple_sets_detects_mediator_misbehaviour() {
        // A cheating mediator pairs Tup1(a) with Tup2(b), a != b: the
        // client must notice, not fabricate join rows.
        let left = rel(&[(1, "l")]);
        let right_schema = Schema::new(&[("k", Type::Int), ("q", Type::Str)]);
        let wrong = Tuple::new(vec![Value::Int(2), Value::from("r")]);
        let pairs = vec![(left.tuples().to_vec(), vec![wrong])];
        let err =
            assemble_from_tuple_sets(left.schema(), &right_schema, &["k".to_string()], &pairs);
        assert!(matches!(err, Err(MedError::Protocol(_))));
    }

    #[test]
    fn apply_residual_projects_and_filters() {
        use relalg::Predicate;
        let joined = rel(&[(1, "a"), (2, "b")]);
        let residual = Residual {
            pred: Some(Predicate::eq_lit("k", 2i64)),
            cols: Some(vec!["p".to_string()]),
            aggregate: None,
        };
        let out = apply_residual(&joined, &residual).unwrap();
        assert_eq!(out.schema().attr_names(), vec!["p"]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].at(0), &Value::from("b"));
    }

    #[test]
    fn protocol_names_match_paper_rows() {
        assert_eq!(
            ProtocolKind::Das(DasConfig::default()).name(),
            "Database-as-a-Service"
        );
        assert_eq!(
            ProtocolKind::Commutative(CommutativeConfig::default()).name(),
            "Commutative Encryption"
        );
        assert_eq!(
            ProtocolKind::Pm(PmConfig::default()).name(),
            "Private Matching"
        );
    }
}
