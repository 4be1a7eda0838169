//! The private-matching delivery phase (paper Listing 4, after Freedman
//! et al.).
//!
//! Each source builds a polynomial whose roots are (encodings of) its
//! active join values and ships the Paillier-encrypted coefficients —
//! under the client's homomorphic credential key — through the mediator to
//! the *opposite* source.  That source evaluates
//! `E(r * P(a) + (a || payload))` for each of its own values: the client
//! can decrypt a useful payload exactly for values in the intersection,
//! and sees uniformly random garbage otherwise.
//!
//! Options:
//! * [`PmEval`] — naive power-sum, Horner, or Freedman's bucket allocation,
//! * [`PmPayloadMode`] — tuple sets inline in the polynomial payload
//!   (Listing 4 verbatim) or the footnote-2 session-key table.
//!
//! Polynomials and evaluations travel as encoded [`Frame`]s: the opposite
//! source rebuilds the encrypted polynomial from the coefficients it
//! decoded off the wire, and the client rebuilds the Paillier ciphertexts
//! from the delivered elements.

use std::collections::BTreeMap;

use mpint::rng::Rng;
use mpint::Natural;
use relalg::{decode_tuple_set, encode_tuple_set, Tuple};
use secmed_crypto::drbg::DrbgFamily;
use secmed_crypto::hybrid::{SessionCiphertext, SessionKey};
use secmed_crypto::paillier::{PaillierCiphertext, PaillierPublicKey};
use secmed_crypto::polynomial::{BucketedPoly, EncryptedBucketedPoly, EncryptedPoly, ZnPoly};
use secmed_crypto::sha256::sha256;
use secmed_crypto::CryptoError;
use secmed_pool::Pool;
use secmed_wire::{PmPayloadSet, PolyCoeffs};

use crate::audit::ClientView;
use crate::protocol::{
    apply_residual, assemble_from_tuple_sets, degrade_note, driver_outcome, group_by_join_key,
    PmConfig, PmEval, PmPayloadMode, Prepared, RunReport, Scenario,
};
use crate::transport::{Fabric, Frame, Link, PartyId, Transport};
use crate::MedError;

/// Payload framing version tags.
const TAG_INLINE: u8 = 0x01;
const TAG_SESSION: u8 = 0x02;
/// Truncated join-value tag length (collision probability 2^-64 per pair
/// at 2^32 values — ample for a semi-honest matching protocol).
const VALUE_TAG_LEN: usize = 16;

/// The encrypted polynomial a source ships: flat or bucketed.
enum ShippedPoly {
    Flat(EncryptedPoly),
    Bucketed(EncryptedBucketedPoly),
}

impl ShippedPoly {
    /// The wire form: raw ciphertext elements, structure preserved.
    fn to_coeffs(&self) -> PolyCoeffs {
        let elements = |p: &EncryptedPoly| {
            p.ciphertexts()
                .iter()
                .map(|c| c.element().clone())
                .collect()
        };
        match self {
            ShippedPoly::Flat(p) => PolyCoeffs::Flat(elements(p)),
            ShippedPoly::Bucketed(bp) => {
                PolyCoeffs::Bucketed(bp.buckets().iter().map(elements).collect())
            }
        }
    }

    /// Rebuilds an evaluatable polynomial from decoded coefficients,
    /// validating every element against the public key.
    fn from_coeffs(coeffs: PolyCoeffs, pk: &PaillierPublicKey) -> Result<Self, MedError> {
        let rebuild = |elements: Vec<Natural>| -> Result<EncryptedPoly, CryptoError> {
            let cts = elements
                .into_iter()
                .map(|e| PaillierCiphertext::from_element(e, pk))
                .collect::<Result<Vec<_>, _>>()?;
            EncryptedPoly::from_ciphertexts(cts, pk)
        };
        match coeffs {
            PolyCoeffs::Flat(elements) => Ok(ShippedPoly::Flat(rebuild(elements)?)),
            PolyCoeffs::Bucketed(buckets) => {
                let polys = buckets
                    .into_iter()
                    .map(rebuild)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ShippedPoly::Bucketed(EncryptedBucketedPoly::from_buckets(
                    polys,
                )?))
            }
        }
    }
}

/// Packs one side's evaluations into its wire payload set.
fn payload_set(
    evals: &[PaillierCiphertext],
    table: &BTreeMap<u64, SessionCiphertext>,
) -> PmPayloadSet {
    PmPayloadSet {
        evals: evals.iter().map(|c| c.element().clone()).collect(),
        table: table.iter().map(|(id, ct)| (*id, ct.clone())).collect(),
    }
}

/// Client-side unpacking: rebuild the Paillier ciphertexts and the
/// session table from a decoded payload set.
fn unpack_payload_set(
    set: PmPayloadSet,
    pk: &PaillierPublicKey,
) -> Result<(Vec<PaillierCiphertext>, BTreeMap<u64, SessionCiphertext>), MedError> {
    let evals = set
        .evals
        .into_iter()
        .map(|e| PaillierCiphertext::from_element(e, pk))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((evals, set.table.into_iter().collect()))
}

/// Runs the delivery phase of Listing 4.
pub fn deliver<F: Fabric>(
    sc: &mut Scenario,
    p: Prepared,
    cfg: PmConfig,
    mut transport: Link<'_, F>,
    pool: &Pool,
) -> Result<RunReport, MedError> {
    // Step 1: the client's homomorphic public key is distributed with the
    // credentials — each source reads it from its forwarded subset.
    let paillier_pk = p
        .left_creds
        .iter()
        .chain(p.right_creds.iter())
        .find_map(|c| c.paillier_key())
        .ok_or_else(|| {
            MedError::Protocol("no credential carries a homomorphic public key".to_string())
        })?
        .clone();

    let groups1 = group_by_join_key(&p.left_partial, &p.join_attrs)?;
    let groups2 = group_by_join_key(&p.right_partial, &p.join_attrs)?;

    // Steps 2-3: each source builds and encrypts its polynomial.
    let (poly1, poly2) = {
        let mut s = secmed_obs::span("pm.encryption");
        let poly1 = build_poly(&groups1, &paillier_pk, cfg.eval, sc.left.rng(), pool);
        let poly2 = build_poly(&groups2, &paillier_pk, cfg.eval, sc.right.rng(), pool);
        s.field("left_degree", groups1.len());
        s.field("right_degree", groups2.len());
        (poly1, poly2)
    };

    // Steps 2-4 on the wire: coefficients to the mediator, then forwarded
    // to the opposite source, which rebuilds the polynomial it will
    // evaluate from the decoded frame.
    let transfer = secmed_obs::span("pm.transfer");
    let received = transport.deliver(
        PartyId::source(sc.left.name()),
        PartyId::Mediator,
        "L4.2 E(c_k) coefficients of P1",
        &Frame::PmPolynomial {
            poly: poly1.to_coeffs(),
        },
    )?;
    let Frame::PmPolynomial { poly: med_p1 } = received else {
        return Err(MedError::Protocol(
            "expected a polynomial frame".to_string(),
        ));
    };
    let received = transport.deliver(
        PartyId::source(sc.right.name()),
        PartyId::Mediator,
        "L4.3 E(d_l) coefficients of P2",
        &Frame::PmPolynomial {
            poly: poly2.to_coeffs(),
        },
    )?;
    let Frame::PmPolynomial { poly: med_p2 } = received else {
        return Err(MedError::Protocol(
            "expected a polynomial frame".to_string(),
        ));
    };

    // Step 4: the mediator forwards each polynomial to the opposite
    // source.  A source that never receives the opposite polynomial (an
    // exhausted L4.4 under the degrade policy — e.g. the source died right
    // after its own polynomial transfer) contributes no evaluations: the
    // client then sees only the partial delivery set, reported as
    // `Degraded`, never a silent wrong join.
    let mut degraded: Vec<String> = Vec::new();
    let p1_at_s2 = match transport.deliver(
        PartyId::Mediator,
        PartyId::source(sc.right.name()),
        "L4.4 E(P1) → S2",
        &Frame::PmPolynomial { poly: med_p1 },
    ) {
        Ok(Frame::PmPolynomial { poly }) => Some(ShippedPoly::from_coeffs(poly, &paillier_pk)?),
        Ok(_) => {
            return Err(MedError::Protocol(
                "expected a polynomial frame".to_string(),
            ))
        }
        Err(MedError::Delivery(f)) if transport.degrade_on_exhausted() => {
            degraded.push(degrade_note(&f));
            None
        }
        Err(e) => return Err(e),
    };
    let p2_at_s1 = match transport.deliver(
        PartyId::Mediator,
        PartyId::source(sc.left.name()),
        "L4.4 E(P2) → S1",
        &Frame::PmPolynomial { poly: med_p2 },
    ) {
        Ok(Frame::PmPolynomial { poly }) => Some(ShippedPoly::from_coeffs(poly, &paillier_pk)?),
        Ok(_) => {
            return Err(MedError::Protocol(
                "expected a polynomial frame".to_string(),
            ))
        }
        Err(MedError::Delivery(f)) if transport.degrade_on_exhausted() => {
            degraded.push(degrade_note(&f));
            None
        }
        Err(e) => return Err(e),
    };
    drop(transfer);

    // Steps 5-6: masked evaluations with payloads — the oblivious
    // matching work of this protocol — against the *received* polynomials.
    let mut intersection = secmed_obs::span("pm.intersection");
    let naive = matches!(cfg.eval, PmEval::Naive);
    let (evals1, table1) = match &p2_at_s1 {
        Some(poly) => evaluate_side(
            &groups1,
            poly,
            &paillier_pk,
            cfg.payload,
            naive,
            sc.left.rng(),
            pool,
        )?,
        None => (Vec::new(), BTreeMap::new()),
    };
    let (evals2, table2) = match &p1_at_s2 {
        Some(poly) => evaluate_side(
            &groups2,
            poly,
            &paillier_pk,
            cfg.payload,
            naive,
            sc.right.rng(),
            pool,
        )?,
        None => (Vec::new(), BTreeMap::new()),
    };
    intersection.field("evaluations", evals1.len() + evals2.len());
    drop(intersection);

    let transfer = secmed_obs::span("pm.transfer");
    // L4.5/L4.6 degrade like L4.4: an evaluation set that never reaches
    // the mediator leaves that side out of the delivery — a partial
    // delivery set, visibly typed.
    let empty_set = || PmPayloadSet {
        evals: Vec::new(),
        table: Vec::new(),
    };
    let med_e1 = match transport.deliver(
        PartyId::source(sc.left.name()),
        PartyId::Mediator,
        "L4.5 e_k values (+ session table)",
        &Frame::PmEvaluations {
            payload: payload_set(&evals1, &table1),
        },
    ) {
        Ok(Frame::PmEvaluations { payload }) => payload,
        Ok(_) => {
            return Err(MedError::Protocol(
                "expected an evaluations frame".to_string(),
            ))
        }
        Err(MedError::Delivery(f)) if transport.degrade_on_exhausted() => {
            degraded.push(degrade_note(&f));
            empty_set()
        }
        Err(e) => return Err(e),
    };
    let med_e2 = match transport.deliver(
        PartyId::source(sc.right.name()),
        PartyId::Mediator,
        "L4.6 e'_l values (+ session table)",
        &Frame::PmEvaluations {
            payload: payload_set(&evals2, &table2),
        },
    ) {
        Ok(Frame::PmEvaluations { payload }) => payload,
        Ok(_) => {
            return Err(MedError::Protocol(
                "expected an evaluations frame".to_string(),
            ))
        }
        Err(MedError::Delivery(f)) if transport.degrade_on_exhausted() => {
            degraded.push(degrade_note(&f));
            empty_set()
        }
        Err(e) => return Err(e),
    };

    // Step 7: mediator → client, all n + m encrypted values in one frame.
    let received = transport.deliver(
        PartyId::Mediator,
        PartyId::Client,
        "L4.7 n+m encrypted values (+ session tables)",
        &Frame::PmDelivery {
            left: med_e1,
            right: med_e2,
        },
    )?;
    let Frame::PmDelivery { left, right } = received else {
        return Err(MedError::Protocol("expected a delivery frame".to_string()));
    };
    drop(transfer);

    // Step 8: the client rebuilds the ciphertexts it was delivered, then
    // decrypts everything and matches value tags.
    let mut post = secmed_obs::span("pm.post");
    let client_pk = sc.client.paillier().public().clone();
    let (client_evals1, client_table1) = unpack_payload_set(left, &client_pk)?;
    let (client_evals2, client_table2) = unpack_payload_set(right, &client_pk)?;
    let parsed1 = parse_side(&client_evals1, sc)?;
    let parsed2 = parse_side(&client_evals2, sc)?;
    let useful = parsed1.len() + parsed2.len();

    let mut tuple_set_pairs: Vec<(Vec<Tuple>, Vec<Tuple>)> = Vec::new();
    for (tag, payload1) in &parsed1 {
        if let Some(payload2) = parsed2.get(tag) {
            let ts1 = open_payload(payload1, &client_table1)?;
            let ts2 = open_payload(payload2, &client_table2)?;
            tuple_set_pairs.push((ts1, ts2));
        }
    }
    let joined = assemble_from_tuple_sets(
        p.left_partial.schema(),
        p.right_partial.schema(),
        &p.join_attrs,
        &tuple_set_pairs,
    )?;
    let result = apply_residual(&joined, &p.residual)?;
    post.field("result_rows", result.len());
    drop(post);

    // Only the useful-payload count needs the client's secret key; every
    // other Table 1 observation is derived from the recorded frames by the
    // engine's audit pass.
    let client_view = ClientView {
        useful_payloads: Some(useful),
        ..Default::default()
    };

    {
        use secmed_obs::metrics::{incr, Class};
        incr(Class::Deterministic, "driver.pm.runs", 1);
        incr(
            Class::Deterministic,
            "driver.pm.useful_payloads",
            useful as u64,
        );
        incr(
            Class::Deterministic,
            "driver.pm.matched_pairs",
            tuple_set_pairs.len() as u64,
        );
        incr(
            Class::Deterministic,
            "driver.pm.result_rows",
            result.len() as u64,
        );
    }

    Ok(RunReport {
        result,
        outcome: driver_outcome(degraded),
        transport: Transport::new(),
        mediator_view: Default::default(),
        client_view,
        primitives: Vec::new(),
        metrics: Vec::new(), // filled in by the engine
    })
}

/// Encodes a join key as a polynomial root in `Z_n`: SHA-256 of the key
/// bytes, reduced mod `n`.
fn encode_root(key_bytes: &[u8], pk: &PaillierPublicKey) -> Natural {
    Natural::from_bytes_be(&sha256(key_bytes)).rem(pk.n())
}

/// Truncated value tag carried inside payloads for client-side matching.
fn value_tag(key_bytes: &[u8]) -> [u8; VALUE_TAG_LEN] {
    let digest = sha256(key_bytes);
    let mut tag = [0u8; VALUE_TAG_LEN];
    tag.copy_from_slice(&digest[..VALUE_TAG_LEN]);
    tag
}

/// Listing 4 steps 2-3 at one source.
fn build_poly(
    groups: &BTreeMap<Vec<u8>, Vec<Tuple>>,
    pk: &PaillierPublicKey,
    eval: PmEval,
    rng: &mut dyn Rng,
    pool: &Pool,
) -> ShippedPoly {
    let roots: Vec<Natural> = groups.keys().map(|k| encode_root(k, pk)).collect();
    let streams = DrbgFamily::derive(rng);
    match eval {
        PmEval::Bucketed(buckets) => {
            let bp = BucketedPoly::from_roots(&roots, pk.n(), buckets.max(1));
            ShippedPoly::Bucketed(EncryptedBucketedPoly::encrypt_par(&bp, pk, pool, &streams))
        }
        PmEval::Naive | PmEval::Horner => {
            let zp = ZnPoly::from_roots(&roots, pk.n());
            ShippedPoly::Flat(EncryptedPoly::encrypt_par(&zp, pk, pool, &streams))
        }
    }
}

/// A parsed client-side payload.
enum Payload {
    Inline(Vec<Tuple>),
    Session { key: SessionKey, id: u64 },
}

/// Listing 4 steps 5-6 at one source: one masked evaluation per active
/// value, plus (in session mode) the ID-keyed table of symmetric
/// ciphertexts.
fn evaluate_side(
    groups: &BTreeMap<Vec<u8>, Vec<Tuple>>,
    opposite_poly: &ShippedPoly,
    pk: &PaillierPublicKey,
    mode: PmPayloadMode,
    naive: bool,
    rng: &mut dyn Rng,
    pool: &Pool,
) -> Result<(Vec<PaillierCiphertext>, BTreeMap<u64, SessionCiphertext>), MedError> {
    // One DRBG stream per active value (canonical BTreeMap key order), so
    // session keys, IDs, and masks are identical at any thread count.
    let streams = DrbgFamily::derive(rng);
    let entries: Vec<(&Vec<u8>, &Vec<Tuple>)> = groups.iter().collect();
    let items = pool.try_par_map(&entries, |i, (key_bytes, tuples)| {
        let mut rng = streams.stream(i as u64);
        let root = encode_root(key_bytes, pk);
        let tag = value_tag(key_bytes);
        let mut session: Option<(u64, SessionCiphertext)> = None;
        let payload_bytes = match mode {
            PmPayloadMode::Inline => {
                let ts = encode_tuple_set(tuples);
                let mut out = Vec::with_capacity(1 + VALUE_TAG_LEN + 4 + ts.len());
                out.push(TAG_INLINE);
                out.extend_from_slice(&tag);
                out.extend_from_slice(&(ts.len() as u32).to_be_bytes());
                out.extend_from_slice(&ts);
                out
            }
            PmPayloadMode::SessionKeyTable => {
                let key = SessionKey::generate(&mut rng);
                let mut id_bytes = [0u8; 8];
                rng.fill_bytes(&mut id_bytes);
                let id = u64::from_be_bytes(id_bytes);
                let ct = key.encrypt(&encode_tuple_set(tuples), &mut rng);
                session = Some((id, ct));
                let mut out = Vec::with_capacity(1 + VALUE_TAG_LEN + 32 + 8);
                out.push(TAG_SESSION);
                out.extend_from_slice(&tag);
                out.extend_from_slice(&key.0);
                out.extend_from_slice(&id.to_be_bytes());
                out
            }
        };
        if payload_bytes.len() > pk.plaintext_bytes() {
            return Err(MedError::Crypto(CryptoError::MessageTooLarge));
        }
        let payload = Natural::from_bytes_be(&payload_bytes);
        let masked = match opposite_poly {
            // The evaluation strategy only changes how E(P(a)) is computed;
            // `Naive` uses the power sum, everything else Horner's rule.
            ShippedPoly::Flat(p) => {
                let p_at_a = if naive {
                    p.eval_naive(&root)
                } else {
                    p.eval_horner(&root)
                };
                p.mask(&p_at_a, &payload, &mut rng)?
            }
            ShippedPoly::Bucketed(bp) => bp.eval_masked(&root, &payload, &mut rng)?,
        };
        Ok::<_, MedError>((masked, session))
    })?;
    let mut evals = Vec::with_capacity(items.len());
    let mut table = BTreeMap::new();
    for (masked, session) in items {
        evals.push(masked);
        if let Some((id, ct)) = session {
            table.insert(id, ct);
        }
    }
    // Order independence: sort by ciphertext value.
    evals.sort_by(|a, b| a.element().cmp(b.element()));
    Ok((evals, table))
}

/// Client step 8a: decrypt and parse one side's evaluations.  Returns
/// tag → payload for every value that decrypts to well-formed protocol
/// data (values outside the intersection decrypt to random garbage and are
/// dropped here).
fn parse_side(
    evals: &[PaillierCiphertext],
    sc: &mut Scenario,
) -> Result<BTreeMap<[u8; VALUE_TAG_LEN], Payload>, MedError> {
    let mut out = BTreeMap::new();
    for ct in evals {
        let m = sc.client.paillier().decrypt(ct);
        let bytes = m.to_bytes_be();
        if let Some(p) = parse_payload(&bytes) {
            // parse_payload verified the length; a short slice means
            // "not in the intersection", same as any other parse failure.
            let Ok(tag) = <[u8; VALUE_TAG_LEN]>::try_from(&bytes[1..1 + VALUE_TAG_LEN]) else {
                continue;
            };
            out.insert(tag, p);
        }
    }
    Ok(out)
}

/// Strict payload parsing — any structural mismatch means "not in the
/// intersection".
fn parse_payload(bytes: &[u8]) -> Option<Payload> {
    match *bytes.first()? {
        TAG_INLINE => {
            if bytes.len() < 1 + VALUE_TAG_LEN + 4 {
                return None;
            }
            let len_off = 1 + VALUE_TAG_LEN;
            let len = u32::from_be_bytes(bytes[len_off..len_off + 4].try_into().ok()?) as usize;
            let body = &bytes[len_off + 4..];
            if body.len() != len {
                return None;
            }
            let tuples = decode_tuple_set(body).ok()?;
            Some(Payload::Inline(tuples))
        }
        TAG_SESSION => {
            if bytes.len() != 1 + VALUE_TAG_LEN + 32 + 8 {
                return None;
            }
            let key_off = 1 + VALUE_TAG_LEN;
            let mut key = [0u8; 32];
            key.copy_from_slice(&bytes[key_off..key_off + 32]);
            let id = u64::from_be_bytes(bytes[key_off + 32..].try_into().ok()?);
            Some(Payload::Session {
                key: SessionKey(key),
                id,
            })
        }
        _ => None,
    }
}

/// Client step 8b: recover the tuple set behind a parsed payload.
fn open_payload(
    payload: &Payload,
    table: &BTreeMap<u64, SessionCiphertext>,
) -> Result<Vec<Tuple>, MedError> {
    match payload {
        Payload::Inline(tuples) => Ok(tuples.clone()),
        Payload::Session { key, id } => {
            let ct = table.get(id).ok_or_else(|| {
                MedError::Protocol(format!("session table has no entry for id {id}"))
            })?;
            Ok(decode_tuple_set(&key.decrypt(ct)?)?)
        }
    }
}
