//! The traced run: attributes each query's time to the repository's
//! layers, measured from outside the program.
//!
//! * The benchmark wraps its own calls into public layer functions with
//!   `secmed_obs::span` (`bench.*` spans, see `workloads.rs`) and keeps
//!   the engine's phase spans (`<protocol>.{request,encryption,...}`),
//!   reading both back with `trace::{checkpoint, take_since}` and folding
//!   them into self times with `secmed_obs::profile`.
//! * Counts come from the program's own registries: the crypto census
//!   (`secmed_crypto::metrics::Snapshot`, taken over the whole traced
//!   window, whose aggregate stays exact under concurrency) and the obs
//!   counters (`pool.*`, `server.sessions.*`).
//! * A calibration pass times isolated `mpint` and `secmed-crypto` calls
//!   outside any census window.  A least-squares fit over the calls'
//!   own census deltas prices every op once (the KEM inside a hybrid
//!   encryption is not paid twice), and the additive model
//!   `Σ census × exclusive cost + wire decode` is compared with the
//!   measured `Engine::run` time.

use std::collections::BTreeMap;
use std::hint::black_box;

use mpint::{Montgomery, Natural};
use secmed_core::{
    AccessPolicy, Client, DataSource, Engine, Mediator, Property, RunOptions, Scenario, TraceSink,
};
use secmed_crypto::chacha20::ChaCha20;
use secmed_crypto::drbg::HmacDrbg;
use secmed_crypto::elgamal::ElGamalKeyPair;
use secmed_crypto::group::{GroupSize, SafePrimeGroup};
use secmed_crypto::hmac::hmac_sha256;
use secmed_crypto::hybrid::HybridKeyPair;
use secmed_crypto::metrics::{Op, Snapshot};
use secmed_crypto::paillier::Paillier;
use secmed_crypto::polynomial::{EncryptedPoly, ZnPoly};
use secmed_crypto::schnorr::SchnorrKeyPair;
use secmed_crypto::sha256::sha256;
use secmed_crypto::{SraCipher, SraDomain};
use secmed_obs::metrics::MetricsSnapshot;
use secmed_obs::trace::Record;
use secmed_server::Server;

use crate::driver::{self, Stop};
use crate::sys;
use crate::workloads::{self, Cases, ClientState, Name, QueryCtx, QueryOut};
use crate::Outcome;

/// Traced queries per client: a fixed count (the client's first
/// datasets), so every per-query count is an exact function of the seed.
const TRACED_PER_CLIENT: u64 = 8;

/// The census ops the workloads hit, in report order.
const OPS: [Op; 17] = [
    Op::PaillierEncrypt,
    Op::PaillierScale,
    Op::PaillierAdd,
    Op::PaillierDecrypt,
    Op::RandomMask,
    Op::CommutativeEncrypt,
    Op::HashToGroup,
    Op::KemEncapsulate,
    Op::KemDecapsulate,
    Op::HybridEncrypt,
    Op::HybridDecrypt,
    Op::SchnorrSign,
    Op::SchnorrVerify,
    Op::Sha256Block,
    Op::HashMessage,
    Op::ChaCha20Block,
    Op::Hmac,
];

/// Protocol phases the engine's spans name (`<protocol>.<phase>`).
const PHASES: [&str; 6] = [
    "request",
    "encryption",
    "transfer",
    "join",
    "intersection",
    "post",
];

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn obs_delta(before: &MetricsSnapshot) -> MetricsSnapshot {
    secmed_obs::metrics::snapshot().since(before)
}

/// Median wall time per call of `f`, in µs, over seven batches of at
/// least `min_batch_ms` each; plus the census one call bumps on average.
fn time_call(mut f: impl FnMut(), min_batch_ms: f64) -> (f64, BTreeMap<&'static str, f64>) {
    const BATCHES: usize = 7;
    let t0 = sys::now_ns();
    f();
    let once_ms = sys::ms_since(t0).max(1e-4);
    let reps = ((min_batch_ms / once_ms).ceil() as u64).clamp(1, 1_000_000);
    let before = Snapshot::capture();
    let mut per_call = Vec::new();
    for _ in 0..BATCHES {
        let t = sys::now_ns();
        for _ in 0..reps {
            f();
        }
        per_call.push(sys::ms_since(t) * 1e3 / reps as f64);
    }
    let calls = (reps * BATCHES as u64) as f64;
    let census = Snapshot::capture()
        .since(&before)
        .into_iter()
        .map(|(op, n)| (op.name(), n as f64 / calls))
        .collect();
    (sys::median(&per_call), census)
}

/// One calibrated call: its primary op, inclusive µs per call, and the
/// census it bumps (the primary op included).
struct Calibration {
    op: Op,
    us: f64,
    census: BTreeMap<&'static str, f64>,
}

impl Calibration {
    /// Inclusive µs per unit of the primary op.
    fn unit_us(&self) -> f64 {
        self.us
            / self
                .census
                .get(self.op.name())
                .copied()
                .unwrap_or(1.0)
                .max(1e-9)
    }
}

/// Boxes a calibration call; its result goes through `black_box` so the
/// compiler cannot drop the measured work.
fn call<'a, R>(mut f: impl FnMut() -> R + 'a) -> Box<dyn FnMut() + 'a> {
    Box::new(move || {
        black_box(f());
    })
}

/// Times isolated calls of every census op at the sizes the workloads
/// use: the 512-bit safe-prime group, a 512-bit Paillier modulus (so
/// arithmetic mod n² is 1024-bit), and hybrid payloads of
/// `payload_bytes`.  SHA-256 is timed on a long and a short message so
/// the fit can separate per-block from per-message cost.
fn calibrate_crypto(seed: u64, payload_bytes: usize) -> Vec<Calibration> {
    const MIN_BATCH_MS: f64 = 4.0;
    let mut rng = HmacDrbg::from_label(&format!("perfbench/calibrate/{seed}"));
    let group = SafePrimeGroup::preset(GroupSize::S512);
    let (big, small, msg, stream) = (
        vec![0x5au8; 4096],
        [0x5au8; 32],
        [0x17u8; 64],
        vec![0x33u8; 1024],
    );

    let kem = ElGamalKeyPair::generate(group.clone(), &mut rng);
    let (encap, _) = kem.public().encapsulate(64, &mut rng);
    let hybrid = HybridKeyPair::generate(group.clone(), &mut rng);
    let payload = vec![0x42u8; payload_bytes];
    let ct = hybrid.public().encrypt(&payload, &mut rng);
    let domain = SraDomain::new(group.clone());
    let cipher = SraCipher::generate(domain.clone(), &mut rng);
    let x = domain.hash(b"join-value");
    let kp = Paillier::test_keypair(512, &format!("perfbench/calibrate/paillier/{seed}"));
    let pk = kp.public();
    let m = Natural::from(123_456u64);
    let pct = pk.encrypt(&m, &mut rng).expect("small plaintext fits");
    // The PM evaluation point is a SHA-256 digest reduced mod n.
    let point = Natural::from_bytes_be(&sha256(b"join-value")).rem(pk.n());
    let roots = ZnPoly::from_roots(std::slice::from_ref(&point), pk.n());
    let poly = EncryptedPoly::encrypt(&roots, pk, &mut rng);
    let schnorr = SchnorrKeyPair::generate(group, &mut rng);
    let statement = b"credential: role=analyst";
    let sig = schnorr.sign(statement, &mut rng);

    let mut streams: [HmacDrbg; 5] =
        std::array::from_fn(|i| HmacDrbg::from_label(&format!("perfbench/calibrate/{seed}/{i}")));
    let [r_kem, r_hyb, r_enc, r_mask, r_sig] = &mut streams;
    let calls: Vec<(Op, Box<dyn FnMut() + '_>)> = vec![
        (Op::Sha256Block, call(|| sha256(black_box(&big)))),
        (Op::HashMessage, call(|| sha256(black_box(&small)))),
        (Op::Hmac, call(|| hmac_sha256(&small, black_box(&msg)))),
        (
            Op::ChaCha20Block,
            call(|| ChaCha20::new(&[7; 32], &[1; 12]).apply(&stream)),
        ),
        (
            Op::KemEncapsulate,
            call(|| kem.public().encapsulate(64, r_kem)),
        ),
        (Op::KemDecapsulate, call(|| kem.decapsulate(&encap, 64))),
        (
            Op::HybridEncrypt,
            call(|| hybrid.public().encrypt(&payload, r_hyb)),
        ),
        (
            Op::HybridDecrypt,
            call(|| hybrid.decrypt(&ct).expect("MAC verifies")),
        ),
        (
            Op::CommutativeEncrypt,
            call(|| cipher.encrypt(black_box(&x))),
        ),
        (
            Op::HashToGroup,
            call(|| domain.hash(black_box(b"join-value"))),
        ),
        (
            Op::PaillierEncrypt,
            call(|| pk.encrypt(&m, r_enc).expect("small plaintext fits")),
        ),
        (Op::PaillierDecrypt, call(|| kp.decrypt(&pct))),
        (Op::PaillierAdd, call(|| pk.add(&pct, &pct))),
        (Op::PaillierScale, call(|| pk.scale(&pct, &point))),
        (
            Op::RandomMask,
            call(|| poly.mask(&pct, &m, r_mask).expect("small payload fits")),
        ),
        (Op::SchnorrSign, call(|| schnorr.sign(statement, r_sig))),
        (
            Op::SchnorrVerify,
            call(|| schnorr.public().verify(statement, &sig)),
        ),
    ];
    calls
        .into_iter()
        .map(|(op, f)| {
            let (us, census) = time_call(f, MIN_BATCH_MS);
            Calibration { op, us, census }
        })
        .collect()
}

/// Exclusive µs per op: the non-negative least-squares-style fit of
/// `us(call) = Σ_op census(call, op) × exclusive(op)` over the
/// calibration calls (solved by normal equations with a tiny ridge, and
/// negative estimates clamped to zero).  Because each call's census
/// includes every op nested inside it, a nested op is priced once.
fn exclusive_costs(cal: &[Calibration]) -> BTreeMap<&'static str, f64> {
    let ops: Vec<&'static str> = OPS.iter().map(|o| o.name()).collect();
    let k = ops.len();
    let mut ata = vec![vec![0.0f64; k]; k];
    let mut atb = vec![0.0f64; k];
    for c in cal {
        let row: Vec<f64> = ops
            .iter()
            .map(|o| c.census.get(o).copied().unwrap_or(0.0))
            .collect();
        for i in 0..k {
            atb[i] += row[i] * c.us;
            for j in 0..k {
                ata[i][j] += row[i] * row[j];
            }
        }
    }
    let trace: f64 = (0..k).map(|i| ata[i][i]).sum();
    for (i, row) in ata.iter_mut().enumerate() {
        row[i] += 1e-12 * trace.max(1.0);
    }
    let x = solve(ata, atb);
    ops.into_iter()
        .zip(x)
        .map(|(o, v)| (o, v.max(0.0)))
        .collect()
}

/// Gaussian elimination with partial pivoting (`a` is square).
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        b.swap(col, pivot);
        let (done, rest) = a.split_at_mut(col + 1);
        let p_row = &done[col];
        if p_row[col].abs() < 1e-300 {
            continue;
        }
        for (k, row) in rest.iter_mut().enumerate() {
            let f = row[col] / p_row[col];
            for (x, p) in row[col..].iter_mut().zip(&p_row[col..]) {
                *x -= f * p;
            }
            b[col + 1 + k] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let s: f64 = (i + 1..n).map(|j| a[i][j] * x[j]).sum();
        x[i] = if a[i][i].abs() < 1e-300 {
            0.0
        } else {
            (b[i] - s) / a[i][i]
        };
    }
    x
}

fn random_odd(rng: &mut HmacDrbg, bits: u64) -> Natural {
    let mut n = mpint::random::random_bits(rng, bits);
    n.set_bit(bits - 1, true);
    n.set_bit(0, true);
    n
}

/// Isolated `mpint` kernels at the sizes the workloads use.
fn calibrate_mpint(seed: u64, out: &mut Outcome) {
    let mut rng = HmacDrbg::from_label(&format!("perfbench/mpint/{seed}"));
    for bits in [512u64, 1024] {
        let m = random_odd(&mut rng, bits);
        let ctx = Montgomery::new(m.clone());
        let a = ctx.to_mont(&mpint::random::random_below(&mut rng, &m));
        let b = ctx.to_mont(&mpint::random::random_below(&mut rng, &m));
        let (us, _) = time_call(call(|| ctx.mont_mul(black_box(&a), &b)), 2.0);
        out.push(format!("mpint.mont_mul_{bits}_ns"), us * 1e3, "ns");
    }
    for bits in [512u64, 1024] {
        let m = random_odd(&mut rng, bits);
        let ctx = Montgomery::new(m.clone());
        let base = mpint::random::random_below(&mut rng, &m);
        let exp = mpint::random::random_bits(&mut rng, bits);
        let (us, _) = time_call(call(|| ctx.modpow(black_box(&base), &exp)), 4.0);
        out.push(format!("mpint.modpow_{bits}_us"), us, "us");
    }
    // Prime search takes a random number of candidates: report the mean
    // over a fixed, seeded sequence of searches.
    const PRIMES: u32 = 12;
    let t = sys::now_ns();
    for _ in 0..PRIMES {
        black_box(mpint::prime::gen_prime(256, &mut rng));
    }
    out.push(
        "mpint.gen_prime_256_ms",
        sys::ms_since(t) / f64::from(PRIMES),
        "ms",
    );
}

/// Share of `--seconds` each alternating comparison (tracing on/off,
/// in-process/socket) runs for.
const PHASE_SHARE: f64 = 0.3;

/// Calls `f(0)`, `f(1)`, ... until `seconds` have passed (at least three
/// calls), so a comparison gets as many pairs as the run length allows.
fn alternate(seconds: f64, mut f: impl FnMut(u64) -> Result<(), String>) -> Result<(), String> {
    let t0 = sys::now_ns();
    let mut i = 0;
    while i < 3 || sys::ms_since(t0) < seconds * 1e3 {
        f(i)?;
        i += 1;
    }
    Ok(())
}

/// Median µs of `f` over `reps` calls (each call timed alone).
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::new();
    for _ in 0..reps {
        let t = sys::now_ns();
        f();
        v.push(sys::ms_since(t) * 1e3);
    }
    sys::median(&v)
}

/// The query `core.socket_overhead_ms` compares: the workload's first
/// two-table join (for the federation, its plan's first node, built the
/// way `Engine::run_plan` builds it).
fn socket_probe(
    client: &mut ClientState,
    name: Name,
    seed: u64,
) -> Result<(Scenario, RunOptions), String> {
    let opts = name.run_options(TraceSink::Discard);
    match &mut client.cases {
        Cases::Pairs { pairs, .. } => {
            let p = &pairs[0];
            let party = format!("perfbench/{}/{seed}/probe", name.key());
            let w = secmed_core::workload::Workload {
                left: p.left.clone(),
                right: p.right.clone(),
                expected_join_size: 0,
            };
            let sc = secmed_core::ScenarioBuilder::new(&w).seed(&party).build();
            Ok((sc, opts))
        }
        Cases::Chains {
            ca,
            group,
            label,
            chains,
        } => {
            let chain = &chains[0];
            let plan = secmed_plan::Planner::new()
                .plan(
                    &chain.query,
                    &chain.schemas(),
                    &chain.stats,
                    secmed_core::LeakageBudget::open(),
                )
                .map_err(|e| format!("plan: {e}"))?;
            let node = plan.nodes.first().ok_or("empty plan")?;
            let source = |input: &secmed_core::NodeInput| match input {
                secmed_core::NodeInput::Source(t) => chain
                    .catalog
                    .get(t)
                    .map(|rel| {
                        DataSource::new(
                            t,
                            rel.clone(),
                            AccessPolicy::allow_all(),
                            ca.public_key().clone(),
                        )
                    })
                    .ok_or(format!("no table {t}")),
                secmed_core::NodeInput::Node(_) => {
                    Err("first plan node joins a derived input".to_string())
                }
            };
            let left = source(&node.left)?;
            let right = source(&node.right)?;
            let conds: Vec<String> = node
                .attrs
                .iter()
                .map(|a| format!("{}.{a} = {}.{a}", left.name(), right.name()))
                .collect();
            let query = format!(
                "select * from {}, {} where {}",
                left.name(),
                right.name(),
                conds.join(" and ")
            );
            let sc = Scenario {
                client: Client::setup(
                    ca,
                    vec![Property::new("role", "analyst")],
                    group.clone(),
                    512,
                    &format!("{label}/probe"),
                ),
                mediator: Mediator::new(&[&left, &right]),
                left,
                right,
                query,
            };
            let opts = RunOptions::new(node.protocol)
                .threads(workloads::POOL_THREADS)
                .trace(TraceSink::Discard);
            Ok((sc, opts))
        }
    }
}

/// Sum of self time (ns) of every span whose name satisfies `pick`.
fn self_ns(profile: &secmed_obs::Profile, pick: impl Fn(&str) -> bool) -> u64 {
    profile
        .flatten()
        .iter()
        .filter(|(_, n)| pick(&n.name))
        .map(|(_, n)| n.self_ns)
        .sum()
}

/// Sum of durations (ns) and count of spans named `name`.
fn spans_named(records: &[Record], name: &str) -> (u64, u64) {
    records
        .iter()
        .filter(|r| r.is_span() && r.name == name)
        .fold((0, 0), |(t, c), r| (t + r.duration_ns(), c + 1))
}

/// The traced run (`--trace 1`).
pub fn traced(name: Name, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut setup = workloads::setup(name, seed, 0)?;
    // Every workload gets a loopback server for the socket comparison;
    // the socket workload's own server serves its queries too.
    let probe_server = match setup.server {
        Some(_) => None,
        None => Some(Server::bind().map_err(|e| format!("bind loopback server: {e}"))?),
    };
    let obs_before = secmed_obs::metrics::snapshot();
    let (mut probe, probe_opts) = socket_probe(&mut setup.clients[0], name, seed)?;

    let keep = |q: QueryOut, ms: Option<f64>| (q, ms);
    let workloads::Setup { clients, server } = &mut setup;
    let server_ref = server.as_ref().or(probe_server.as_ref());
    let session_addr = server.as_ref().map(Server::addr);
    let measured = driver::with_server(server_ref, |addr| {
        // 1. The traced window: a fixed number of queries per client.
        let window = driver::run_clients(
            clients,
            name,
            true,
            session_addr,
            1,
            Stop::Queries(TRACED_PER_CLIENT),
            &keep,
        );
        let census = Snapshot::capture().since(&window.mark.census);
        let window_obs = obs_delta(&window.mark.obs);
        let records = secmed_obs::trace::take_since(window.mark.trace);

        // 2. Tracing overhead: the same client, alternating untraced and
        //    traced queries.
        let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
        alternate(PHASE_SHARE * seconds, |_| {
            for traced in [false, true] {
                let ctx = QueryCtx {
                    name,
                    traced,
                    addr: session_addr,
                };
                let mark = secmed_obs::trace::checkpoint();
                let t = sys::now_ns();
                let q = workloads::query(&mut clients[0], &ctx);
                let ms = sys::ms_since(t);
                drop(secmed_obs::trace::take_since(mark));
                out.count(q.error.as_deref());
                if traced {
                    with_trace.push(ms)
                } else {
                    plain.push(ms)
                }
            }
            Ok(())
        })?;

        // 3. Fabric comparison: one query in-process vs over the socket.
        let addr = addr.ok_or("no loopback server")?;
        let (mut inproc, mut socket, mut connect) = (Vec::new(), Vec::new(), Vec::new());
        alternate(PHASE_SHARE * seconds, |i| {
            let t = sys::now_ns();
            let a = Engine::run(&mut probe, &probe_opts).map_err(|e| e.to_string())?;
            inproc.push(sys::ms_since(t));
            let t = sys::now_ns();
            let (b, connect_ns) =
                workloads::run_over_socket(addr, (1000 << 32) | i, &mut probe, &probe_opts, false)?;
            socket.push(sys::ms_since(t));
            connect.push(connect_ns as f64 / 1e3);
            let ok = a.outcome.is_clean()
                && b.outcome.is_clean()
                && a.result.sorted() == b.result.sorted();
            out.count((!ok).then_some("in-process and socket runs disagree"));
            Ok(())
        })?;
        Ok::<_, String>((
            window, census, window_obs, records, plain, with_trace, inproc, socket, connect,
        ))
    });
    let (window, census, window_obs, records, plain, with_trace, inproc, socket, connect) =
        measured?;
    let server_obs = obs_delta(&obs_before);
    let active_end: usize = [setup.server.as_ref(), probe_server.as_ref()]
        .into_iter()
        .flatten()
        .map(|srv| crate::check_server(srv, &mut out))
        .sum();

    // Per-query figures of the traced window.
    let queries: Vec<&QueryOut> = window
        .records
        .iter()
        .flatten()
        .filter(|(_, ms)| ms.is_some())
        .map(|(q, _)| q)
        .collect();
    for (q, ms) in window.records.iter().flatten() {
        if ms.is_some() {
            out.count(q.error.as_deref());
        }
    }
    let nq = queries.len().max(1) as f64;
    let reports = || queries.iter().flat_map(|q| q.reports.iter());

    // Census: the whole-window delta, minus what per-node client set-ups
    // (outside Engine::run) bumped.
    let mut run_census: BTreeMap<&str, f64> = census
        .iter()
        .map(|&(op, n)| (op.name(), n as f64))
        .collect();
    for q in &queries {
        for &(op, n) in &q.client_setup_census {
            *run_census.entry(op.name()).or_default() -= n as f64;
        }
    }
    let per_query = |op: &str| run_census.get(op).copied().unwrap_or(0.0).max(0.0) / nq;

    // Wire: decode every recorded frame through the public Envelope API.
    let envelopes: Vec<&secmed_core::Envelope> =
        reports().flat_map(|r| r.transport.log().iter()).collect();
    let mut decode_errors = 0u64;
    let decode_us = median_us(5, || {
        decode_errors = envelopes
            .iter()
            .filter(|e| black_box(e.frame()).is_err())
            .count() as u64;
    }) / nq;
    if decode_errors > 0 {
        out.fail_check(format!(
            "{decode_errors} recorded frame(s) failed to decode"
        ));
    }

    // Spans: engine phases, the engine's run span, and the benchmark's.
    let profile = secmed_obs::profile::aggregate(&records);
    let (run_ns, _) = spans_named(&records, "run");
    let run_ms = run_ns as f64 / 1e6 / nq;
    let (setup_ns, setup_calls) = spans_named(&records, "bench.client_setup");
    let (plan_ns, plan_calls) = spans_named(&records, "bench.plan");
    let spans = records.iter().filter(|r| r.is_span()).count() as f64;

    // Census cross-check against the §6 closed forms, run by run.
    let mismatched: u64 = queries.iter().map(|q| q.census_mismatched).sum();

    // Traced queries' client views.
    let superset: f64 = reports()
        .filter_map(|r| r.client_view.superset_pairs)
        .sum::<usize>() as f64;
    let (mut useful, mut received) = (0usize, 0usize);
    for r in reports() {
        let u = r.client_view.useful_payloads.unwrap_or(0);
        useful += u;
        received += r
            .client_view
            .superset_pairs
            .or(r.client_view.ciphertexts_received)
            .unwrap_or(u);
    }

    // Isolated relalg calls on the workload's own query and data.
    let (parse_us, reference_ms) = relalg_costs(&mut setup.clients[0])?;

    // Calibration, then the additive model.
    calibrate_mpint(seed, &mut out);
    let hybrid_ops = per_query(Op::HybridEncrypt.name()) + per_query(Op::HybridDecrypt.name());
    let blocks_per_hybrid = if hybrid_ops > 0.0 {
        per_query(Op::ChaCha20Block.name()) / hybrid_ops
    } else {
        1.0
    };
    let payload_bytes = ((blocks_per_hybrid.round() as usize).clamp(1, 256)) * 64;
    let cal = calibrate_crypto(seed, payload_bytes);
    let exclusive = exclusive_costs(&cal);
    let decode_ms = decode_us / 1e3;
    let explained_ms = OPS
        .iter()
        .map(|op| per_query(op.name()) * exclusive.get(op.name()).copied().unwrap_or(0.0) / 1e3)
        .sum::<f64>()
        + decode_ms;

    for op in OPS {
        let unit = cal
            .iter()
            .find(|c| c.op == op)
            .map_or(0.0, Calibration::unit_us);
        out.push(format!("crypto.{}.us", op.name()), unit, "us");
    }
    for op in OPS {
        out.push(
            format!("crypto.{}.per_query", op.name()),
            per_query(op.name()),
            "count",
        );
    }
    out.push("crypto.hybrid_payload_bytes", payload_bytes as f64, "B");
    out.push("relalg.sql_parse_us", parse_us, "us");
    out.push("relalg.reference_ms", reference_ms, "ms");
    out.push("das.superset_pairs_per_query", superset / nq, "count");
    out.push(
        "core.client_useful_frac",
        useful as f64 / received.max(1) as f64,
        "frac",
    );
    let frames: usize = reports().map(|r| r.transport.message_count()).sum();
    let frame_max = envelopes.iter().map(|e| e.bytes()).max().unwrap_or(0);
    out.push("wire.frames_per_query", frames as f64 / nq, "count");
    out.push("wire.frame_bytes_max", frame_max as f64, "B");
    out.push("wire.decode_us_per_query", decode_us, "us");
    out.push(
        "wire.bytes_per_query",
        queries.iter().map(|q| q.bytes()).sum::<u64>() as f64 / nq,
        "B",
    );
    out.push(
        "wire.client_bytes_per_query",
        queries.iter().map(|q| q.client_bytes()).sum::<u64>() as f64 / nq,
        "B",
    );
    for phase in PHASES {
        let suffix = format!(".{phase}");
        let ns = self_ns(&profile, |n| {
            !n.starts_with("bench.") && n.ends_with(&suffix)
        });
        out.push(
            format!("core.phase.{phase}.self_ms"),
            ns as f64 / 1e6 / nq,
            "ms",
        );
    }
    out.push("core.run_ms", run_ms, "ms");
    out.push(
        "core.retries_per_query",
        reports().map(|r| r.outcome.retries()).sum::<u64>() as f64 / nq,
        "count",
    );
    out.push(
        "core.client_setup_ms_per_query",
        setup_ns as f64 / 1e6 / nq,
        "ms",
    );
    out.push(
        "core.client_setup_calls_per_query",
        setup_calls as f64 / nq,
        "count",
    );
    out.push(
        "core.socket_overhead_ms",
        sys::median(&socket) - sys::median(&inproc),
        "ms",
    );
    out.push("core.census_mismatched_runs", mismatched as f64, "count");
    out.push(
        "core.model.explained_frac",
        ratio(explained_ms, run_ms),
        "frac",
    );
    out.push("core.model.residual_ms", run_ms - explained_ms, "ms");
    // The model sums CPU work; with pool threads the wall-clock run time
    // is shorter, so also compare it with the window's CPU per query
    // (minus the per-node client set-ups, which the model leaves out).
    let cpu_ms = window.cpu_ns as f64 / 1e6 / nq - setup_ns as f64 / 1e6 / nq;
    out.push(
        "core.model.explained_cpu_frac",
        ratio(explained_ms, cpu_ms),
        "frac",
    );
    out.push("client.connect_us", sys::median(&connect), "us");
    for key in ["admitted", "refused", "reaped"] {
        out.push(
            format!("server.sessions.{key}"),
            server_obs.counter(&format!("server.sessions.{key}")) as f64,
            "count",
        );
    }
    out.push("server.active_sessions_end", active_end as f64, "count");
    out.push(
        "pool.calls_per_query",
        window_obs.counter("pool.calls") as f64 / nq,
        "count",
    );
    out.push(
        "pool.items_per_query",
        window_obs.counter("pool.items") as f64 / nq,
        "count",
    );
    out.push(
        "pool.cpu_per_wall",
        ratio(window.cpu_ns as f64 / 1e6, window.wall_ms()),
        "frac",
    );
    out.push(
        "plan.plan_us",
        ratio(plan_ns as f64 / 1e3, plan_calls as f64),
        "us",
    );
    out.push(
        "plan.nodes",
        queries.iter().map(|q| q.plan_nodes).sum::<u64>() as f64 / nq,
        "count",
    );
    out.push(
        "plan.weighted_cost",
        queries.iter().map(|q| q.plan_weighted_cost).sum::<u64>() as f64 / nq,
        "count",
    );
    out.push(
        "obs.trace_overhead_frac",
        ratio(sys::median(&with_trace), sys::median(&plain)) - 1.0,
        "frac",
    );
    out.push("obs.spans_per_query", spans / nq, "count");
    out.push("bench.traced_queries", queries.len() as f64, "count");
    out.push(
        "bench.failed_frac",
        ratio(out.failed as f64, out.attempted as f64),
        "frac",
    );
    Ok(out)
}

/// `relalg.sql_parse_us` (parse plus decompose, or plus join-graph
/// analysis for a multi-table query) and `relalg.reference_ms` (the
/// plaintext reference the benchmark verifies against).
fn relalg_costs(client: &mut ClientState) -> Result<(f64, f64), String> {
    const REPS: usize = 9;
    match &mut client.cases {
        Cases::Pairs { scenario, pairs } => {
            pairs[0].install(scenario);
            let sql = scenario.query.clone();
            let parse = median_us(REPS, || {
                let tree = relalg::sql::parse(&sql).expect("workload query parses");
                black_box(relalg::sql::decompose(&tree).expect("two-table query decomposes"));
            });
            let mut err = None;
            let reference = median_us(REPS, || {
                if let Err(e) = scenario.expected_result() {
                    err = Some(e.to_string());
                }
            });
            match err {
                Some(e) => Err(format!("reference: {e}")),
                None => Ok((parse, reference / 1e3)),
            }
        }
        Cases::Chains { chains, .. } => {
            let c = &chains[0];
            let schemas = c.schemas();
            let parse = median_us(REPS, || {
                let tree = relalg::sql::parse(&c.query).expect("workload query parses");
                black_box(relalg::sql::query_graph(&tree, &schemas).expect("chain query analyzes"));
            });
            let mut err = None;
            let reference = median_us(REPS, || {
                if let Err(e) = c.reference() {
                    err = Some(e);
                }
            });
            match err {
                Some(e) => Err(e),
                None => Ok((parse, reference / 1e3)),
            }
        }
    }
}
