//! Differential tests for the Montgomery kernels: `Montgomery::modpow`
//! against division-based `modpow_plain`, the squaring kernel against the
//! multiplication kernel, and the `to_mont`/`from_mont` round-trip, over
//! moduli of 1 to 32 limbs including the edge shapes (top limb 1, `n` just
//! below `R`).  Cases are drawn from the in-tree seedable generator, so
//! every run checks the same values.

use mpint::random::{random_below, random_bits};
use mpint::rng::{Rng, SplitMix64};
use mpint::{Montgomery, Natural};

/// Exponent lengths on both sides of every window-width threshold
/// (23/79/239/671 bits), plus a few beyond the largest.
const EXP_BITS: [u64; 19] = [
    1, 2, 3, 22, 23, 24, 25, 78, 79, 80, 81, 238, 239, 240, 241, 670, 671, 672, 1031,
];

/// A random odd modulus of exactly `limbs` limbs.
fn random_modulus(rng: &mut SplitMix64, limbs: u64) -> Natural {
    let bits = 64 * limbs - rng.next_u64() % 63;
    let mut n = random_bits(rng, bits);
    n.set_bit(0, true);
    n
}

/// Random moduli of every length from 1 to 32 limbs, plus for each length
/// one whose top limb is 1 and two just below `R = 2^(64 * limbs)`
/// (`R - 1` and `R - 3`).
fn moduli(rng: &mut SplitMix64) -> Vec<Natural> {
    let mut out = Vec::new();
    for limbs in 1..=32u64 {
        out.push(random_modulus(rng, limbs));
        let mut low: Vec<u64> = (1..limbs).map(|_| rng.next_u64()).collect();
        if let Some(l) = low.first_mut() {
            *l |= 1;
        }
        low.push(1);
        out.push(Natural::from_limbs(low));
        out.push(Natural::from_limbs(vec![u64::MAX; limbs as usize]));
        let mut just_below = vec![u64::MAX; limbs as usize];
        just_below[0] -= 2;
        out.push(Natural::from_limbs(just_below));
    }
    out.retain(|n| n > &Natural::from(2u64));
    out
}

/// `2^bits - 1`: every bit set, so every window is full.
fn all_ones(bits: u64) -> Natural {
    Natural::one().shl_bits(bits) - Natural::one()
}

/// The edge-case bases for modulus `n`: 0, 1, `n - 1`, a base `>= n`, and
/// a base with more limbs than `n`.
fn edge_bases(rng: &mut SplitMix64, n: &Natural) -> Vec<Natural> {
    let wider = random_bits(rng, 64 * (n.limbs().len() as u64 + 2));
    vec![
        Natural::zero(),
        Natural::one(),
        n - &Natural::one(),
        n + &random_below(rng, n),
        wider,
    ]
}

#[test]
fn modpow_matches_plain_across_window_thresholds() {
    let mut rng = SplitMix64::seed_from_u64(0x6d6f_6e74);
    for n in moduli(&mut rng) {
        let ctx = Montgomery::new(n.clone());
        for bits in EXP_BITS {
            let base = random_below(&mut rng, &n);
            let exp = random_bits(&mut rng, bits);
            assert_eq!(
                ctx.modpow(&base, &exp),
                base.modpow_plain(&exp, &n),
                "n={n} bits={bits}"
            );
        }
    }
}

#[test]
fn modpow_edge_exponents_and_bases() {
    let mut rng = SplitMix64::seed_from_u64(0x6564_6765);
    for n in moduli(&mut rng) {
        let ctx = Montgomery::new(n.clone());
        let mut exps = vec![Natural::zero(), Natural::one()];
        exps.extend([5, 24, 80, 240, 672].map(all_ones));
        for base in edge_bases(&mut rng, &n) {
            for exp in &exps {
                assert_eq!(
                    ctx.modpow(&base, exp),
                    base.modpow_plain(exp, &n),
                    "n={n} base={base} exp={exp}"
                );
            }
        }
    }
}

#[test]
fn natural_modpow_agrees_with_context() {
    let mut rng = SplitMix64::seed_from_u64(0x6e61_7475);
    for n in moduli(&mut rng).into_iter().step_by(5) {
        let base = random_bits(&mut rng, 200);
        let exp = random_bits(&mut rng, 300);
        let ctx = Montgomery::new(n.clone());
        assert_eq!(base.modpow(&exp, &n), ctx.modpow(&base, &exp), "n={n}");
    }
}

#[test]
fn squaring_kernel_equals_multiplication() {
    let mut rng = SplitMix64::seed_from_u64(0x7371_7561);
    for n in moduli(&mut rng) {
        let ctx = Montgomery::new(n.clone());
        let mut values = edge_bases(&mut rng, &n);
        values.push(random_below(&mut rng, &n));
        for a in values {
            assert_eq!(ctx.mont_sqr(&a), ctx.mont_mul(&a, &a), "n={n} a={a}");
        }
    }
}

#[test]
fn mont_mul_matches_modmul() {
    let mut rng = SplitMix64::seed_from_u64(0x6d75_6c74);
    for n in moduli(&mut rng) {
        let ctx = Montgomery::new(n.clone());
        let a = random_below(&mut rng, &n);
        let b = random_below(&mut rng, &n);
        let product = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        assert_eq!(product, a.modmul(&b, &n), "n={n}");
    }
}

#[test]
fn to_mont_from_mont_round_trip() {
    let mut rng = SplitMix64::seed_from_u64(0x726f_756e);
    for n in moduli(&mut rng) {
        let ctx = Montgomery::new(n.clone());
        for a in edge_bases(&mut rng, &n) {
            assert_eq!(ctx.from_mont(&ctx.to_mont(&a)), a.rem(&n), "n={n} a={a}");
        }
    }
}

/// Regression: `mont_mul` used to read only the first `k` limbs of each
/// operand, so an operand `>= R` silently gave a wrong product.  Operands
/// not below `n` are now reduced first, including those of `k` limbs.
#[test]
fn mont_mul_reduces_unreduced_operands() {
    let mut rng = SplitMix64::seed_from_u64(0x7769_6465);
    for n in moduli(&mut rng) {
        let ctx = Montgomery::new(n.clone());
        let k = n.limbs().len() as u64;
        let r = Natural::one().shl_bits(64 * k);
        // R + 5, a random operand two limbs wider than n, and R - 1 (the
        // largest k-limb value, >= n unless n = R - 1).
        let wide = &r + &Natural::from(5u64);
        let wider = random_bits(&mut rng, 64 * (k + 2));
        let top = &r - &Natural::one();
        let b = random_below(&mut rng, &n);
        for a in [wide, wider, top] {
            let reduced = a.rem(&n);
            assert_eq!(ctx.mont_mul(&a, &b), ctx.mont_mul(&reduced, &b), "n={n}");
            assert_eq!(ctx.mont_mul(&b, &a), ctx.mont_mul(&b, &reduced), "n={n}");
            let square = ctx.mont_mul(&reduced, &reduced);
            assert_eq!(ctx.mont_mul(&a, &a), square, "n={n}");
            assert_eq!(ctx.mont_sqr(&a), square, "n={n}");
        }
    }
}
