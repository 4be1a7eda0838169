//! Big-integer ablations (DESIGN.md §3):
//!
//! * Montgomery vs plain division-based modular exponentiation — justifies
//!   the Montgomery context every cryptosystem leans on,
//! * the Paillier shape (1024-bit `n^2`, 256- and 512-bit exponents) next
//!   to full-length exponents — puts a number on the exponent-sized window,
//! * Montgomery multiply vs the dedicated squaring kernel per modulus size,
//! * Karatsuba/schoolbook multiplication across operand sizes — justifies
//!   the threshold in `mpint::mul`,
//! * Knuth-D division at cryptographic operand sizes.

use mpint::{Montgomery, Natural};
use secmed_crypto::drbg::HmacDrbg;
use secmed_obs::bench::{black_box, cli_filter, Bench, Suite};

fn random_odd(bits: u64, rng: &mut HmacDrbg) -> Natural {
    let mut n = mpint::random::random_bits(rng, bits);
    n.set_bit(0, true);
    n
}

fn bench_modpow(filter: &Option<String>) {
    let mut rng = HmacDrbg::from_label("bench-modpow");
    let mut suite = Suite::new("modpow").filter(filter.clone());
    for bits in [256u64, 512, 1024, 2048] {
        let m = random_odd(bits, &mut rng);
        let base = mpint::random::random_below(&mut rng, &m);
        let exp = mpint::random::random_bits(&mut rng, bits);
        let ctx = Montgomery::new(m.clone());
        suite.bench(Bench::new(format!("montgomery/{bits}")), || {
            black_box(ctx.modpow(&base, &exp));
        });
        suite.bench(Bench::new(format!("plain-division/{bits}")), || {
            black_box(base.modpow_plain(&exp, &m));
        });
    }
    // Paillier arithmetic mod n^2: a 1024-bit modulus with exponents of
    // |n|/2 and |n| bits (masks and scalars).
    let m = random_odd(1024, &mut rng);
    let base = mpint::random::random_below(&mut rng, &m);
    let ctx = Montgomery::new(m);
    for exp_bits in [256u64, 512] {
        let exp = mpint::random::random_bits(&mut rng, exp_bits);
        suite.bench(Bench::new(format!("montgomery/1024/exp{exp_bits}")), || {
            black_box(ctx.modpow(&base, &exp));
        });
    }
    suite.finish();
}

fn bench_mont_mul(filter: &Option<String>) {
    let mut rng = HmacDrbg::from_label("bench-mont-mul");
    let mut suite = Suite::new("mont_mul").filter(filter.clone());
    for bits in [512u64, 1024, 2048] {
        let m = random_odd(bits, &mut rng);
        let ctx = Montgomery::new(m.clone());
        let a = ctx.to_mont(&mpint::random::random_below(&mut rng, &m));
        let b = ctx.to_mont(&mpint::random::random_below(&mut rng, &m));
        suite.bench(Bench::new(format!("multiply/{bits}")), || {
            black_box(ctx.mont_mul(&a, &b));
        });
        suite.bench(Bench::new(format!("square/{bits}")), || {
            black_box(ctx.mont_sqr(&a));
        });
    }
    suite.finish();
}

fn bench_mul(filter: &Option<String>) {
    let mut rng = HmacDrbg::from_label("bench-mul");
    let mut suite = Suite::new("mul").filter(filter.clone());
    for limbs in [8u64, 32, 64, 128, 256] {
        let a = mpint::random::random_bits(&mut rng, limbs * 64);
        let b = mpint::random::random_bits(&mut rng, limbs * 64);
        suite.bench(Bench::new(format!("auto/{limbs}")), || {
            black_box(&a * &b);
        });
    }
    suite.finish();
}

fn bench_div(filter: &Option<String>) {
    let mut rng = HmacDrbg::from_label("bench-div");
    let mut suite = Suite::new("div_rem").filter(filter.clone());
    for (nbits, dbits) in [(1024u64, 512u64), (2048, 1024)] {
        let a = mpint::random::random_bits(&mut rng, nbits);
        let b = mpint::random::random_bits(&mut rng, dbits);
        suite.bench(Bench::new(format!("knuth-d/{nbits}/{dbits}")), || {
            black_box(a.div_rem(&b));
        });
    }
    suite.finish();
}

fn main() {
    let filter = cli_filter();
    bench_modpow(&filter);
    bench_mont_mul(&filter);
    bench_mul(&filter);
    bench_div(&filter);
}
