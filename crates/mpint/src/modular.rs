//! Modular arithmetic: reduction-based helpers and Montgomery-form
//! sliding-window exponentiation for odd moduli.
//!
//! The cryptosystems in this workspace spend nearly all of their time in
//! [`Natural::modpow`]; the [`Montgomery`] context exists so that repeated
//! exponentiations against the same modulus (the common case: a fixed group
//! or Paillier modulus) avoid a full division per multiplication.
//!
//! Inside [`Montgomery::modpow`] every product runs on fixed-length `k`-limb
//! slices of buffers allocated once per call, so an exponentiation allocates
//! nothing per product.  Squarings, most of the products, go through a
//! dedicated kernel that computes each cross product once.  The
//! `benches/mpint.rs` ablation quantifies both, and the window widths.
//!
//! None of this is constant-time: the sliding window branches on the
//! exponent's bits, and every product ends in a conditional subtraction of
//! `n` that depends on the data (DESIGN.md §6).

use crate::natural::Natural;

impl Natural {
    /// `(self + other) mod m`; operands must already be reduced.
    pub fn modadd(&self, other: &Natural, m: &Natural) -> Natural {
        debug_assert!(self < m && other < m);
        let s = self + other;
        if &s >= m {
            s - m
        } else {
            s
        }
    }

    /// `(self - other) mod m`; operands must already be reduced.
    pub fn modsub(&self, other: &Natural, m: &Natural) -> Natural {
        debug_assert!(self < m && other < m);
        if self >= other {
            self - other
        } else {
            m - other + self
        }
    }

    /// `(self * other) mod m`.
    pub fn modmul(&self, other: &Natural, m: &Natural) -> Natural {
        (self * other).rem(m)
    }

    /// `self^exp mod m`.
    ///
    /// Uses Montgomery exponentiation when `m` is odd, falling back to
    /// square-and-multiply with division-based reduction otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or one (no canonical representatives).
    pub fn modpow(&self, exp: &Natural, m: &Natural) -> Natural {
        assert!(!m.is_zero() && !m.is_one(), "modpow modulus must be >= 2");
        if m.is_odd() {
            let ctx = Montgomery::new(m.clone());
            return ctx.modpow(self, exp);
        }
        self.modpow_plain(exp, m)
    }

    /// Square-and-multiply with a division per step.  Kept public for the
    /// Montgomery-vs-plain ablation bench.
    pub fn modpow_plain(&self, exp: &Natural, m: &Natural) -> Natural {
        assert!(!m.is_zero() && !m.is_one(), "modpow modulus must be >= 2");
        let mut base = self.rem(m);
        let mut acc = Natural::one();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                acc = acc.modmul(&base, m);
            }
            base = base.modmul(&base, m);
        }
        acc
    }
}

/// Sliding-window width for an exponent of `bits` bits.
///
/// A `w`-bit window needs `2^(w-1)` odd powers (one squaring and
/// `2^(w-1) - 1` products to build) and then costs about one product per
/// `w + 1` exponent bits, so each threshold is where the next width's
/// smaller per-bit cost pays for its doubled table; DESIGN.md §3 records
/// the measurement.
fn window_width(bits: u64) -> usize {
    match bits {
        0..=23 => 1,
        24..=79 => 3,
        80..=239 => 4,
        240..=671 => 5,
        _ => 6,
    }
}

/// The window of `exp` whose top bit is the set bit `top`: at most `w`
/// bits wide and ending at a set bit.  Returns the index of its lowest bit
/// and its (odd) value.
fn window(exp: &Natural, top: u64, w: usize) -> (u64, usize) {
    let mut lo = (top + 1).saturating_sub(w as u64);
    while !exp.bit(lo) {
        lo += 1;
    }
    let value = (lo..=top)
        .rev()
        .fold(0, |v, i| (v << 1) | usize::from(exp.bit(i)));
    (lo, value)
}

/// Precomputed context for Montgomery arithmetic modulo an odd `n`.
///
/// Values in Montgomery form are `a * R mod n` with `R = 2^(64 * k)`, where
/// `k` is the limb count of `n`.  Products use the CIOS (coarsely
/// integrated operand scanning) method and squarings a dedicated kernel,
/// both over fixed `k`-limb slices; exponentiation slides a window whose
/// width grows with the exponent's length over a table of odd powers.
///
/// The context is immutable after [`Montgomery::new`], so one instance can
/// be shared across threads; every call brings its own scratch space.
#[derive(Debug, Clone)]
pub struct Montgomery {
    n: Natural,
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// `R^2 mod n`, used to convert into Montgomery form.
    r2: Natural,
}

impl Montgomery {
    /// Creates a context for odd modulus `n >= 3`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or `< 3`.
    pub fn new(n: Natural) -> Self {
        assert!(n.is_odd(), "Montgomery requires an odd modulus");
        assert!(n > Natural::one(), "modulus must be >= 3");
        let k = n.limbs().len();
        let n0 = n.limbs()[0];
        // Newton iteration for the inverse of n0 mod 2^64 (5 steps suffice).
        let mut inv = n0; // correct to 3 bits
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let r1 = Natural::one().shl_bits(64 * k as u64).rem(&n);
        let r2 = r1.modmul(&r1, &n);
        Montgomery {
            n,
            n_prime: inv.wrapping_neg(),
            r2,
        }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Natural {
        &self.n
    }

    /// Converts `a` (any size) into Montgomery form.
    pub fn to_mont(&self, a: &Natural) -> Natural {
        self.mont_mul(a, &self.r2)
    }

    /// Converts out of Montgomery form.
    pub fn from_mont(&self, a: &Natural) -> Natural {
        self.mont_mul(a, &Natural::one())
    }

    /// Montgomery product `a * b * R^{-1} mod n`.
    ///
    /// Operands of any size are accepted; one that is not already below `n`
    /// is reduced first.
    pub fn mont_mul(&self, a: &Natural, b: &Natural) -> Natural {
        let k = self.n.limbs().len();
        let mut buf = vec![0; 3 * k + 1];
        let (a_k, rest) = buf.split_at_mut(k);
        let (b_k, t) = rest.split_at_mut(k);
        self.load(a_k, a);
        self.load(b_k, b);
        let mut out = vec![0; k];
        self.mul_into(&mut out, a_k, b_k, t);
        Natural::from_limbs(out)
    }

    /// Montgomery square `a * a * R^{-1} mod n`, through the dedicated
    /// squaring kernel; equal to `mont_mul(a, a)`.
    pub fn mont_sqr(&self, a: &Natural) -> Natural {
        let k = self.n.limbs().len();
        let mut buf = vec![0; 3 * k];
        let (a_k, t) = buf.split_at_mut(k);
        self.load(a_k, a);
        let mut out = vec![0; k];
        self.sqr_into(&mut out, a_k, t);
        Natural::from_limbs(out)
    }

    /// `base^exp mod n` by a sliding window over Montgomery residues.
    ///
    /// The window width comes from the exponent's bit length, the table
    /// holds only the odd powers, and every product runs on slices of two
    /// buffers allocated once per call.
    pub fn modpow(&self, base: &Natural, exp: &Natural) -> Natural {
        let bits = exp.bit_len();
        if bits == 0 {
            return Natural::one(); // n >= 3, so 1 is already reduced
        }
        let k = self.n.limbs().len();
        let w = window_width(bits);
        // table[i] = base^(2i + 1) in Montgomery form, k limbs per entry.
        let mut table = vec![0; k << (w - 1)];
        // The accumulator, a temporary, and 2k limbs of kernel scratch.
        let mut scratch = vec![0; 4 * k];
        let (mut acc, rest) = scratch.split_at_mut(k);
        let (mut tmp, t) = rest.split_at_mut(k);

        self.load(tmp, base);
        self.load(acc, &self.r2); // acc is free until the first window
        self.mul_into(&mut table[..k], tmp, acc, t);
        if w > 1 {
            self.sqr_into(acc, &table[..k], t); // base^2
            for i in 1..1 << (w - 1) {
                let (done, next) = table.split_at_mut(i * k);
                self.mul_into(&mut next[..k], &done[(i - 1) * k..], acc, t);
            }
        }
        let odd_power = |value: usize| &table[(value >> 1) * k..][..k];

        // The top bit of exp is set, so the first window seeds acc; after
        // that, bits below `rest` remain.  Each product writes tmp, which
        // then swaps places with acc.
        let (mut rest, value) = window(exp, bits - 1, w);
        acc.copy_from_slice(odd_power(value));
        while rest > 0 {
            let top = rest - 1;
            if !exp.bit(top) {
                self.sqr_into(tmp, acc, t);
                std::mem::swap(&mut acc, &mut tmp);
                rest = top;
                continue;
            }
            let (lo, value) = window(exp, top, w);
            for _ in lo..rest {
                self.sqr_into(tmp, acc, t);
                std::mem::swap(&mut acc, &mut tmp);
            }
            self.mul_into(tmp, acc, odd_power(value), t);
            std::mem::swap(&mut acc, &mut tmp);
            rest = lo;
        }

        // Out of Montgomery form: multiply by plain 1.
        tmp.fill(0);
        tmp[0] = 1;
        let mut out = vec![0; k];
        self.mul_into(&mut out, acc, tmp, t);
        Natural::from_limbs(out)
    }

    /// Writes `a mod n` into the `k`-limb slice `out`, zero-padded.  The
    /// reduction is skipped when `a < n`, which costs a length check and at
    /// most a `k`-limb compare.
    fn load(&self, out: &mut [u64], a: &Natural) {
        let reduced;
        let a = if a < &self.n {
            a
        } else {
            reduced = a.rem(&self.n);
            &reduced
        };
        let (lo, hi) = out.split_at_mut(a.limbs().len());
        lo.copy_from_slice(a.limbs());
        hi.fill(0);
    }

    /// CIOS kernel: `out = a * b * R^{-1} mod n` for `k`-limb residues
    /// `a, b < n`, using the first `k + 1` limbs of `t` as scratch.
    ///
    /// Each outer step makes one fused pass that adds `a_i * b` and
    /// `m * n` to `t` and shifts it down a limb, so `t < 2n` throughout.
    fn mul_into(&self, out: &mut [u64], a: &[u64], b: &[u64], t: &mut [u64]) {
        let n = self.n.limbs();
        let k = n.len();
        let t = &mut t[..=k];
        t.fill(0);
        let (t, t_top) = t.split_at_mut(k);
        for &ai in a {
            let (t0, t_rest) = t.split_at_mut(1);
            let cur = t0[0] as u128 + ai as u128 * b[0] as u128;
            let m = (cur as u64).wrapping_mul(self.n_prime);
            let mut c_mul = (cur >> 64) as u64;
            // The low limb of cur + m * n[0] is zero by the choice of m.
            let mut c_red = ((cur as u64 as u128 + m as u128 * n[0] as u128) >> 64) as u64;
            let mut below = &mut t0[0];
            for ((tj, &bj), &nj) in t_rest.iter_mut().zip(&b[1..]).zip(&n[1..]) {
                let cur = *tj as u128 + ai as u128 * bj as u128 + c_mul as u128;
                c_mul = (cur >> 64) as u64;
                let cur = cur as u64 as u128 + m as u128 * nj as u128 + c_red as u128;
                c_red = (cur >> 64) as u64;
                *below = cur as u64;
                below = tj;
            }
            let cur = t_top[0] as u128 + c_mul as u128 + c_red as u128;
            *below = cur as u64;
            t_top[0] = (cur >> 64) as u64;
        }
        self.reduce_once(out, t, t_top[0] != 0);
    }

    /// Squaring kernel: `out = a * a * R^{-1} mod n` for a `k`-limb residue
    /// `a < n`, using the first `2k` limbs of `t` as scratch.
    ///
    /// Computes each cross product `a_i * a_j` (`i < j`) once, doubles
    /// them, adds the squares `a_i^2` on the diagonal, then reduces the
    /// `2k`-limb square.  The cross products and the reduction both take
    /// their rows two at a time so that two carry chains overlap, as in
    /// `mul_into`; one row at a time, the kernel is no faster than a
    /// general product.
    fn sqr_into(&self, out: &mut [u64], a: &[u64], t: &mut [u64]) {
        let n = self.n.limbs();
        let k = n.len();
        let t = &mut t[..2 * k];
        t.fill(0);
        // Rows i and i + 1 of the cross products: a_i * a[i+1..] lands at
        // limbs 2i+1.., a_{i+1} * a[i+2..] at limbs 2i+3..; each row's
        // final carry goes to a limb no earlier row has touched.
        let mut i = 0;
        while i + 2 < k {
            let (x, y) = (a[i], a[i + 1]);
            let cur = t[2 * i + 1] as u128 + x as u128 * y as u128;
            t[2 * i + 1] = cur as u64;
            let cur = t[2 * i + 2] as u128 + x as u128 * a[i + 2] as u128 + (cur >> 64);
            t[2 * i + 2] = cur as u64;
            let (mut c_x, mut c_y) = ((cur >> 64) as u64, 0u64);
            let rows = a[i + 3..].iter().zip(&a[i + 2..]);
            for (tj, (&aj, &aj_below)) in t[2 * i + 3..i + k].iter_mut().zip(rows) {
                let cur = *tj as u128 + x as u128 * aj as u128 + c_x as u128;
                c_x = (cur >> 64) as u64;
                let cur = cur as u64 as u128 + y as u128 * aj_below as u128 + c_y as u128;
                c_y = (cur >> 64) as u64;
                *tj = cur as u64;
            }
            let cur = c_x as u128 + y as u128 * a[k - 1] as u128 + c_y as u128;
            t[i + k] = cur as u64;
            t[i + k + 1] = (cur >> 64) as u64;
            i += 2;
        }
        // The last one or two rows are single (a row of length <= 1).
        for (i, &x) in a.iter().enumerate().skip(i) {
            let mut c = 0u64;
            for (tj, &aj) in t[2 * i + 1..i + k].iter_mut().zip(&a[i + 1..]) {
                let cur = *tj as u128 + x as u128 * aj as u128 + c as u128;
                *tj = cur as u64;
                c = (cur >> 64) as u64;
            }
            t[i + k] = c;
        }
        // Double the cross products and add the diagonal; a^2 < R^2, so
        // neither the doubling's top bit nor the final carry survives.
        let (mut shifted_out, mut c) = (0u64, 0u64);
        for (pair, &ai) in t.chunks_exact_mut(2).zip(a) {
            let sq = ai as u128 * ai as u128;
            let lo = (pair[0] << 1) | shifted_out;
            let hi = (pair[1] << 1) | (pair[0] >> 63);
            shifted_out = pair[1] >> 63;
            let cur = lo as u128 + sq as u64 as u128 + c as u128;
            pair[0] = cur as u64;
            let cur = hi as u128 + (sq >> 64) + (cur >> 64);
            pair[1] = cur as u64;
            c = (cur >> 64) as u64;
        }
        debug_assert_eq!((shifted_out, c), (0, 0));
        // Montgomery reduction: clear the low k limbs, two per pass (rows
        // m0 * n at limb i and m1 * n at limb i + 1).  The carry out of a
        // pass's top limb enters the next pass's top limb; the last one is
        // the top bit of the (k + 1)-limb result.
        let mut c_top = 0u64;
        let mut i = 0;
        while i + 1 < k {
            let m0 = t[i].wrapping_mul(self.n_prime);
            let cur = t[i] as u128 + m0 as u128 * n[0] as u128; // low limb 0
            let cur = t[i + 1] as u128 + m0 as u128 * n[1] as u128 + (cur >> 64);
            let mut c0 = (cur >> 64) as u64;
            let m1 = (cur as u64).wrapping_mul(self.n_prime);
            let mut c1 = ((cur as u64 as u128 + m1 as u128 * n[0] as u128) >> 64) as u64;
            for ((tj, &nj), &nj_below) in t[i + 2..i + k].iter_mut().zip(&n[2..]).zip(&n[1..]) {
                let cur = *tj as u128 + m0 as u128 * nj as u128 + c0 as u128;
                c0 = (cur >> 64) as u64;
                let cur = cur as u64 as u128 + m1 as u128 * nj_below as u128 + c1 as u128;
                c1 = (cur >> 64) as u64;
                *tj = cur as u64;
            }
            let cur = t[i + k] as u128 + c0 as u128 + c_top as u128;
            c0 = (cur >> 64) as u64;
            let cur = cur as u64 as u128 + m1 as u128 * n[k - 1] as u128 + c1 as u128;
            c1 = (cur >> 64) as u64;
            t[i + k] = cur as u64;
            let cur = t[i + k + 1] as u128 + c0 as u128 + c1 as u128;
            t[i + k + 1] = cur as u64;
            c_top = (cur >> 64) as u64;
            i += 2;
        }
        if i < k {
            // Odd k: one last single row.
            let m = t[i].wrapping_mul(self.n_prime);
            let mut c = 0u64;
            for (tj, &nj) in t[i..i + k].iter_mut().zip(n) {
                let cur = *tj as u128 + m as u128 * nj as u128 + c as u128;
                *tj = cur as u64;
                c = (cur >> 64) as u64;
            }
            let cur = t[i + k] as u128 + c as u128 + c_top as u128;
            t[i + k] = cur as u64;
            c_top = (cur >> 64) as u64;
        }
        self.reduce_once(out, &t[k..], c_top != 0);
    }

    /// The kernels' last step: `out = t mod n` for `t = lo + carry * R < 2n`.
    /// Whether `n` is subtracted depends on the data.
    fn reduce_once(&self, out: &mut [u64], lo: &[u64], carry: bool) {
        let mut borrow = false;
        for ((o, &x), &m) in out.iter_mut().zip(lo).zip(self.n.limbs()) {
            let (d, b1) = x.overflowing_sub(m);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *o = d;
            borrow = b1 | b2;
        }
        if borrow && !carry {
            out.copy_from_slice(lo); // t < n already
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn modadd_wraps() {
        let m = n(10);
        assert_eq!(n(7).modadd(&n(5), &m), n(2));
        assert_eq!(n(3).modadd(&n(4), &m), n(7));
    }

    #[test]
    fn modsub_wraps() {
        let m = n(10);
        assert_eq!(n(3).modsub(&n(7), &m), n(6));
        assert_eq!(n(7).modsub(&n(3), &m), n(4));
        assert_eq!(n(7).modsub(&n(7), &m), n(0));
    }

    #[test]
    fn modmul() {
        assert_eq!(n(7).modmul(&n(8), &n(10)), n(6));
    }

    #[test]
    fn modpow_small_known() {
        assert_eq!(n(2).modpow(&n(10), &n(1000)), n(24));
        assert_eq!(n(3).modpow(&n(0), &n(7)), n(1));
        assert_eq!(n(0).modpow(&n(5), &n(7)), n(0));
    }

    #[test]
    fn fermat_little_theorem() {
        // p = 1000003 is prime: a^(p-1) = 1 mod p.
        let p = n(1_000_003);
        for a in [2u128, 3, 65537, 999_999] {
            assert_eq!(n(a).modpow(&(&p - &n(1)), &p), n(1), "a={a}");
        }
    }

    #[test]
    fn modpow_even_modulus_falls_back() {
        assert_eq!(n(3).modpow(&n(4), &n(16)), n(81 % 16));
        assert_eq!(n(5).modpow(&n(3), &n(100)), n(25));
    }

    #[test]
    #[should_panic(expected = "must be >= 2")]
    fn modpow_modulus_one_panics() {
        n(3).modpow(&n(4), &n(1));
    }

    #[test]
    fn montgomery_roundtrip() {
        let m = Montgomery::new(n(1_000_003));
        for v in [0u128, 1, 2, 999_999, 1_000_002] {
            let mont = m.to_mont(&n(v));
            assert_eq!(m.from_mont(&mont), n(v), "v={v}");
        }
    }

    #[test]
    fn montgomery_mul_matches_plain() {
        let modulus = n(0xffff_ffff_ffff_ffc5); // large odd 64-bit
        let m = Montgomery::new(modulus.clone());
        let a = n(0x1234_5678_9abc_def0);
        let b = n(0xfedc_ba98_7654_3210);
        let am = m.to_mont(&a);
        let bm = m.to_mont(&b);
        let prod = m.from_mont(&m.mont_mul(&am, &bm));
        assert_eq!(prod, a.modmul(&b, &modulus));
    }

    #[test]
    fn montgomery_modpow_matches_plain_multi_limb() {
        // 128-bit odd modulus spanning two limbs.
        let modulus: Natural = "340282366920938463463374607431768211297".parse().unwrap();
        let base: Natural = "123456789012345678901234567890".parse().unwrap();
        let exp: Natural = "98765432109876543210".parse().unwrap();
        let m = Montgomery::new(modulus.clone());
        assert_eq!(m.modpow(&base, &exp), base.modpow_plain(&exp, &modulus));
    }

    #[test]
    fn window_width_thresholds() {
        let widths: Vec<usize> = [1, 23, 24, 79, 80, 239, 240, 671, 672, 4096]
            .into_iter()
            .map(window_width)
            .collect();
        assert_eq!(widths, [1, 1, 3, 3, 4, 4, 5, 5, 6, 6]);
    }

    #[test]
    fn windows_end_at_a_set_bit() {
        let exp = n(0b1011_0001);
        // From the top bit: 4 bits cover 1011, 3 bits cover 101.
        assert_eq!(window(&exp, 7, 4), (4, 0b1011));
        assert_eq!(window(&exp, 7, 3), (5, 0b101));
        // A window never runs past bit 0, and skips trailing zeros.
        assert_eq!(window(&exp, 0, 5), (0, 1));
        assert_eq!(window(&n(0b1100), 3, 4), (2, 0b11));
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn montgomery_rejects_even() {
        Montgomery::new(n(10));
    }

    #[test]
    fn exponent_one_and_base_bigger_than_modulus() {
        let m = n(97);
        assert_eq!(n(1000).modpow(&n(1), &m), n(1000 % 97));
    }
}
