//! Arbitrary-precision unsigned integer arithmetic.
//!
//! A compact limb-vector implementation supporting exactly the operations
//! RSA needs: comparison, add/sub, schoolbook multiplication, long division
//! with remainder, modular exponentiation and a modular inverse (extended
//! Euclid). Limbs are 32-bit so products fit in `u64` without carry
//! gymnastics.
//!
//! Modular exponentiation is where RSA spends its time (key generation's
//! Miller–Rabin rounds, signing, verified boot), so it has its own
//! arithmetic: an odd modulus of up to 1024 bits gets fixed-width
//! Montgomery multiplication (CIOS) on 64-bit limbs in a stack array sized
//! to the modulus, with no heap inside the loop. Montgomery cannot take an
//! even modulus; those, and anything wider, use the heap schoolbook loop
//! (a multiply and a Knuth division per step), which is also the reference
//! the tests compare the Montgomery path against. Both are exact, so the
//! choice never changes a result.

use std::cmp::Ordering;
use std::fmt;

/// Binds `$ring` to the arithmetic modulo `$m` and evaluates `$body` with
/// it: [`Montgomery`] on the narrowest of 1, 2, 4, 8 or 16 64-bit limbs
/// that holds an odd modulus, [`Schoolbook`] for an even or a wider one.
macro_rules! with_residues {
    ($m:expr, |$ring:ident| $body:expr) => {{
        let m: &BigUint = $m;
        match m.limbs.len().div_ceil(2) {
            _ if m.is_even() => {
                let $ring = Schoolbook(m);
                $body
            }
            1 => {
                let $ring = Montgomery::<1>::new(m);
                $body
            }
            2 => {
                let $ring = Montgomery::<2>::new(m);
                $body
            }
            3..=4 => {
                let $ring = Montgomery::<4>::new(m);
                $body
            }
            5..=8 => {
                let $ring = Montgomery::<8>::new(m);
                $body
            }
            9..=16 => {
                let $ring = Montgomery::<16>::new(m);
                $body
            }
            _ => {
                let $ring = Schoolbook(m);
                $body
            }
        }
    }};
}

/// An arbitrary-precision unsigned integer.
///
/// The internal representation is little-endian `u32` limbs with no trailing
/// zero limbs (zero is the empty vector).
///
/// # Example
///
/// ```
/// use cres_crypto::bignum::BigUint;
/// let a = BigUint::from_u64(1 << 40);
/// let b = BigUint::from_u64(1 << 20);
/// assert_eq!(&a / &b, BigUint::from_u64(1 << 20));
/// ```
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct BigUint {
    limbs: Vec<u32>, // little-endian, normalized (no trailing zeros)
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Creates a value from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut limbs = vec![(v & 0xffff_ffff) as u32, (v >> 32) as u32];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Parses a big-endian byte string (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 4 + 1);
        for chunk in bytes.rchunks(4) {
            let mut v: u32 = 0;
            for &b in chunk {
                v = (v << 8) | u32::from(b);
            }
            limbs.push(v);
        }
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Serializes to big-endian bytes with no leading zeros (zero → empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // skip leading zeros of the top limb
                let mut started = false;
                for b in bytes {
                    if b != 0 || started {
                        out.push(b);
                        started = true;
                    }
                }
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to big-endian bytes left-padded with zeros to `len`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (counting from the least-significant bit).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        let off = i % 32;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to 1.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 32;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << (i % 32);
    }

    /// Converts to `u64`, returning `None` when too large.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(u64::from(self.limbs[0])),
            2 => Some(u64::from(self.limbs[0]) | (u64::from(self.limbs[1]) << 32)),
            _ => None,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let mut out = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry: u64 = 0;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = u64::from(*self.limbs.get(i).unwrap_or(&0));
            let b = u64::from(*other.limbs.get(i).unwrap_or(&0));
            let s = a + b + carry;
            out.push((s & 0xffff_ffff) as u32);
            carry = s >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let a = i64::from(self.limbs[i]);
            let b = i64::from(*other.limbs.get(i).unwrap_or(&0));
            let mut d = a - b - borrow;
            if d < 0 {
                d += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u32);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = u64::from(out[i + j]) + u64::from(a) * u64::from(b) + carry;
                out[i + j] = (cur & 0xffff_ffff) as u32;
                carry = cur >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = u64::from(out[k]) + carry;
                out[k] = (cur & 0xffff_ffff) as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 32;
        let bit_shift = n % 32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry: u32 = 0;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> BigUint {
        let limb_shift = n / 32;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 32;
        let mut out: Vec<u32> = self.limbs[limb_shift..].to_vec();
        if bit_shift > 0 {
            let mut carry: u32 = 0;
            for l in out.iter_mut().rev() {
                let new = (*l >> bit_shift) | carry;
                carry = *l << (32 - bit_shift);
                *l = new;
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Division with remainder: returns `(self / divisor, self % divisor)`.
    ///
    /// Uses single-limb short division when the divisor fits one limb and
    /// Knuth Algorithm D otherwise.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let d = u64::from(divisor.limbs[0]);
            let mut q = vec![0u32; self.limbs.len()];
            let mut rem: u64 = 0;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 32) | u64::from(self.limbs[i]);
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            let mut quotient = BigUint { limbs: q };
            quotient.normalize();
            return (quotient, BigUint::from_u64(rem));
        }
        self.div_rem_knuth(divisor)
    }

    /// Knuth Algorithm D (TAOCP 4.3.1) with 32-bit digits.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;
        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        u.resize(self.limbs.len() + 1, 0); // one extra high limb

        let mut q = vec![0u32; m + 1];
        let v_top = u64::from(v[n - 1]);
        let v_next = u64::from(v[n - 2]);

        // D2..D7: main loop.
        for j in (0..=m).rev() {
            // D3: estimate qhat.
            let numerator = (u64::from(u[j + n]) << 32) | u64::from(u[j + n - 1]);
            let mut qhat = numerator / v_top;
            let mut rhat = numerator % v_top;
            while qhat >= 1u64 << 32 || qhat * v_next > (rhat << 32) + u64::from(u[j + n - 2]) {
                qhat -= 1;
                rhat += v_top;
                if rhat >= 1u64 << 32 {
                    break;
                }
            }
            // D4: multiply and subtract u[j..j+n+1] -= qhat * v.
            let mut borrow: i64 = 0;
            let mut carry: u64 = 0;
            for i in 0..n {
                let p = qhat * u64::from(v[i]) + carry;
                carry = p >> 32;
                let sub = i64::from(u[j + i]) - (p & 0xffff_ffff) as i64 - borrow;
                if sub < 0 {
                    u[j + i] = (sub + (1i64 << 32)) as u32;
                    borrow = 1;
                } else {
                    u[j + i] = sub as u32;
                    borrow = 0;
                }
            }
            let sub = i64::from(u[j + n]) - carry as i64 - borrow;
            // D5/D6: if we subtracted too much, add back one divisor.
            if sub < 0 {
                u[j + n] = (sub + (1i64 << 32)) as u32;
                qhat -= 1;
                let mut carry: u64 = 0;
                for i in 0..n {
                    let s = u64::from(u[j + i]) + u64::from(v[i]) + carry;
                    u[j + i] = (s & 0xffff_ffff) as u32;
                    carry = s >> 32;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u32);
            } else {
                u[j + n] = sub as u32;
            }
            q[j] = qhat as u32;
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        // D8: denormalize the remainder.
        let mut remainder = BigUint {
            limbs: u[..n].to_vec(),
        };
        remainder.normalize();
        remainder = remainder.shr(shift);
        (quotient, remainder)
    }

    /// `self mod m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// `self mod d` for a one-word divisor: one pass over the limbs, no heap.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub(crate) fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        self.limbs.iter().rev().fold(0, |rem, &limb| {
            ((u128::from(rem) << 32 | u128::from(limb)) % u128::from(d)) as u64
        })
    }

    /// Modular exponentiation `self^exp mod m` (square and multiply; see
    /// the module docs for which arithmetic a modulus gets).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mod_pow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m == &BigUint::one() {
            return BigUint::zero();
        }
        with_residues!(m, |ring| ring.value(ring.pow(&ring.elem(self), exp)))
    }

    /// Miller–Rabin on odd `self > 3`: one round per witness that
    /// `witness` draws (each in `[2, self - 2]`), stopping at the first
    /// that proves `self` composite, so the caller's witness source is
    /// drawn exactly as often as the rounds need. The squarings stay in
    /// residue form and are compared with the residues of 1 and `self - 1`.
    pub(crate) fn miller_rabin(&self, rounds: u32, mut witness: impl FnMut() -> BigUint) -> bool {
        debug_assert!(
            !self.is_even() && self.bit_len() > 2,
            "Miller–Rabin needs odd n > 3"
        );
        // self - 1 = d · 2^r
        let n_minus_1 = self.sub(&BigUint::one());
        let r = (0..).take_while(|&i| !n_minus_1.bit(i)).count();
        let d = n_minus_1.shr(r);
        with_residues!(self, |ring| {
            let one = ring.elem(&BigUint::one());
            let minus_one = ring.elem(&n_minus_1);
            'witness: for _ in 0..rounds {
                let mut x = ring.pow(&ring.elem(&witness()), &d);
                if x == one || x == minus_one {
                    continue 'witness;
                }
                for _ in 1..r {
                    x = ring.mul(&x, &x);
                    if x == minus_one {
                        continue 'witness;
                    }
                }
                return false;
            }
            true
        })
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr(1);
        }
        loop {
            while b.is_even() {
                b = b.shr(1);
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                break;
            }
        }
        a.shl(shift)
    }

    /// Modular inverse of `self` modulo `m`, or `None` when it does not
    /// exist (gcd ≠ 1). Uses the extended Euclidean algorithm with signed
    /// bookkeeping emulated through modulus-offset arithmetic.
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || self.is_zero() {
            return None;
        }
        // Extended Euclid on (a, m) tracking x where a*x ≡ gcd (mod m).
        // Represent possibly-negative coefficients as (value mod m).
        let mut r0 = self.rem(m);
        let mut r1 = m.clone();
        let mut x0 = BigUint::one();
        let mut x1 = BigUint::zero();
        while !r1.is_zero() {
            let (q, r) = r0.div_rem(&r1);
            // x_{n+1} = x0 - q*x1  (mod m)
            let qx1 = q.mul(&x1).rem(m);
            let x_next = if x0 >= qx1 {
                x0.sub(&qx1)
            } else {
                m.sub(&qx1.sub(&x0).rem(m))
            }
            .rem(m);
            r0 = r1;
            r1 = r;
            x0 = x1;
            x1 = x_next;
        }
        if r0 == BigUint::one() {
            Some(x0.rem(m))
        } else {
            None
        }
    }
}

/// Arithmetic modulo one fixed modulus `n`, in whatever form the
/// implementation keeps residues: `mod_pow` and Miller–Rabin are written
/// once against it.
trait Residues {
    /// A residue in this arithmetic's form.
    type Elem: PartialEq;
    /// `x mod n`, as a residue.
    fn elem(&self, x: &BigUint) -> Self::Elem;
    /// The residue's value, `< n`.
    fn value(&self, x: Self::Elem) -> BigUint;
    /// `a · b mod n`.
    fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
    /// `base^exp mod n`.
    fn pow(&self, base: &Self::Elem, exp: &BigUint) -> Self::Elem;
}

/// The reference arithmetic: heap residues, a schoolbook multiply and a
/// Knuth division per step.
struct Schoolbook<'a>(&'a BigUint);

impl Residues for Schoolbook<'_> {
    type Elem = BigUint;

    fn elem(&self, x: &BigUint) -> BigUint {
        x.rem(self.0)
    }

    fn value(&self, x: BigUint) -> BigUint {
        x
    }

    fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.mul(b).rem(self.0)
    }

    /// Right-to-left square and multiply.
    fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let mut result = BigUint::one();
        let mut acc = base.clone();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = self.mul(&result, &acc);
            }
            acc = self.mul(&acc, &acc);
        }
        result
    }
}

/// Montgomery arithmetic modulo an odd `n < R = 2^(64·N)`: a residue `x`
/// is kept as `x·R mod n` on `N` little-endian 64-bit limbs, so a product
/// reduces by word shifts instead of a division.
struct Montgomery<'a, const N: usize> {
    m: &'a BigUint,
    n: [u64; N],
    /// `-n⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
    /// `R mod n`, the residue form of 1.
    one: [u64; N],
    /// `R² mod n`: a Montgomery product with it enters residue form.
    r2: [u64; N],
}

impl<'a, const N: usize> Montgomery<'a, N> {
    /// Sets up odd modulus `m` of at most `64·N` bits: n0′ and R² mod n,
    /// once, with no heap.
    fn new(m: &'a BigUint) -> Self {
        let n = limbs64(m);
        // Newton's iteration for n⁻¹ mod 2⁶⁴: an odd n is its own inverse
        // mod 2³, and each step doubles the bits that are right.
        let mut inv = n[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        // R mod n: double the highest power of two below n up to R.
        let top = m.bit_len() - 1;
        let mut one = [0; N];
        one[top / 64] = 1 << (top % 64);
        for _ in top..64 * N {
            double(&mut one, &n);
        }
        let mut ring = Montgomery {
            m,
            n,
            n0_inv: inv.wrapping_neg(),
            one,
            r2: [0; N],
        };
        // R² mod n is the residue form of 2^(64·N): square the residue
        // form of 2 up the bits of 64·N, doubling at each set bit.
        let k = 64 * N;
        let mut r2 = one;
        double(&mut r2, &n);
        for i in (0..k.ilog2()).rev() {
            r2 = ring.mul(&r2, &r2);
            if k >> i & 1 == 1 {
                double(&mut r2, &n);
            }
        }
        ring.r2 = r2;
        ring
    }
}

impl<const N: usize> Residues for Montgomery<'_, N> {
    type Elem = [u64; N];

    fn elem(&self, x: &BigUint) -> [u64; N] {
        let x = if x >= self.m {
            limbs64(&x.rem(self.m))
        } else {
            limbs64(x)
        };
        self.mul(&x, &self.r2)
    }

    fn value(&self, x: [u64; N]) -> BigUint {
        let mut unit = [0; N];
        unit[0] = 1;
        let x = self.mul(&x, &unit);
        let mut out = BigUint {
            limbs: x
                .iter()
                .flat_map(|&limb| [limb as u32, (limb >> 32) as u32])
                .collect(),
        };
        out.normalize();
        out
    }

    /// The Montgomery product `a·b·R⁻¹ mod n` (CIOS: the multiply and the
    /// reduction interleaved a word of `b` at a time).
    fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut t = [0u64; N];
        // t's word N; t < 2n between rounds keeps it 0 or 1
        let mut hi = 0u64;
        for &word in b {
            let mut carry = 0;
            for (t, &a) in t.iter_mut().zip(a) {
                (*t, carry) = mac(*t, a, word, carry);
            }
            let (top, over) = hi.overflowing_add(carry);
            // add q·n, q chosen so the low word cancels, and shift one word
            let q = t[0].wrapping_mul(self.n0_inv);
            let (_, mut carry) = mac(t[0], q, self.n[0], 0);
            for j in 1..N {
                (t[j - 1], carry) = mac(t[j], q, self.n[j], carry);
            }
            let (top, over2) = top.overflowing_add(carry);
            t[N - 1] = top;
            hi = u64::from(over) + u64::from(over2);
        }
        if hi != 0 || !less(&t, &self.n) {
            sub_limbs(&mut t, &self.n);
        }
        t
    }

    /// Left-to-right square and multiply.
    fn pow(&self, base: &[u64; N], exp: &BigUint) -> [u64; N] {
        let mut acc = self.one;
        for i in (0..exp.bit_len()).rev() {
            acc = self.mul(&acc, &acc);
            if exp.bit(i) {
                acc = self.mul(&acc, base);
            }
        }
        acc
    }
}

/// `x`'s value on `N` little-endian 64-bit limbs (it must fit).
fn limbs64<const N: usize>(x: &BigUint) -> [u64; N] {
    let mut out = [0; N];
    for (i, &limb) in x.limbs.iter().enumerate() {
        out[i / 2] |= u64::from(limb) << (32 * (i % 2));
    }
    out
}

/// `a + b·c + carry` as its low and high words (it cannot overflow 128 bits).
fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let wide = u128::from(a) + u128::from(b) * u128::from(c) + u128::from(carry);
    (wide as u64, (wide >> 64) as u64)
}

/// `x < n`, on equal-width limbs.
fn less<const N: usize>(x: &[u64; N], n: &[u64; N]) -> bool {
    x.iter().rev().lt(n.iter().rev())
}

/// `x -= n` modulo `2^(64·N)`: the caller knows the true difference fits.
fn sub_limbs<const N: usize>(x: &mut [u64; N], n: &[u64; N]) {
    let mut borrow = false;
    for (x, &n) in x.iter_mut().zip(n) {
        let (d, b1) = x.overflowing_sub(n);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *x = d;
        borrow = b1 | b2;
    }
}

/// `x = 2x mod n`, for `x < n`.
fn double<const N: usize>(x: &mut [u64; N], n: &[u64; N]) {
    let mut carry = 0;
    for limb in x.iter_mut() {
        let out = *limb >> 63;
        *limb = *limb << 1 | carry;
        carry = out;
    }
    if carry != 0 || !less(x, n) {
        sub_limbs(x, n);
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.limbs.len().cmp(&other.limbs.len()).then_with(|| {
            for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                match a.cmp(b) {
                    Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            Ordering::Equal
        })
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "BigUint(0x0)");
        }
        write!(f, "BigUint(0x")?;
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:08x}")?;
            }
        }
        write!(f, ")")
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // hex display; decimal conversion is not needed by the platform
        if self.is_zero() {
            return write!(f, "0x0");
        }
        write!(f, "0x")?;
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:08x}")?;
            }
        }
        Ok(())
    }
}

impl std::ops::Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::add(self, rhs)
    }
}

impl std::ops::Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        BigUint::sub(self, rhs)
    }
}

impl std::ops::Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::mul(self, rhs)
    }
}

impl std::ops::Div for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl std::ops::Rem for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        BigUint::rem(self, rhs)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn b(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn construction_and_bytes_round_trip() {
        for v in [0u64, 1, 255, 256, 0xffff_ffff, 0x1_0000_0000, u64::MAX] {
            let big = b(v);
            assert_eq!(big.to_u64(), Some(v));
            assert_eq!(BigUint::from_bytes_be(&big.to_bytes_be()), big);
        }
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 1, 2]), b(0x0102));
    }

    #[test]
    fn padded_serialization() {
        assert_eq!(b(0x0102).to_bytes_be_padded(4), vec![0, 0, 1, 2]);
        assert_eq!(BigUint::zero().to_bytes_be_padded(2), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_serialization_too_small_panics() {
        b(0x010203).to_bytes_be_padded(2);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = b(u64::MAX).mul(&b(12345));
        let c = b(987654321);
        assert_eq!(a.add(&c).sub(&c), a);
        assert_eq!(a.add(&c).sub(&a), c);
    }

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from_bytes_be(&[0xff; 16]);
        let one = BigUint::one();
        let sum = a.add(&one);
        assert_eq!(sum.bit_len(), 129);
        assert_eq!(sum.sub(&one), a);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        b(1).sub(&b(2));
    }

    #[test]
    fn mul_matches_u64() {
        for (x, y) in [
            (0u64, 5u64),
            (3, 4),
            (0xffff_ffff, 0xffff_ffff),
            (123456789, 987654321),
        ] {
            let prod = x.checked_mul(y).expect("cases fit in u64");
            assert_eq!(b(x).mul(&b(y)), b(prod));
        }
    }

    #[test]
    fn mul_large() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = b(u64::MAX);
        let sq = a.mul(&a);
        let expect = BigUint::one()
            .shl(128)
            .sub(&BigUint::one().shl(65))
            .add(&BigUint::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn shifts() {
        assert_eq!(b(1).shl(100).shr(100), b(1));
        assert_eq!(b(0b1011).shl(2), b(0b101100));
        assert_eq!(b(0b1011).shr(2), b(0b10));
        assert_eq!(b(5).shr(64), BigUint::zero());
        assert_eq!(b(1).shl(32), BigUint::from_u64(1 << 32));
    }

    #[test]
    fn div_rem_matches_u64() {
        for (x, y) in [
            (100u64, 7u64),
            (0, 5),
            (5, 5),
            (u64::MAX, 3),
            (1 << 40, 1 << 20),
        ] {
            let (q, r) = b(x).div_rem(&b(y));
            assert_eq!(q, b(x / y), "{x}/{y}");
            assert_eq!(r, b(x % y), "{x}%{y}");
        }
    }

    #[test]
    fn div_rem_large_reconstructs() {
        let n = BigUint::from_bytes_be(&[0xAB; 33]);
        let d = BigUint::from_bytes_be(&[0x37; 12]);
        let (q, r) = n.div_rem(&d);
        assert!(r < d);
        assert_eq!(q.mul(&d).add(&r), n);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        b(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn mod_pow_small_cases() {
        // 4^13 mod 497 = 445 (classic example)
        assert_eq!(b(4).mod_pow(&b(13), &b(497)), b(445));
        // Fermat: a^(p-1) mod p = 1 for prime p
        assert_eq!(b(7).mod_pow(&b(1000003 - 1), &b(1000003)), b(1));
        // modulus one → zero
        assert_eq!(b(5).mod_pow(&b(3), &BigUint::one()), BigUint::zero());
        // exponent zero → one
        assert_eq!(b(5).mod_pow(&BigUint::zero(), &b(7)), BigUint::one());
    }

    /// The schoolbook loop, which every modulus took before Montgomery.
    fn schoolbook_pow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let ring = Schoolbook(m);
        ring.pow(&ring.elem(base), exp)
    }

    /// The top `bits` bits of `bytes`, as a number.
    fn take_bits(bytes: &[u8], bits: usize) -> BigUint {
        BigUint::from_bytes_be(&bytes[..bits.div_ceil(8)]).shr((8 - bits % 8) % 8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn montgomery_mod_pow_matches_schoolbook(
            bits in 64usize..=1024,
            full_width: bool,
            exp_bits in 0usize..=1024,
            base_kind in 0u8..3,
            bytes in proptest::collection::vec(any::<u8>(), 384)
        ) {
            // Half the moduli fill their limb width, as RSA moduli and
            // primes do: only there (n > R/4) does a product skipping the
            // final subtraction leave the residue range.
            let bits = if full_width {
                bits.div_ceil(64).next_power_of_two() * 64
            } else {
                bits
            };
            // a random odd modulus of exactly `bits` bits
            let mut m = take_bits(&bytes[..128], bits);
            m.set_bit(bits - 1);
            m.set_bit(0);
            let exp = take_bits(&bytes[128..256], exp_bits.min(bits));
            let below = take_bits(&bytes[256..], bits).rem(&m);
            let base = match base_kind {
                0 => below,
                1 => m.clone(),
                _ => m.mul(&take_bits(&bytes[256..], 64)).add(&below),
            };
            prop_assert_eq!(base.mod_pow(&exp, &m), schoolbook_pow(&base, &exp, &m));
        }
    }

    #[test]
    fn montgomery_edge_moduli_match_schoolbook() {
        let all_ones_top = BigUint::from_bytes_be(&[0xff; 64]).sub(&b(2)); // odd, 512 bits
        let moduli = [
            b(3),
            b(u64::MAX),
            b(0xffff_fffb),                    // one 32-bit limb
            b((1 << 63) + 1),                  // one 64-bit limb, top bit set
            BigUint::one().shl(64).add(&b(1)), // the narrowest two-limb modulus
            all_ones_top.clone(),
            BigUint::from_bytes_be(&[0xff; 128]), // 1024 bits, every bit set
        ];
        let exps = [BigUint::zero(), b(1), b(2), b(65537), all_ones_top.shr(3)];
        for m in &moduli {
            for base in [
                BigUint::zero(),
                b(1),
                b(2),
                m.sub(&b(1)),
                m.clone(),
                m.add(&b(1)),
                m.mul(m).add(&b(5)),
            ] {
                for exp in &exps {
                    assert_eq!(
                        base.mod_pow(exp, m),
                        schoolbook_pow(&base, exp, m),
                        "{base}^{exp} mod {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn miller_rabin_decides_known_primes_and_composites() {
        // 2^61 - 1 is prime; 561 and 41041 are Carmichael numbers; the
        // 1024-bit value is a product of two 512-bit odd numbers.
        let p = BigUint::one().shl(61).sub(&b(1));
        let composite =
            BigUint::from_bytes_be(&[0xa7; 64]).mul(&BigUint::from_bytes_be(&[0x5b; 64]));
        for (n, prime) in [
            (p, true),
            (b(561), false),
            (b(41041), false),
            (composite, false),
        ] {
            let mut witness = 1u64;
            let mut draw = || {
                witness += 1;
                b(witness)
            };
            assert_eq!(n.miller_rabin(8, &mut draw), prime, "{n}");
        }
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(b(12).gcd(&b(18)), b(6));
        assert_eq!(b(17).gcd(&b(13)), b(1));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(5).gcd(&b(0)), b(5));
        assert_eq!(b(48).gcd(&b(36)), b(12));
    }

    #[test]
    fn mod_inverse_cases() {
        // 3 * 4 = 12 ≡ 1 mod 11
        assert_eq!(b(3).mod_inverse(&b(11)), Some(b(4)));
        // even numbers have no inverse mod even modulus
        assert_eq!(b(4).mod_inverse(&b(8)), None);
        // inverse verifies: a * a^-1 ≡ 1
        let m = b(1000003);
        for a in [2u64, 999, 123456] {
            let inv = b(a).mod_inverse(&m).unwrap();
            assert_eq!(b(a).mul(&inv).rem(&m), BigUint::one(), "a={a}");
        }
    }

    #[test]
    fn ordering() {
        assert!(b(5) > b(4));
        assert!(b(0x1_0000_0000) > b(0xffff_ffff));
        assert_eq!(b(7).cmp(&b(7)), Ordering::Equal);
    }

    #[test]
    fn bit_access() {
        let v = b(0b1010);
        assert!(!v.bit(0));
        assert!(v.bit(1));
        assert!(!v.bit(2));
        assert!(v.bit(3));
        assert!(!v.bit(100));
        assert_eq!(v.bit_len(), 4);
        assert_eq!(BigUint::zero().bit_len(), 0);
    }

    #[test]
    fn operator_impls() {
        let a = b(100);
        let c = b(7);
        assert_eq!(&a + &c, b(107));
        assert_eq!(&a - &c, b(93));
        assert_eq!(&a * &c, b(700));
        assert_eq!(&a / &c, b(14));
        assert_eq!(&a % &c, b(2));
    }

    #[test]
    fn debug_display_nonempty() {
        assert_eq!(format!("{}", b(255)), "0xff");
        assert_eq!(format!("{}", BigUint::zero()), "0x0");
        assert!(format!("{:?}", b(1)).contains("BigUint"));
        // multi-limb: inner limbs are zero-padded
        assert_eq!(format!("{}", b(1).shl(32)), "0x100000000");
    }
}
