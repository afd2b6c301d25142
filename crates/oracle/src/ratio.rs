//! Exact non-negative rationals in `u128`, for reference models whose
//! verdict must not depend on floating-point rounding.
//!
//! Every value is kept reduced by the gcd, so two equal values have equal
//! fields. Every operation is checked: a result that does not fit in `u128`
//! panics instead of wrapping, so a reference model either answers exactly
//! or stops. Comparison never multiplies: it walks the two continued
//! fractions, so any two representable values compare without overflow.

use std::cmp::Ordering;
use std::fmt;

/// An exact non-negative rational `num / den`, reduced, with `den > 0`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    num: u128,
    den: u128,
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn checked(value: Option<u128>, what: &str) -> u128 {
    value.unwrap_or_else(|| panic!("exact arithmetic overflowed u128 in {what}"))
}

impl Ratio {
    /// Zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };

    /// `num / den`, reduced.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn new(num: u128, den: u128) -> Ratio {
        assert!(den != 0, "a ratio needs a non-zero denominator");
        let g = gcd(num, den);
        Ratio { num: num / g, den: den / g }
    }

    /// The integer `n`.
    pub fn integer(n: u128) -> Ratio {
        Ratio { num: n, den: 1 }
    }

    /// The exact value of a finite, non-negative `f64`: a dyadic rational
    /// `mantissa · 2^exponent`.
    ///
    /// # Panics
    /// Panics if `x` is negative, not finite, or needs a numerator or a
    /// denominator beyond `u128` (values at or above 2^127, or with bits
    /// below 2^-127).
    pub fn from_f64(x: f64) -> Ratio {
        assert!(x.is_finite() && x >= 0.0, "{x} is not a finite non-negative number");
        if x == 0.0 {
            return Ratio::ZERO;
        }
        let bits = x.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        let fraction = (bits & ((1 << 52) - 1)) as u128;
        // Normal numbers carry the implicit leading bit; subnormals do not
        // and share the smallest exponent.
        let (mantissa, exponent) =
            if biased == 0 { (fraction, -1074) } else { (fraction | 1 << 52, biased - 1075) };
        let shift = mantissa.trailing_zeros() as i32;
        let (mantissa, exponent) = (mantissa >> shift, exponent + shift);
        if exponent >= 0 {
            assert!(
                exponent < mantissa.leading_zeros() as i32,
                "{x} does not fit a u128 numerator"
            );
            Ratio { num: mantissa << exponent, den: 1 }
        } else {
            assert!(-exponent < 128, "{x} does not fit a u128 denominator");
            Ratio { num: mantissa, den: 1 << -exponent }
        }
    }

    /// `self + other`, exactly.
    ///
    /// # Panics
    /// Panics if the result does not fit in `u128`.
    pub fn plus(self, other: Ratio) -> Ratio {
        let g = gcd(self.den, other.den);
        let (a, b) = (self.den / g, other.den / g);
        let num = checked(
            checked(self.num.checked_mul(b), "add")
                .checked_add(checked(other.num.checked_mul(a), "add")),
            "add",
        );
        Ratio::new(num, checked(a.checked_mul(other.den), "add"))
    }

    /// `self · other`, exactly.
    ///
    /// # Panics
    /// Panics if the result does not fit in `u128`.
    pub fn times(self, other: Ratio) -> Ratio {
        // Cross-reduce first, so the products are already in lowest terms.
        let g1 = gcd(self.num, other.den);
        let g2 = gcd(other.num, self.den);
        let num = checked((self.num / g1).checked_mul(other.num / g2), "mul");
        let den = checked((self.den / g2).checked_mul(other.den / g1), "mul");
        Ratio { num, den }
    }

    /// `self / n`, exactly.
    ///
    /// # Panics
    /// Panics if `n` is zero or the result does not fit in `u128`.
    pub fn div_integer(self, n: u128) -> Ratio {
        self.times(Ratio::new(1, n))
    }

    /// True if `self` and `other` differ by at most one part in a billion of
    /// the larger: `|a − b| ≤ 10⁻⁹ · max(a, b)`, decided exactly.
    pub fn within_a_billionth(self, other: Ratio) -> bool {
        let (lo, hi) = if self <= other { (self, other) } else { (other, self) };
        // hi − lo ≤ hi / 10⁹  ⇔  hi · (10⁹ − 1) / 10⁹ ≤ lo.
        hi.times(Ratio::new(999_999_999, 1_000_000_000)) <= lo
    }

    /// The nearest `f64`, up to the rounding of its two conversions; for
    /// reports and tolerance checks, never for a decision.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // Compare integer parts; on a tie compare the fractional parts
        // through their reciprocals, which reverses the order. Every step
        // is a division, so nothing overflows.
        let (mut a, mut b, mut c, mut d) = (self.num, self.den, other.num, other.den);
        let mut flipped = false;
        loop {
            let (qa, qc) = (a / b, c / d);
            let (ra, rc) = (a % b, c % d);
            let order = match qa.cmp(&qc) {
                Ordering::Equal => match (ra == 0, rc == 0) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Less,
                    (false, true) => Ordering::Greater,
                    (false, false) => {
                        // a/b − qa = ra/b: compare b/ra with d/rc, reversed.
                        (a, b, c, d) = (b, ra, d, rc);
                        flipped = !flipped;
                        continue;
                    }
                },
                order => order,
            };
            return if flipped { order.reverse() } else { order };
        }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} (≈{})", self.num, self.den, self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_kept_reduced() {
        assert_eq!(Ratio::new(6, 4), Ratio::new(3, 2));
        assert_eq!(Ratio::new(1, 3).plus(Ratio::new(1, 6)), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, 3).times(Ratio::new(9, 4)), Ratio::new(3, 2));
        assert_eq!(Ratio::new(0, 7), Ratio::ZERO);
        assert_eq!(Ratio::integer(5).div_integer(10), Ratio::new(1, 2));
    }

    #[test]
    fn an_f64_converts_to_its_exact_dyadic_value() {
        assert_eq!(Ratio::from_f64(0.0), Ratio::ZERO);
        assert_eq!(Ratio::from_f64(4.0), Ratio::integer(4));
        assert_eq!(Ratio::from_f64(0.375), Ratio::new(3, 8));
        // 0.65 is not dyadic: the conversion keeps the f64's own value.
        assert_eq!(Ratio::from_f64(0.65), Ratio::new(0x14_cccc_cccc_cccd, 1 << 53));
        assert_eq!(Ratio::from_f64(2f64.powi(100)), Ratio::integer(1 << 100));
        assert_eq!(Ratio::from_f64(2f64.powi(-100)), Ratio::new(1, 1 << 100));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn an_f64_beyond_u128_is_refused() {
        let _ = Ratio::from_f64(f64::MAX);
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn overflow_panics_instead_of_wrapping() {
        let _ = Ratio::integer(1 << 100).times(Ratio::integer(1 << 100));
    }

    #[test]
    fn comparison_is_exact_where_cross_products_overflow() {
        let big = u128::MAX / 3;
        let a = Ratio::new(big, big - 1);
        let b = Ratio::new(big + 1, big);
        // a = 1 + 1/(big−1) > b = 1 + 1/big.
        assert!(a > b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::integer(2) > Ratio::new(3, 2));
        assert!(Ratio::new(3, 2) < Ratio::integer(2));
        assert!(Ratio::ZERO < Ratio::new(1, u128::MAX));
    }

    #[test]
    fn a_billionth_is_decided_exactly() {
        let one = Ratio::integer(1);
        assert!(one.within_a_billionth(Ratio::new(999_999_999, 1_000_000_000)));
        assert!(!one.within_a_billionth(Ratio::new(999_999_998, 1_000_000_000)));
        assert!(Ratio::ZERO.within_a_billionth(Ratio::ZERO));
        assert!(!Ratio::ZERO.within_a_billionth(Ratio::new(1, 1 << 60)));
    }
}
