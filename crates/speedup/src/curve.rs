//! The [`Curve`] enum: every speed-up curve shape used in the repository.

use serde::{Deserialize, Serialize};

use crate::amdahl::amdahl_rate;
use crate::error::CurveError;
use crate::piecewise::PiecewiseLinear;
use crate::power::power_rate;

/// A speed-up curve `Γ` mapping a (fractional) processor allocation to a
/// processing rate.
///
/// All variants are non-decreasing, concave, and satisfy `Γ(0) = 0` and
/// `Γ(x) ≤ x` — the properties the SPAA'14 analysis relies on. Sub-processor
/// allocations are always linear (`Γ(x) = x` for `x ≤ 1`) except for
/// [`Curve::Piecewise`], which may be any valid concave shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Curve {
    /// `Γ(x) = x`: fully parallelizable (the paper's `α = 1`).
    FullyParallel,
    /// `Γ(x) = min(x, 1)`: sequential (the paper's `α = 0`).
    Sequential,
    /// The paper's power law: `Γ(x) = x` for `x ≤ 1`, `x^α` for `x ≥ 1`.
    Power {
        /// Parallelizability exponent `α ∈ [0, 1]`.
        alpha: f64,
    },
    /// Amdahl's law with the given serial fraction (extension).
    Amdahl {
        /// Serial fraction `s ∈ [0, 1]`; the speed-up saturates at `1/s`.
        serial_fraction: f64,
    },
    /// An arbitrary concave non-decreasing piecewise-linear curve.
    Piecewise(PiecewiseLinear),
}

impl Curve {
    /// A power-law curve, panicking if `α ∉ [0, 1]`.
    ///
    /// Use [`Curve::try_power`] for fallible construction.
    pub fn power(alpha: f64) -> Self {
        // lint:allow(L007) curve construction, not per-event evaluation; an out-of-range exponent is a programming error caught at build time
        Self::try_power(alpha).expect("power-law exponent must lie in [0, 1]")
    }

    /// A power-law curve, rejecting `α ∉ [0, 1]`.
    pub fn try_power(alpha: f64) -> Result<Self, CurveError> {
        if !alpha.is_finite() {
            return Err(CurveError::NotFinite);
        }
        if !(0.0..=1.0).contains(&alpha) {
            return Err(CurveError::AlphaOutOfRange { alpha });
        }
        Ok(Curve::Power { alpha })
    }

    /// An Amdahl curve, rejecting serial fractions outside `[0, 1]`.
    pub fn try_amdahl(serial_fraction: f64) -> Result<Self, CurveError> {
        if !serial_fraction.is_finite() {
            return Err(CurveError::NotFinite);
        }
        if !(0.0..=1.0).contains(&serial_fraction) {
            return Err(CurveError::SerialFractionOutOfRange {
                fraction: serial_fraction,
            });
        }
        Ok(Curve::Amdahl { serial_fraction })
    }

    /// Re-checks the variant's invariants (useful after deserialization).
    pub fn validate(&self) -> Result<(), CurveError> {
        match self {
            Curve::FullyParallel | Curve::Sequential => Ok(()),
            Curve::Power { alpha } => Self::try_power(*alpha).map(|_| ()),
            Curve::Amdahl { serial_fraction } => Self::try_amdahl(*serial_fraction).map(|_| ()),
            Curve::Piecewise(p) => PiecewiseLinear::new(p.points().to_vec()).map(|_| ()),
        }
    }

    /// The processing rate with `x ≥ 0` processors.
    #[inline]
    pub fn rate(&self, x: f64) -> f64 {
        match self {
            Curve::FullyParallel => x,
            Curve::Sequential => x.min(1.0),
            Curve::Power { alpha } => power_rate(*alpha, x),
            Curve::Amdahl { serial_fraction } => amdahl_rate(*serial_fraction, x),
            Curve::Piecewise(p) => p.rate(x),
        }
    }

    /// Marginal gain of the `(k+1)`-th whole processor:
    /// `Γ(k + 1) − Γ(k)`.
    ///
    /// This is the quantity the paper's §3 greedy hybrid maximizes
    /// (normalized by remaining work) when assigning processors one by one.
    #[inline]
    pub fn marginal(&self, k: u32) -> f64 {
        self.rate(f64::from(k) + 1.0) - self.rate(f64::from(k))
    }

    /// The smallest allocation achieving rate `r`, if any.
    ///
    /// Returns `None` when the curve saturates below `r` (e.g. a sequential
    /// job can never be processed faster than rate 1).
    pub fn inverse_rate(&self, r: f64) -> Option<f64> {
        self.inverse_rate_with(None, r)
    }

    /// [`Curve::inverse_rate`] with the power kernel supplied by the
    /// caller: `kernel` must be `None` or this curve's [`Curve::kernel`],
    /// so a loop that inverts one curve at many rates compiles the kernel
    /// once instead of per call. `None` compiles it on demand; either way
    /// the result is bit-identical, because kernel construction is
    /// deterministic in α.
    pub fn inverse_rate_with(
        &self,
        kernel: Option<crate::kernel::PowKernel>,
        r: f64,
    ) -> Option<f64> {
        debug_assert!(r >= 0.0);
        if r <= 1.0 && !matches!(self, Curve::Piecewise(_)) {
            // The model curves are the identity on [0, 1]; a general
            // piecewise curve need not be and takes the segment walk below.
            return Some(r);
        }
        match self {
            Curve::FullyParallel => Some(r),
            Curve::Sequential => None,
            Curve::Power { alpha } => {
                if crate::float::exact_eq(*alpha, 0.0) {
                    None
                } else {
                    debug_assert!(
                        !matches!(kernel, Some(k) if k.alpha().to_bits() != alpha.to_bits())
                    );
                    let kernel = kernel.unwrap_or_else(|| crate::kernel::PowKernel::new(*alpha));
                    Some(kernel.invert(r))
                }
            }
            Curve::Amdahl { serial_fraction } => {
                let s = *serial_fraction;
                if s > 0.0 && r >= 1.0 / s {
                    None
                } else {
                    // r = 1/(s + (1-s)/x)  ⇒  x = (1-s) / (1/r - s)
                    Some((1.0 - s) / (1.0 / r - s))
                }
            }
            Curve::Piecewise(p) => {
                // Walk segments; handle the extrapolated tail.
                let pts = p.points();
                for w in pts.windows(2) {
                    // lint:allow(L007) windows(2) yields exactly two elements per item
                    let (x0, y0) = w[0];
                    // lint:allow(L007) windows(2) yields exactly two elements per item
                    let (x1, y1) = w[1];
                    if r <= y1 {
                        if y1 == y0 {
                            return Some(x0);
                        }
                        return Some(x0 + (x1 - x0) * (r - y0) / (y1 - y0));
                    }
                }
                // lint:allow(L007) piecewise curves carry >= 2 points, validated at construction
                let (xa, ya) = pts[pts.len() - 2];
                // lint:allow(L007) piecewise curves carry >= 2 points, validated at construction
                let (xb, yb) = pts[pts.len() - 1];
                let slope = (yb - ya) / (xb - xa);
                if slope <= 0.0 {
                    None
                } else {
                    Some(xb + (r - yb) / slope)
                }
            }
        }
    }

    /// Time to drain `work` units at a constant allocation of `x`
    /// processors; `f64::INFINITY` when the rate is zero.
    #[inline]
    pub fn time_to_finish(&self, work: f64, x: f64) -> f64 {
        let rate = self.rate(x);
        if rate <= 0.0 {
            f64::INFINITY
        } else {
            work / rate
        }
    }

    /// The parallelizability exponent if this is a power-family curve
    /// (`FullyParallel` reports 1, `Sequential` reports 0).
    pub fn alpha(&self) -> Option<f64> {
        match self {
            Curve::FullyParallel => Some(1.0),
            Curve::Sequential => Some(0.0),
            Curve::Power { alpha } => Some(*alpha),
            _ => None,
        }
    }

    /// Whether `self` and `other` are the same curve bit for bit: the same
    /// variant with the same parameter bits (or breakpoint bits), so that
    /// every evaluation of one is an evaluation of the other.
    pub fn same_bits(&self, other: &Curve) -> bool {
        match (self, other) {
            (Curve::FullyParallel, Curve::FullyParallel)
            | (Curve::Sequential, Curve::Sequential) => true,
            (Curve::Power { alpha: x }, Curve::Power { alpha: y })
            | (Curve::Amdahl { serial_fraction: x }, Curve::Amdahl { serial_fraction: y }) => {
                x.to_bits() == y.to_bits()
            }
            (Curve::Piecewise(p), Curve::Piecewise(q)) => {
                p.points().len() == q.points().len()
                    && p.points().iter().zip(q.points()).all(|(u, v)| {
                        u.0.to_bits() == v.0.to_bits() && u.1.to_bits() == v.1.to_bits()
                    })
            }
            _ => false,
        }
    }

    /// The compiled power kernel for this curve, when it belongs to the
    /// power family (see [`crate::PowKernel::for_curve`]); hot loops cache
    /// this once per job instead of re-dispatching `rate` per event.
    #[inline]
    pub fn kernel(&self) -> Option<crate::kernel::PowKernel> {
        crate::kernel::PowKernel::for_curve(self)
    }

    /// A short human-readable label (used in tables and traces).
    pub fn label(&self) -> String {
        match self {
            Curve::FullyParallel => "par".to_string(),
            Curve::Sequential => "seq".to_string(),
            Curve::Power { alpha } => format!("pow({alpha})"),
            Curve::Amdahl { serial_fraction } => format!("amdahl({serial_fraction})"),
            Curve::Piecewise(p) => format!("pwl[{}]", p.points().len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::approx_eq;

    #[test]
    fn construction_validates_alpha() {
        assert!(Curve::try_power(0.5).is_ok());
        assert!(Curve::try_power(-0.1).is_err());
        assert!(Curve::try_power(1.1).is_err());
        assert!(Curve::try_power(f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn power_panics_on_bad_alpha() {
        let _ = Curve::power(2.0);
    }

    #[test]
    fn rates_agree_across_equivalent_variants() {
        for x in [0.0, 0.5, 1.0, 2.0, 10.0, 64.0] {
            assert!(approx_eq(
                Curve::FullyParallel.rate(x),
                Curve::power(1.0).rate(x)
            ));
            assert!(approx_eq(
                Curve::Sequential.rate(x),
                Curve::power(0.0).rate(x)
            ));
        }
    }

    #[test]
    fn marginal_is_positive_and_decreasing_for_power() {
        let c = Curve::power(0.5);
        let mut prev = f64::INFINITY;
        for k in 0..20 {
            let m = c.marginal(k);
            assert!(m > 0.0);
            assert!(m <= prev + 1e-12, "marginal not decreasing at k={k}");
            prev = m;
        }
    }

    #[test]
    fn inverse_rate_round_trips() {
        let cases = [
            Curve::FullyParallel,
            Curve::power(0.5),
            Curve::power(0.9),
            Curve::try_amdahl(0.25).unwrap(),
            Curve::Piecewise(
                PiecewiseLinear::new(vec![(0.0, 0.0), (2.0, 2.0), (8.0, 5.0)]).unwrap(),
            ),
        ];
        for c in &cases {
            for r in [0.25, 1.0, 1.5, 2.5] {
                if let Some(x) = c.inverse_rate(r) {
                    assert!(approx_eq(c.rate(x), r), "{c:?} at r={r}: x={x}");
                }
            }
        }
    }

    #[test]
    fn inverse_rate_detects_saturation() {
        assert_eq!(Curve::Sequential.inverse_rate(1.5), None);
        assert_eq!(Curve::power(0.0).inverse_rate(2.0), None);
        // Amdahl with s = 0.5 saturates at rate 2.
        let c = Curve::try_amdahl(0.5).unwrap();
        assert_eq!(c.inverse_rate(2.0), None);
        assert!(c.inverse_rate(1.9).is_some());
        // Flat piecewise tail.
        let flat = Curve::Piecewise(PiecewiseLinear::saturating(2.0).unwrap());
        assert_eq!(flat.inverse_rate(3.0), None);
    }

    #[test]
    fn time_to_finish_handles_zero_rate() {
        assert_eq!(Curve::power(0.5).time_to_finish(4.0, 0.0), f64::INFINITY);
        assert!(approx_eq(Curve::power(0.5).time_to_finish(4.0, 4.0), 2.0));
    }

    #[test]
    fn gamma_never_exceeds_allocation() {
        // Γ(x) ≤ x for all variants: the fact that lets the paper bound
        // aggregate processing rate by m (used by the SRPT-fluid OPT bound).
        let curves = [
            Curve::FullyParallel,
            Curve::Sequential,
            Curve::power(0.3),
            Curve::power(0.99),
            Curve::try_amdahl(0.1).unwrap(),
        ];
        for c in &curves {
            for i in 0..200 {
                let x = f64::from(i) * 0.25;
                assert!(c.rate(x) <= x + 1e-12, "{c:?} violates Γ(x) ≤ x at {x}");
            }
        }
    }

    #[test]
    fn validate_accepts_all_well_formed_variants() {
        let curves = vec![
            Curve::FullyParallel,
            Curve::Sequential,
            Curve::power(0.42),
            Curve::try_amdahl(0.05).unwrap(),
            Curve::Piecewise(PiecewiseLinear::saturating(3.0).unwrap()),
        ];
        for c in curves {
            assert!(c.validate().is_ok(), "{c:?}");
        }
        // A hand-built (deserialized-like) bad variant is caught.
        assert!(Curve::Power { alpha: 7.0 }.validate().is_err());
        assert!(Curve::Amdahl {
            serial_fraction: -1.0
        }
        .validate()
        .is_err());
    }

    proptest::proptest! {
        #[test]
        fn power_rate_monotone_and_concave(alpha in 0.0f64..=1.0, a in 0.0f64..64.0, b in 0.0f64..64.0) {
            let c = Curve::Power { alpha };
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            // Monotone.
            proptest::prop_assert!(c.rate(lo) <= c.rate(hi) + 1e-9);
            // Midpoint concavity.
            let mid = c.rate((lo + hi) / 2.0);
            let chord = (c.rate(lo) + c.rate(hi)) / 2.0;
            proptest::prop_assert!(mid + 1e-9 >= chord);
        }

        #[test]
        fn proposition_1_ratio_bound(alpha in 0.0f64..=1.0, c_small in 0.01f64..32.0, scale in 1.0f64..8.0) {
            // Paper Proposition 1: for B ≥ C > 0, Γ(B)/Γ(C) ≤ B/C
            // (concavity + Γ(0) = 0).
            let b = c_small * scale;
            let curve = Curve::Power { alpha };
            let lhs = curve.rate(b) / curve.rate(c_small);
            let rhs = b / c_small;
            proptest::prop_assert!(lhs <= rhs + 1e-9);
        }
    }
}
