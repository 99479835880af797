//! [`PowKernel`]: a per-α compiled evaluator for the power-law curve.
//!
//! The engine evaluates `Γ(x) = x^α` on every event interval; routing those
//! evaluations through `f64::powf` pays the full generic `pow` cost (~50–100
//! cycles of argument reduction and polynomial evaluation per call) even
//! though a run touches only a handful of distinct exponents. A `PowKernel`
//! is classified **once per distinct α** and then dispatches each evaluation
//! to the cheapest correct implementation:
//!
//! * **exact endpoints** — `α = 0` (sequential) and `α = 1` (fully
//!   parallel) are branch-only;
//! * **sqrt chains** — `α ∈ {1/2, 1/4, 3/4}` reduce to 1–2 hardware square
//!   roots (`√x`, `√√x`, `√(x·√x)`), each correctly rounded by IEEE-754, so
//!   the chain stays within ~1.5 ulp of the exact power;
//! * **table + exp** — general `α ∈ (0, 1)` computes `exp(α·ln x)` with
//!   `ln x` carried in double-double precision (a 65-entry `ln(1 + k/64)`
//!   table plus a short `ln(1+q)` polynomial), which keeps the naive
//!   `exp(α·ln x)` scheme's `α·|ln x|`-ulp error amplification out of the
//!   result: total error stays within ~1.5 ulp of exact, i.e. ≤ 2 ulp of
//!   `powf` (property-tested in this module).
//!
//! The kernel also caches `1/α` so [`PowKernel::invert`] (the curve's
//! inverse rate, `r^{1/α}`) never divides in a loop.
//!
//! See `docs/PERF.md` §6 for the measured cost model.

use crate::curve::Curve;
use crate::float::exact_eq;

/// Which evaluation strategy a given α compiles to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `α = 0`: `x^0 = 1` (sequential above the knee).
    Zero,
    /// `α = 1`: identity (fully parallel).
    One,
    /// `α = 1/2`: one hardware sqrt.
    Half,
    /// `α = 1/4`: two hardware sqrts.
    Quarter,
    /// `α = 3/4`: `√(x·√x)`.
    ThreeQuarters,
    /// General `α`: double-double `ln` table + `exp`.
    General,
}

/// A compiled evaluator for `x^α`, constructed once per distinct exponent.
///
/// `Copy` and 24 bytes, so callers cache it freely (the engine keeps one
/// per job record; `SrptSet` keeps one for its reference curve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowKernel {
    alpha: f64,
    /// Cached `1/α` (`+∞` for α = 0); used by [`PowKernel::invert`].
    inv_alpha: f64,
    kind: Kind,
}

// ---------------------------------------------------------------------------
// Double-double helpers (no FMA requirement: Dekker splitting).
// ---------------------------------------------------------------------------

/// Error-free sum: returns `(s, e)` with `s = fl(a + b)` and `a + b = s + e`
/// exactly (Knuth's TwoSum, branch-free).
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let err = (a - (s - bb)) + (b - bb);
    (s, err)
}

/// Dekker split of `a` into a 26-bit head and tail (`a = hi + lo` exactly).
#[inline]
fn split(a: f64) -> (f64, f64) {
    let c = 134_217_729.0 * a; // 2^27 + 1
    let hi = c - (c - a);
    (hi, a - hi)
}

/// Error-free product: `(p, e)` with `p = fl(a·b)` and `a·b = p + e`
/// exactly (Dekker's TwoProduct; inputs here are far from overflow).
#[inline]
fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let (ah, al) = split(a);
    let (bh, bl) = split(b);
    let err = ((ah * bh - p) + ah * bl + al * bh) + al * bl;
    (p, err)
}

/// `ln 2` split so that `e · LN2_HI` is exact for every biased exponent
/// (low 16 bits of the significand zeroed; `|e| ≤ 1074 < 2^16`).
const LN2_HI: f64 = 0.693_147_180_558_298_7;
const LN2_LO: f64 = 1.646_594_958_289_708_2e-12;

/// `ln(1 + k/64)` as double-double `(hi, lo)`, `k = 0..=64`, generated from
/// 60-digit decimal arithmetic; `hi` is the nearest f64, `lo` the residual.
#[allow(clippy::excessive_precision)]
const LN_TBL: [(f64, f64); 65] = [
    (0.0, 0.0),
    (0.015504186535965254, -3.278321022892429e-19),
    (0.030771658666753687, 1.0431732029005968e-18),
    (0.0458095360312942, 1.902959866474257e-18),
    (0.06062462181643484, 2.6424025938726934e-18),
    (0.07522342123758753, -5.930604196293241e-18),
    (0.08961215868968714, -5.4268129336647135e-18),
    (0.10379679368164356, 5.47772415726659e-18),
    (0.11778303565638346, -1.1971685747593677e-18),
    (0.13157635778871926, 1.1123000879729588e-17),
    (0.1451820098444979, 8.242418783022475e-18),
    (0.15860503017663857, 1.1257003872182592e-17),
    (0.17185025692665923, -6.0224538210113705e-18),
    (0.184922338494012, 3.0236614153574064e-18),
    (0.19782574332991987, 1.2821194372980142e-17),
    (0.21056476910734964, -4.249405314729895e-18),
    (0.22314355131420976, -9.091270597324799e-18),
    (0.2355660713127669, -2.3943371495187355e-18),
    (0.24783616390458127, -1.2432209578702523e-17),
    (0.25995752443692605, 2.069806938978935e-17),
    (0.27193371548364176, 7.83319637697442e-19),
    (0.2837681731306446, -2.032665581126656e-17),
    (0.2954642128938359, -2.16461086040599e-17),
    (0.3070250352949119, -1.2319916200101964e-17),
    (0.3184537311185346, 2.7114779367326236e-17),
    (0.329753286372468, 2.122020616196946e-18),
    (0.3409265869705932, 1.7467136443544747e-17),
    (0.3519764231571782, -1.2953893030191963e-17),
    (0.3629054936893685, -2.1492361455310972e-17),
    (0.37371640979358406, 2.1836211281198184e-17),
    (0.38441169891033206, -1.612149700764673e-17),
    (0.394993808240869, -1.5113724418336168e-17),
    (0.4054651081081644, -2.8811380259626426e-18),
    (0.415827895143711, -2.48753990369597e-17),
    (0.4260843953109001, -2.499176776547466e-17),
    (0.43623676677491807, -1.8379648230620457e-18),
    (0.44628710262841953, -1.8182541194649598e-17),
    (0.4562374334815876, 2.122222784062318e-17),
    (0.46608972992459924, -1.4116523239904406e-17),
    (0.4758459048699639, -6.181952722542219e-18),
    (0.4855078157817008, -1.6618350693852048e-17),
    (0.4950772667978515, -8.307950959627356e-18),
    (0.5045560107523953, -2.4888518873597905e-17),
    (0.5139457511022343, 3.397548559332142e-17),
    (0.5232481437645479, -3.1833882216350925e-17),
    (0.5324647988694718, -9.149239241180804e-19),
    (0.5415972824327444, -3.748764246125639e-17),
    (0.5506471179526623, -2.239429485856908e-17),
    (0.5596157879354227, 2.685492580212308e-17),
    (0.5685047353526688, -5.4267346029482773e-17),
    (0.5773153650348236, -8.903591846974013e-18),
    (0.5860490450035782, -3.058363205263577e-17),
    (0.5947071077466928, 1.3751689964323675e-17),
    (0.6032908514380843, 9.9400563470175e-18),
    (0.6118015411059929, -3.7397759448726e-17),
    (0.6202404097518576, -3.989161064307651e-17),
    (0.6286086594223741, 4.3538742607970387e-17),
    (0.6369074622370692, 5.422955873465247e-17),
    (0.6451379613735847, 9.346960920120906e-19),
    (0.6533012720127457, -4.306892322029408e-17),
    (0.661398482245365, -7.603333785634003e-18),
    (0.6694306539426292, 2.823733943928343e-17),
    (0.6773988235918061, -2.0978183882652005e-18),
    (0.6853040030989194, 4.893484946270261e-17),
    (std::f64::consts::LN_2, 2.3190468138462996e-17),
];

/// Smallest positive normal f64; below it the general path defers to
/// `powf` rather than special-case subnormal frexp.
const MIN_NORMAL: f64 = 2.2250738585072014e-308;
/// Upper guard for the fast general path (keeps `exp` far from overflow
/// edge cases; the model domain is allocations `x ≤ m`, so this is never
/// hit in the engine).
const MAX_FAST: f64 = 1.0e300;

impl PowKernel {
    /// Compiles a kernel for exponent `α`.
    ///
    /// The model domain is `α ∈ [0, 1]` (checked in debug builds, like
    /// [`crate::power_rate`]); classification is exact bit comparison, so
    /// only literal `0.25`/`0.5`/`0.75` take the sqrt chains.
    #[inline]
    pub fn new(alpha: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&alpha), "alpha out of range: {alpha}");
        let kind = if exact_eq(alpha, 0.0) {
            Kind::Zero
        } else if exact_eq(alpha, 1.0) {
            Kind::One
        } else if exact_eq(alpha, 0.5) {
            Kind::Half
        } else if exact_eq(alpha, 0.25) {
            Kind::Quarter
        } else if exact_eq(alpha, 0.75) {
            Kind::ThreeQuarters
        } else {
            Kind::General
        };
        PowKernel {
            alpha,
            inv_alpha: 1.0 / alpha, // +∞ for α = 0, by design
            kind,
        }
    }

    /// The kernel for a power-family [`Curve`] (`FullyParallel` ≡ α = 1,
    /// `Sequential` ≡ α = 0), or `None` for shapes outside the power family
    /// (Amdahl, piecewise), which keep their own evaluators.
    #[inline]
    pub fn for_curve(curve: &Curve) -> Option<Self> {
        curve.alpha().map(Self::new)
    }

    /// The exponent this kernel was compiled for.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Cached `1/α` (`+∞` when α = 0).
    #[inline]
    pub fn inv_alpha(&self) -> f64 {
        self.inv_alpha
    }

    /// Raw power `x^α` for `x > 0`.
    ///
    /// Within 2 ulp of `x.powf(α)` across the engine's domain (property
    /// tested for `x ∈ [1, 2^40]`); `α = 1/2` is bit-exact with the
    /// correctly rounded square root. Non-finite, non-positive, and
    /// subnormal inputs defer to `powf` (identical semantics, cold path).
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        match self.kind {
            Kind::Zero => {
                if x.is_nan() {
                    x.powf(self.alpha)
                } else {
                    1.0
                }
            }
            Kind::One => x,
            Kind::Half => x.sqrt(),
            Kind::Quarter => x.sqrt().sqrt(),
            Kind::ThreeQuarters => (x * x.sqrt()).sqrt(),
            Kind::General => self.eval_general(x),
        }
    }

    /// The speed-up curve `Γ(x)`: linear below one processor, `x^α` above
    /// (the SPAA'14 power law — same contract as [`crate::power_rate`]).
    #[inline]
    pub fn gamma(&self, x: f64) -> f64 {
        debug_assert!(x >= 0.0, "negative processor allocation: {x}");
        if x <= 1.0 {
            x
        } else {
            self.eval(x)
        }
    }

    /// Inverse of [`PowKernel::eval`]: the allocation whose rate is `r`,
    /// i.e. `r^{1/α}`, using the cached reciprocal exponent. For α = 0 the
    /// power is not invertible and the result is `+∞` for `r > 1` (callers
    /// in [`Curve::inverse_rate`] report saturation before reaching here).
    #[inline]
    pub fn invert(&self, r: f64) -> f64 {
        debug_assert!(r >= 0.0, "negative rate: {r}");
        match self.kind {
            Kind::Zero => {
                // r^∞: 0, 1, or ∞ depending on r vs 1 — powf gets it right.
                r.powf(self.inv_alpha)
            }
            Kind::One => r,
            Kind::Half => r * r,
            Kind::Quarter => {
                let s = r * r;
                s * s
            }
            // r^{4/3} = r · ∛r (cbrt is a hardware/libm primitive).
            Kind::ThreeQuarters => r * r.cbrt(),
            Kind::General => r.powf(self.inv_alpha),
        }
    }

    /// Batched [`PowKernel::eval`]: `out[i] = self.eval(xs[i])`.
    ///
    /// Bit-identical to `N` scalar calls — each per-kind loop body *is* the
    /// scalar body — but the kind dispatch is hoisted out of the loop, so
    /// the sqrt-chain and endpoint kinds compile to straight-line slice
    /// loops the autovectorizer can widen (the general DD ln-table path
    /// stays scalar per element; its table gather defeats vectorization,
    /// and bit-identity matters more than width there).
    ///
    /// # Panics
    /// If `xs` and `out` differ in length.
    pub fn eval_batch(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "eval_batch slice length mismatch");
        match self.kind {
            Kind::Zero => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    *o = if x.is_nan() { x.powf(self.alpha) } else { 1.0 };
                }
            }
            Kind::One => out.copy_from_slice(xs),
            Kind::Half => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    *o = x.sqrt();
                }
            }
            Kind::Quarter => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    *o = x.sqrt().sqrt();
                }
            }
            Kind::ThreeQuarters => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    *o = (x * x.sqrt()).sqrt();
                }
            }
            Kind::General => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    *o = self.eval_general(x);
                }
            }
        }
    }

    /// Batched [`PowKernel::gamma`]: `out[i] = self.gamma(xs[i])`,
    /// bit-identical to `N` scalar calls (see [`PowKernel::eval_batch`] for
    /// the vectorization contract). The knee test `x ≤ 1` stays inside the
    /// per-element loop — it is a branchless select in the vectorized
    /// kinds — so mixed below/above-knee batches are handled exactly.
    ///
    /// # Panics
    /// If `xs` and `out` differ in length.
    pub fn gamma_batch(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "gamma_batch slice length mismatch");
        match self.kind {
            // x ≤ 1 ⇒ x, else 1 (NaN defers to powf like the scalar path).
            Kind::Zero => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    debug_assert!(x >= 0.0, "negative processor allocation: {x}");
                    *o = if x <= 1.0 {
                        x
                    } else if x.is_nan() {
                        x.powf(self.alpha)
                    } else {
                        1.0
                    };
                }
            }
            Kind::One => out.copy_from_slice(xs),
            Kind::Half => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    debug_assert!(x >= 0.0, "negative processor allocation: {x}");
                    *o = if x <= 1.0 { x } else { x.sqrt() };
                }
            }
            Kind::Quarter => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    debug_assert!(x >= 0.0, "negative processor allocation: {x}");
                    *o = if x <= 1.0 { x } else { x.sqrt().sqrt() };
                }
            }
            Kind::ThreeQuarters => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    debug_assert!(x >= 0.0, "negative processor allocation: {x}");
                    *o = if x <= 1.0 { x } else { (x * x.sqrt()).sqrt() };
                }
            }
            Kind::General => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    debug_assert!(x >= 0.0, "negative processor allocation: {x}");
                    *o = if x <= 1.0 { x } else { self.eval_general(x) };
                }
            }
        }
    }

    /// General-α path: `exp(α · ln x)` with `ln x` in double-double.
    ///
    /// Argument reduction: `x = 2^e · m`, `m ∈ [1, 2)`; nearest table node
    /// `c = 1 + k/64`; `q = (m − c)/c` with `|q| ≤ 2⁻⁷` and `m − c` exact
    /// by Sterbenz. Then
    /// `ln x = e·ln2 + ln c + (q + [ln(1+q) − q])`, the bracket from a
    /// degree-7 polynomial (remainder ≤ 2⁻⁵⁹), all accumulated with
    /// error-free transforms, and finally `x^α = exp(y_hi)·(1 + y_lo)`
    /// where `(y_hi, y_lo) = α ⊗ ln x`. Total error ~1.5 ulp of exact.
    fn eval_general(&self, x: f64) -> f64 {
        if !(MIN_NORMAL..MAX_FAST).contains(&x) {
            return x.powf(self.alpha); // subnormal/zero/inf/nan/huge: cold
        }
        let bits = x.to_bits();
        // exponent field of a finite normal f64 is 11 bits; the subtraction cannot wrap
        let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
        // Nearest 1 + k/64: (m−1)·64 is exact (Sterbenz + power-of-two
        // scale), +0.5 then truncate = round-to-nearest, k ∈ 0..=64.
        // value is in [0.5, 64.5) by construction, truncation is the intended rounding
        let k = ((m - 1.0) * 64.0 + 0.5) as usize;
        let c = (64 + k) as f64 / 64.0; // exact: small integer / 2^6
        let q = (m - c) / c; // numerator exact; |q| ≤ 2⁻⁷
        let q2 = q * q;
        // ln(1+q) − q, |remainder| ≤ |q|⁸/8 ≤ 2⁻⁵⁹.
        let w = q2
            * (-0.5
                + q * (1.0 / 3.0 + q * (-0.25 + q * (0.2 + q * (-1.0 / 6.0 + q * (1.0 / 7.0))))));
        let ef = e as f64;
        // lint:allow(L007) k comes from the 6-bit significand reduction above; always < the 65-entry table
        let (th, t_err) = two_sum(ef * LN2_HI, LN_TBL[k].0);
        // lint:allow(L007) k comes from the 6-bit significand reduction above; always < the 65-entry table
        let lo0 = t_err + ef * LN2_LO + LN_TBL[k].1;
        let (lh, l_err) = two_sum(th, q);
        let lo = lo0 + l_err + w;
        // y = α · (lh + lo), renormalized.
        let (ph, p_err) = two_prod(self.alpha, lh);
        let (yh, yl) = two_sum(ph, p_err + self.alpha * lo);
        yh.exp() * (1.0 + yl)
    }
}

/// Grouped-by-class Γ driver: evaluates `Γ(share)` **once per distinct
/// kernel** — `out[c] = kernels[c].gamma(share)` — instead of once per job.
///
/// This is the engine's mixed-α `Scan`-interval contract: within one
/// constant-allocation interval every running job receives the same
/// `share`, so a job's drain rate depends only on its kernel class, and a
/// prefix of `k` jobs over `C` distinct exponents needs `C` Γ evaluations,
/// not `k`. Results are bit-identical to per-job scalar [`PowKernel::gamma`]
/// calls because `gamma` is a pure function of `(α, share)`.
///
/// `out` is cleared and refilled (capacity retained), so a caller-owned
/// buffer keeps this allocation-free at steady state.
pub fn gamma_by_class(kernels: &[PowKernel], share: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend(kernels.iter().map(|k| k.gamma(share)));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Units in the last place between two finite same-sign f64s.
    fn ulp_diff(a: f64, b: f64) -> u64 {
        assert!(
            a.is_finite() && b.is_finite() && a > 0.0 && b > 0.0,
            "{a} vs {b}"
        );
        // positive finite doubles have monotone bit patterns; the difference fits i64
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    #[test]
    fn classification_picks_fast_paths() {
        for (alpha, want_sqrt_free) in [(0.0, true), (1.0, true)] {
            let k = PowKernel::new(alpha);
            assert_eq!(
                k.eval(7.0),
                if want_sqrt_free && alpha == 0.0 {
                    1.0
                } else {
                    7.0
                }
            );
        }
        assert_eq!(PowKernel::new(0.5).eval(9.0), 3.0);
        assert_eq!(PowKernel::new(0.25).eval(16.0), 2.0);
        assert_eq!(PowKernel::new(0.75).eval(16.0), 8.0);
    }

    #[test]
    fn sqrt_chain_alpha_half_is_bit_exact_with_sqrt() {
        let k = PowKernel::new(0.5);
        for i in 1..=4096u32 {
            let x = 1.0 + f64::from(i) * 0.37;
            assert_eq!(k.eval(x).to_bits(), x.sqrt().to_bits());
        }
    }

    #[test]
    fn knee_is_exact_for_every_alpha() {
        for alpha in [0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.6180339887, 0.75, 0.9, 1.0] {
            let k = PowKernel::new(alpha);
            assert_eq!(k.eval(1.0), 1.0, "α = {alpha}");
            assert_eq!(k.gamma(1.0), 1.0, "α = {alpha}");
            // Just above the knee stays within 2 ulp of powf.
            let x = 1.0 + f64::EPSILON;
            assert!(
                ulp_diff(
                    k.eval(x).max(f64::MIN_POSITIVE),
                    x.powf(alpha).max(f64::MIN_POSITIVE)
                ) <= 2
            );
        }
    }

    #[test]
    fn gamma_matches_power_rate_contract() {
        for alpha in [0.0, 0.2, 0.25, 0.5, 0.75, 0.77, 1.0] {
            let k = PowKernel::new(alpha);
            for x in [0.0, 0.25, 0.5, 1.0] {
                assert_eq!(k.gamma(x), x, "linear below the knee, α = {alpha}");
            }
        }
    }

    #[test]
    fn general_path_within_2_ulp_on_dense_grid() {
        // Deterministic sweep: log-spaced x across [1, 2^40], awkward
        // exponents that exercise the table path.
        for alpha in [
            0.1,
            1.0 / 3.0,
            0.37,
            0.49999999,
            0.6,
            2.0 / 3.0,
            0.85,
            0.999,
        ] {
            let k = PowKernel::new(alpha);
            let mut worst = 0u64;
            let mut x = 1.0f64;
            while x < 1.1e12 {
                for dx in [0.0, 1e-9, 0.003, 0.4999] {
                    let v = x * (1.0 + dx);
                    let d = ulp_diff(k.eval(v), v.powf(alpha));
                    worst = worst.max(d);
                }
                x *= 1.37;
            }
            assert!(worst <= 2, "α = {alpha}: worst ulp diff {worst}");
        }
    }

    #[test]
    fn denormal_adjacent_and_extreme_inputs_defer_to_powf() {
        let k = PowKernel::new(0.37);
        for x in [
            0.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::MAX,
            f64::INFINITY,
        ] {
            assert_eq!(k.eval(x).to_bits(), x.powf(0.37).to_bits(), "x = {x}");
        }
        // The smallest *normal* takes the fast path and keeps the 2-ulp bound.
        let x = f64::MIN_POSITIVE;
        assert!(ulp_diff(k.eval(x), x.powf(0.37)) <= 2);
        assert!(k.eval(f64::NAN).is_nan());
    }

    #[test]
    fn invert_round_trips_through_eval() {
        for alpha in [0.2, 0.25, 1.0 / 3.0, 0.5, 0.75, 0.9] {
            let k = PowKernel::new(alpha);
            for r in [1.0, 1.5, 2.0, 7.3, 100.0] {
                let x = k.invert(r);
                let back = k.eval(x);
                assert!(
                    (back - r).abs() <= 1e-12 * r,
                    "α = {alpha}, r = {r}: invert → {x}, eval → {back}"
                );
            }
        }
        // α = 1 and α = 0 endpoints.
        assert_eq!(PowKernel::new(1.0).invert(3.5), 3.5);
        assert_eq!(PowKernel::new(0.0).invert(2.0), f64::INFINITY);
    }

    #[test]
    fn for_curve_covers_the_power_family_only() {
        assert_eq!(
            PowKernel::for_curve(&Curve::FullyParallel).unwrap().alpha(),
            1.0
        );
        assert_eq!(
            PowKernel::for_curve(&Curve::Sequential).unwrap().alpha(),
            0.0
        );
        assert_eq!(
            PowKernel::for_curve(&Curve::power(0.3)).unwrap().alpha(),
            0.3
        );
        assert!(PowKernel::for_curve(&Curve::try_amdahl(0.25).unwrap()).is_none());
    }

    /// Every kernel class the classifier can produce: the two exact
    /// endpoints, all three sqrt chains, and the general table path.
    fn all_class_kernels() -> Vec<PowKernel> {
        [0.0, 0.25, 0.5, 0.75, 1.0, 0.37, 1.0 / 3.0, 0.999]
            .iter()
            .map(|&a| PowKernel::new(a))
            .collect()
    }

    #[test]
    fn batch_apis_handle_empty_singleton_odd_and_large_lengths() {
        for k in all_class_kernels() {
            for n in [0usize, 1, 7, 1023] {
                let xs: Vec<f64> = (0..n)
                    .map(|i| 0.5 + (i as f64) * (1.5 + i as f64 * 0.37))
                    .collect();
                let mut got = vec![f64::NAN; n];
                k.eval_batch(&xs, &mut got);
                for (&x, &g) in xs.iter().zip(&got) {
                    assert_eq!(g.to_bits(), k.eval(x).to_bits(), "eval α={}", k.alpha());
                }
                k.gamma_batch(&xs, &mut got);
                for (&x, &g) in xs.iter().zip(&got) {
                    assert_eq!(g.to_bits(), k.gamma(x).to_bits(), "gamma α={}", k.alpha());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn batch_apis_reject_mismatched_lengths() {
        let mut out = [0.0; 2];
        PowKernel::new(0.5).gamma_batch(&[1.0, 2.0, 3.0], &mut out);
    }

    #[test]
    fn gamma_by_class_matches_per_job_scalar() {
        let kernels = all_class_kernels();
        let mut out = Vec::new();
        for share in [0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 2.5, 8.0, 1e6] {
            gamma_by_class(&kernels, share, &mut out);
            assert_eq!(out.len(), kernels.len());
            for (k, &g) in kernels.iter().zip(&out) {
                assert_eq!(g.to_bits(), k.gamma(share).to_bits(), "α={}", k.alpha());
            }
        }
        // Capacity is reused, not reallocated, across refills.
        let cap = out.capacity();
        gamma_by_class(&kernels, 3.0, &mut out);
        assert_eq!(out.capacity(), cap);
    }

    proptest::proptest! {
        #[test]
        fn gamma_batch_bit_identical_to_scalar_general_alpha(
            alpha in 0.000001f64..0.999999,
            mant in 1.0f64..2.0,
            exp in 0u32..40,
            len in 0usize..33,
        ) {
            // Log-uniform base point x ∈ [1, 2^40); the batch fans out a
            // deterministic spread around it (and dips below the knee) so
            // one case covers many magnitudes at once.
            let x = mant * f64::from(2u32).powi(
                i32::try_from(exp).expect("exp < 40 fits i32"));
            let xs: Vec<f64> = (0..len)
                .map(|i| {
                    let t = i as f64 / 8.0;
                    if i % 4 == 3 { t.min(1.0) * 0.9 } else { x * (1.0 + t) }
                })
                .collect();
            let k = PowKernel::new(alpha);
            let mut out = vec![0.0; xs.len()];
            k.gamma_batch(&xs, &mut out);
            for (&xi, &g) in xs.iter().zip(&out) {
                proptest::prop_assert_eq!(g.to_bits(), k.gamma(xi).to_bits());
            }
            k.eval_batch(&xs, &mut out);
            for (&xi, &g) in xs.iter().zip(&out) {
                proptest::prop_assert_eq!(g.to_bits(), k.eval(xi).to_bits());
            }
        }

        #[test]
        fn gamma_batch_bit_identical_on_classified_kernels(
            class in 0usize..5,
            mant in 1.0f64..2.0,
            exp in 0u32..40,
        ) {
            // The endpoint and sqrt-chain classes.
            let k = match class {
                0 => PowKernel::new(0.0),
                1 => PowKernel::new(1.0),
                2 => PowKernel::new(0.5),
                3 => PowKernel::new(0.25),
                _ => PowKernel::new(0.75),
            };
            let x = mant * f64::from(2u32).powi(
                i32::try_from(exp).expect("exp < 40 fits i32"));
            let xs = [0.0, 0.5, 1.0, x, x * 1.0000001, x * 2.0];
            let mut out = [0.0; 6];
            k.gamma_batch(&xs, &mut out);
            for (&xi, &g) in xs.iter().zip(&out) {
                proptest::prop_assert_eq!(g.to_bits(), k.gamma(xi).to_bits());
            }
        }

        #[test]
        fn eval_matches_powf_within_2_ulp(
            alpha in 0.000001f64..0.999999,
            mant in 1.0f64..2.0,
            exp in 0u32..40,
        ) {
            // Log-uniform x ∈ [1, 2^40): uniform mantissa × uniform binade.
            let x = mant * f64::from(2u32).powi(
                i32::try_from(exp).expect("exp < 40 fits i32"));
            let k = PowKernel::new(alpha);
            let d = ulp_diff(k.eval(x), x.powf(alpha));
            proptest::prop_assert!(d <= 2, "α = {}, x = {}: {} ulp", alpha, x, d);
        }

        #[test]
        fn eval_invert_round_trips(alpha in 0.05f64..1.0, r in 1.0f64..1e6) {
            let k = PowKernel::new(alpha);
            let x = k.invert(r);
            let back = k.eval(x);
            proptest::prop_assert!(
                (back - r).abs() <= 1e-11 * r,
                "α = {}, r = {}: x = {}, back = {}", alpha, r, x, back
            );
        }

        #[test]
        fn gamma_continuous_at_knee(alpha in 0.0f64..=1.0) {
            let k = PowKernel::new(alpha);
            let below = k.gamma(1.0 - 1e-12);
            let above = k.gamma(1.0 + 1e-12);
            proptest::prop_assert!((below - above).abs() < 1e-9);
        }
    }
}
