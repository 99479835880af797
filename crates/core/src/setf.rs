//! SETF: Shortest Elapsed Time First.

use parsched_sim::{AliveJob, AllocationStability, CurveCount, Policy, Time, ELAPSED_TIE_TOL};
use parsched_speedup::{Curve, PowKernel};

/// Relative tolerance for "tied" elapsed work (floats from prior merges):
/// the tie rule of the engine's level path, so both paths group alike.
const TIE_TOL: f64 = ELAPSED_TIE_TOL;

/// Bisection steps of the common-rate search on `[0, ρ_max]`. The search
/// also stops at the first fixed point of `(lo, hi)`, after which further
/// steps could not change the result.
const BISECTION_STEPS: u32 = 64;

/// Bit pattern of `+∞`: the top of the ordered range of non-negative
/// floats that [`sum_threshold`] searches.
const INF_BITS: u64 = 0x7ff0_0000_0000_0000;

/// **SETF** — serve the jobs that have received the *least processing so
/// far* (elapsed work `p_j − p_j(t)`).
///
/// The classic non-clairvoyant policy (a continuous multi-level feedback
/// queue), included because the speed-up-curve literature the paper builds
/// on (Edmonds; Edmonds–Pruhs) uses it as the canonical foil to EQUI/LAPS.
///
/// # Generalization to heterogeneous speed-up curves
///
/// SETF's defining invariant is that the least-processed jobs are served
/// so that they *stay tied*: on a single machine the tied group time-shares
/// and every member's elapsed work grows at the same rate. With speed-up
/// curves, equal *shares* would break the invariant instantly (different
/// `Γ_j` ⇒ different elapsed growth ⇒ the ordering churns at rate ∞ — a
/// Zeno simulation). The faithful generalization served here gives the
/// tied group **rate-equalizing shares**: find the common rate `ρ` with
/// `Σ_j Γ_j⁻¹(ρ) = m` (bisection; capped at the group's saturation rate,
/// idling leftover processors exactly like SETF on sequential jobs would)
/// and allocate `x_j = Γ_j⁻¹(ρ)`.
///
/// With that choice the group's membership and `ρ` are constant between
/// events, so the policy requests one exact re-decision when the group's
/// elapsed work catches up to the next-least-processed job — the
/// simulation is event-exact, like the SRPT family.
///
/// # Evaluating the bisection
///
/// The bisection's result is defined by its predicate `demand(mid) ≤ m`,
/// where `demand` is the left-fold `.sum()` of the members' inverses in
/// group order. When the whole group shares one curve (always in a
/// single-α fleet tenant, usually in adversary instances), `demand(ρ) =
/// S_G(Γ⁻¹(ρ))` with `S_G(x)` the sum of `G` copies of `x`. IEEE addition
/// is monotone in each operand, so `S_G` is monotone and the predicate is
/// exactly `Γ⁻¹(mid) ≤ x*` for `x*` the largest float with `S_G(x*) ≤ m`.
/// `sum_threshold` finds `x*` once with `O(log G)` sums, and the
/// bisection replays the same midpoints at one inverse each — the same `ρ`
/// to the last bit. That answer is a pure function of `(curve, G, m)`, so
/// it is memoized by group size for the few most recently used curves
/// and `m`, across runs of one policy value (piecewise curves bypass the
/// memo). Mixed groups evaluate the demand sum at each step, but each
/// *distinct* curve of the group is inverted once per step
/// (equal curves give equal bits) with its kernel compiled once per
/// decision, and the members' inverses are summed in group order, the
/// fold stopped as soon as a partial sum exceeds `m`: the inverses are
/// non-negative (or `+∞`/NaN), so under round-to-nearest the partial sums
/// never decrease, a partial sum above `m` (or NaN) means the whole sum
/// is too, and the predicate — hence `ρ` — is unchanged. Both stop at the
/// first fixed point of the bisection. The 64-step reference
/// implementation is kept as a test oracle (`tests/setf_equalizer.rs`).
///
/// # The level path
///
/// SETF declares [`AllocationStability::LeastElapsed`], so by default the
/// engine runs it on its level path: the engine keeps the least-elapsed
/// levels itself and asks [`Policy::equalize_curves`] for the served
/// group's rate, given only its distinct curves and their member counts.
/// A one-curve group is answered from the same memo as above, bit for bit
/// what `assign` computes for it. A mixed group runs the same bisection
/// with the demand `Σ count_c · Γ_c⁻¹(ρ)` over the distinct curves, `O(distinct
/// curves)` per step; it differs from the member-order sum by rounding
/// only. `assign` and the exhaustive path it drives stay as they are,
/// and `EngineConfig::with_full_reassign` selects them as the oracle.
#[derive(Debug, Default, Clone)]
pub struct Setf {
    /// Positions in `jobs` of the tied least-elapsed group.
    group: Vec<usize>,
    /// One-curve answers of the recently used curves and `m`.
    memo: SharedMemo,
    /// The distinct curves of the current mixed group.
    curves: CurveTable,
}

/// The distinct curves of a mixed tie group, in order of first
/// appearance, and each member's index among them. Every vector is
/// retained scratch that grows to the largest mixed group.
#[derive(Debug, Default, Clone)]
struct CurveTable {
    /// Per distinct curve: the position in `jobs` of its first member and
    /// its compiled kernel.
    reps: Vec<(usize, Option<PowKernel>)>,
    /// Per member, in group order: its curve's index in `reps`.
    member: Vec<usize>,
    /// Per distinct curve: its inverse at the rate being evaluated.
    inverse: Vec<f64>,
}

impl CurveTable {
    /// Sets `inverse[c] = Γ_c⁻¹(rho)` for each distinct curve `c`, with
    /// `missing` standing in for a curve that saturates below `rho`;
    /// `curve_of` maps a representative index to its curve.
    fn invert<'c>(&mut self, curve_of: impl Fn(usize) -> &'c Curve, rho: f64, missing: f64) {
        for (&(j, kernel), x) in self.reps.iter().zip(self.inverse.iter_mut()) {
            *x = curve_of(j)
                .inverse_rate_with(kernel, rho)
                .unwrap_or(missing);
        }
    }

    /// Whether the members' demand at the tabulated inverses, summed in
    /// group order, is at most `m`; stops at the first partial sum above
    /// it.
    fn fits(&self, m: f64) -> bool {
        let mut demand = 0.0;
        self.member.iter().all(|&c| {
            self.inverse.get(c).is_some_and(|&x| {
                demand += x;
                demand <= m
            })
        })
    }
}

/// Fills `reps` with the distinct curves of `group` (first member and
/// compiled kernel, in order of first appearance), `member` with each
/// member's index among them, and `inverse` with one slot per distinct
/// curve. The search is linear in the distinct curves, which mixed tie
/// groups hold few of.
fn index_curves(
    jobs: &[AliveJob<'_>],
    group: &[usize],
    reps: &mut Vec<(usize, Option<PowKernel>)>,
    member: &mut Vec<usize>,
    inverse: &mut Vec<f64>,
) {
    reps.clear();
    member.clear();
    for &i in group {
        let curve = jobs[i].curve();
        let c = match reps
            .iter()
            .position(|&(j, _)| jobs[j].curve().same_bits(curve))
        {
            Some(c) => c,
            None => {
                reps.push((i, curve.kernel()));
                reps.len() - 1
            }
        };
        member.push(c);
    }
    inverse.clear();
    inverse.resize(reps.len(), 0.0);
}

/// Fills `reps` with one entry per element of `curves` (its index there
/// and its compiled kernel) and `inverse` with one slot each: the
/// count-weighted twin of [`index_curves`], for a group whose curves the
/// caller has already tallied.
fn index_counted(
    curves: &[CurveCount<'_>],
    reps: &mut Vec<(usize, Option<PowKernel>)>,
    inverse: &mut Vec<f64>,
) {
    reps.clear();
    reps.extend(
        curves
            .iter()
            .enumerate()
            .map(|(c, cc)| (c, cc.curve.kernel())),
    );
    inverse.clear();
    inverse.resize(curves.len(), 0.0);
}

impl Setf {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rate-equalizes all of `jobs` as one tie group on `m` processors:
    /// writes each job's share into `shares` and returns the common rate
    /// `ρ`. This is the computation [`Policy::assign`] runs on its
    /// least-elapsed group.
    pub fn equalize_all(&mut self, m: f64, jobs: &[AliveJob<'_>], shares: &mut [f64]) -> f64 {
        self.group.clear();
        self.group.extend(0..jobs.len());
        self.equalize(m, jobs, shares)
    }

    /// Rate-equalizes the group `self.group`: writes each member's share
    /// `min(Γ_j⁻¹(ρ), m)` into `shares` and returns `ρ`.
    fn equalize(&mut self, m: f64, jobs: &[AliveJob<'_>], shares: &mut [f64]) -> f64 {
        let Self {
            group,
            memo,
            curves,
        } = self;
        let Some(curve) = group.first().map(|&i| jobs[i].curve()) else {
            // The sum over no members is 0 ≤ m at any rate.
            return f64::INFINITY;
        };
        if group.iter().all(|&i| jobs[i].curve().same_bits(curve)) {
            let g = group.len();
            let (rho, share) = match CurveKey::of(curve) {
                Some(key) => memo.recall(key, g, m, || equalize_shared(curve, g, m)),
                None => equalize_shared(curve, g, m),
            };
            for &i in group.iter() {
                shares[i] = share;
            }
            return rho;
        }
        // A mixed group. Its achievable common rate is capped by each
        // member's saturation at full machine (the minimum over the
        // distinct curves: equal curves saturate at equal bits).
        index_curves(
            jobs,
            group,
            &mut curves.reps,
            &mut curves.member,
            &mut curves.inverse,
        );
        let rho_max = curves
            .reps
            .iter()
            .map(|&(j, _)| jobs[j].curve().rate(m))
            .fold(f64::INFINITY, f64::min);
        let mut fits = |rho: f64| {
            curves.invert(|j| jobs[j].curve(), rho, f64::INFINITY);
            curves.fits(m)
        };
        // If even the saturation rate under-uses the machine, run saturated
        // (the leftover processors cannot speed up the least-processed
        // jobs; SETF does not look ahead).
        let rho = if fits(rho_max) {
            rho_max
        } else {
            bisect(rho_max, fits)
        };
        curves.invert(|j| jobs[j].curve(), rho, m);
        for (&i, &c) in group.iter().zip(&curves.member) {
            if let Some(&x) = curves.inverse.get(c) {
                shares[i] = x.min(m);
            }
        }
        rho
    }
}

/// A curve as a `Copy` memo key: its variant and parameter bits.
/// Piecewise curves have none and bypass the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CurveKey {
    FullyParallel,
    Sequential,
    Power(u64),
    Amdahl(u64),
}

impl CurveKey {
    fn of(curve: &Curve) -> Option<Self> {
        match curve {
            Curve::FullyParallel => Some(Self::FullyParallel),
            Curve::Sequential => Some(Self::Sequential),
            Curve::Power { alpha } => Some(Self::Power(alpha.to_bits())),
            Curve::Amdahl { serial_fraction } => Some(Self::Amdahl(serial_fraction.to_bits())),
            Curve::Piecewise(_) => None,
        }
    }
}

/// How many `(curve, m)` tables [`SharedMemo`] keeps. A search's runs
/// and a run's mixed instance meet a few curves in turn; past this many,
/// the least recently used table is evicted.
const MEMO_TABLES: usize = 4;

/// A [`SharedMemo`] table's key: a curve and the bits of `m`.
type MemoKey = (CurveKey, u64);

/// A [`SharedMemo`] table: at `g`, the answer for a group of `g` members,
/// if computed (it grows to the largest one-curve group of its key).
type BySize = Vec<Option<(f64, f64)>>;

/// [`equalize_shared`]'s `(ρ, share)` by group size, one table per curve
/// and `m` (the bits of `m`, so the key is exact) for the
/// [`MEMO_TABLES`] most recently used pairs. Every entry is a pure
/// function of its key and size, so the memo outlives [`Policy::reset`]
/// and runs on other instances.
#[derive(Debug, Default, Clone)]
struct SharedMemo {
    /// The tables, most recently used first, unused ones (no key) last.
    tables: [(Option<MemoKey>, BySize); MEMO_TABLES],
}

impl SharedMemo {
    /// The answer for `g` members of `curve` on `m` processors, computed
    /// by `solve` on a miss.
    fn recall(
        &mut self,
        curve: CurveKey,
        g: usize,
        m: f64,
        solve: impl FnOnce() -> (f64, f64),
    ) -> (f64, f64) {
        let key = Some((curve, m.to_bits()));
        match self.tables.iter().position(|(k, _)| *k == key) {
            Some(i) => {
                if let Some(recent) = self.tables.get_mut(..=i) {
                    recent.rotate_right(1);
                }
            }
            None => {
                // The last table is unused or the least recently used:
                // it takes the new key, keeping its buffer.
                self.tables.rotate_right(1);
                let [(k, by_size), ..] = &mut self.tables;
                *k = key;
                by_size.clear();
            }
        }
        let [(_, by_size), ..] = &mut self.tables;
        if let Some(&Some(hit)) = by_size.get(g) {
            return hit;
        }
        let answer = solve();
        if g >= by_size.len() {
            // lint:allow(L007) `by_size` is a retained table: it grows to the largest one-curve tie group of its key, then reuses its capacity
            by_size.resize(g + 1, None);
        }
        if let Some(cell) = by_size.get_mut(g) {
            *cell = Some(answer);
        }
        answer
    }
}

/// `ρ` and the common share for a group of `g` members that all carry
/// `curve` (see the type docs for why this is the bisection's exact
/// result).
fn equalize_shared(curve: &Curve, g: usize, m: f64) -> (f64, f64) {
    let kernel = curve.kernel();
    let x_star = sum_threshold(g, m);
    let fits = |rho: f64| {
        curve
            .inverse_rate_with(kernel, rho)
            .is_some_and(|x| x <= x_star)
    };
    let rho_max = f64::INFINITY.min(curve.rate(m));
    let rho = if fits(rho_max) {
        rho_max
    } else {
        bisect(rho_max, fits)
    };
    let share = curve.inverse_rate_with(kernel, rho).unwrap_or(m).min(m);
    (rho, share)
}

/// The largest float `x*` with `S_g(x*) ≤ m`, where `S_g(x)` is the
/// left-fold `.sum()` of `g` copies of `x` — the demand of `g` members
/// that each need `x`.
///
/// `S_g` is monotone (IEEE addition is monotone in each operand), so
/// `S_g(x) ≤ m ⟺ x ≤ x*` for every non-NaN `x`. The search runs over the
/// bit patterns of non-negative floats, which order like their values:
/// exponential steps away from `m/g` (within about `g` ulps of `x*`),
/// then binary search, `O(log g)` sums in all, each evaluated by
/// [`repeated_sum`] in `O(log g)` additions. Returns `−∞` when not even
/// `x = 0` fits (`m < 0`).
fn sum_threshold(g: usize, m: f64) -> f64 {
    let fits = |bits: u64| repeated_sum(f64::from_bits(bits), g) <= m;
    let start = (m / g as f64).to_bits().min(INF_BITS);
    // Invariant once set: `fits(lo)` and `!fits(hi)`, where
    // `hi = INF_BITS + 1` stands for "past +∞".
    let (mut lo, mut hi);
    let mut step = 1u64;
    if fits(start) {
        lo = start;
        loop {
            let probe = lo.saturating_add(step);
            if probe > INF_BITS {
                hi = INF_BITS + 1;
                break;
            }
            if fits(probe) {
                lo = probe;
                step = step.saturating_mul(2);
            } else {
                hi = probe;
                break;
            }
        }
    } else {
        hi = start;
        loop {
            let probe = hi.saturating_sub(step);
            if fits(probe) {
                lo = probe;
                break;
            }
            if probe == 0 {
                return f64::NEG_INFINITY;
            }
            hi = probe;
            step = step.saturating_mul(2);
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    f64::from_bits(lo)
}

/// `S_g(x)`, the left-fold `.sum()` of `g` copies of `x ≥ 0` (or NaN),
/// bit for bit, in `O(log g)` additions instead of `g`.
///
/// Between two powers of two every partial sum is a multiple of the same
/// ulp `u`, and adding `x` rounds to that grid. Write `x = (q + f)·u`:
/// unless `f = ½`, every step adds the same `round(q + f)·u`. When `f = ½`
/// the step rounds to even, which leaves an even multiple of `u`, and from
/// an even multiple every later step adds the same (`q` or `q + 1`,
/// whichever is even). So once three consecutive partial sums share a
/// binade, the last step's increment repeats for as long as the exact sum
/// stays below the binade's top, and those steps are taken at once (their
/// count is underestimated by a margin, never over). Steps that cross
/// into the next binade are taken one addition at a time.
fn repeated_sum(x: f64, g: usize) -> f64 {
    let Some(mut left) = g.checked_sub(1) else {
        return std::iter::empty::<f64>().sum();
    };
    let mut s: f64 = std::iter::once(x).sum();
    let binade = |v: f64| v.to_bits() >> 52;
    // Consecutive partial sums in the binade of `s`, `s` included.
    let mut run = 1;
    while left > 0 {
        let prev = s;
        s += x;
        left -= 1;
        if s.to_bits() == prev.to_bits() || !s.is_finite() {
            // A sum that stopped growing, or ∞, or NaN, stays.
            break;
        }
        run = if binade(s) == binade(prev) {
            run + 1
        } else {
            1
        };
        let top = f64::from_bits((binade(s) + 1) << 52);
        if run < 3 || left == 0 || !top.is_finite() {
            continue;
        }
        // In units of the binade's ulp: `s + j·d + x` stays below the top
        // for every step `j < k`.
        let u = f64::from_bits(s.to_bits() + 1) - s;
        let d = s - prev;
        let k = (((top - s) / u - x / u) / (d / u) - 2.0).floor();
        if k >= 1.0 {
            let k = (k as usize).min(left);
            s += k as f64 * d;
            left -= k;
        }
    }
    s
}

/// The largest rate in `[0, rho_max]` that `fits`, by bisection: at most
/// [`BISECTION_STEPS`] halvings, stopping at the first fixed point.
fn bisect(rho_max: f64, mut fits: impl FnMut(f64) -> bool) -> f64 {
    let (mut lo, mut hi) = (0.0f64, rho_max);
    for _ in 0..BISECTION_STEPS {
        let mid = 0.5 * (lo + hi);
        let (next_lo, next_hi) = if fits(mid) { (mid, hi) } else { (lo, mid) };
        if next_lo.to_bits() == lo.to_bits() && next_hi.to_bits() == hi.to_bits() {
            break;
        }
        lo = next_lo;
        hi = next_hi;
    }
    lo
}

/// Elapsed work `p_j − p_j(t)` (never negative, never NaN).
fn elapsed(job: &AliveJob<'_>) -> f64 {
    (job.size() - job.remaining).max(0.0)
}

/// One pass over `jobs`: fills `group` with the positions of the jobs
/// whose elapsed work is at most `cut` (the tie group, whose shares the
/// equalizer writes), zeroes every other job's share, and returns the
/// smallest gap `e − min_elapsed` of those others (`+∞` when there are
/// none). Elapsed work is never NaN, so "not in the group" is exactly
/// `e > cut`.
fn split_tie_group(
    jobs: &[AliveJob<'_>],
    shares: &mut [f64],
    min_elapsed: f64,
    cut: f64,
    group: &mut Vec<usize>,
) -> f64 {
    group.clear();
    let mut next_gap = f64::INFINITY;
    for (i, (job, share)) in jobs.iter().zip(shares.iter_mut()).enumerate() {
        let e = elapsed(job);
        if e <= cut {
            group.push(i);
        } else {
            *share = 0.0;
            next_gap = next_gap.min(e - min_elapsed);
        }
    }
    next_gap
}

impl Policy for Setf {
    fn name(&self) -> String {
        "SETF".to_string()
    }

    fn assign(
        &mut self,
        _now: Time,
        m: f64,
        jobs: &[AliveJob<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        let n = jobs.len();
        if n == 0 {
            return None;
        }
        // Two passes: the least elapsed work, then the tie group together
        // with the closest outsider's gap.
        let min_elapsed = jobs.iter().map(elapsed).fold(f64::INFINITY, f64::min);
        let tol = TIE_TOL * min_elapsed.max(1.0);
        let next_gap = split_tie_group(
            jobs,
            shares,
            min_elapsed,
            min_elapsed + tol,
            &mut self.group,
        );
        let rho = self.equalize(m, jobs, shares);
        if rho <= 0.0 {
            // Degenerate (cannot happen for valid curves with m > 0), but
            // never divide by zero below.
            return None;
        }
        // Exact next membership change: the group catches the closest
        // outsider at gap/ρ.
        if next_gap.is_finite() {
            Some((next_gap / rho).max(1e-9))
        } else {
            None
        }
    }

    fn stability(&self) -> AllocationStability {
        // The served group is the least-elapsed tie group, drained at one
        // common rate: the level path's contract.
        AllocationStability::LeastElapsed
    }

    fn equalize_curves(
        &mut self,
        m: f64,
        curves: &[CurveCount<'_>],
        shares: &mut [f64],
    ) -> Option<f64> {
        let first = curves.first()?.curve;
        if curves.iter().all(|c| c.curve.same_bits(first)) {
            // One curve (piecewise curves arrive one entry per job, so
            // equal ones are pooled here): the memoized answer, the same
            // bits `assign` gives this group.
            let g = curves.iter().map(|c| c.count).sum();
            let (rho, share) = match CurveKey::of(first) {
                Some(key) => self.memo.recall(key, g, m, || equalize_shared(first, g, m)),
                None => equalize_shared(first, g, m),
            };
            shares.fill(share);
            return Some(rho);
        }
        // Mixed curves: bisect on the count-weighted demand, one inverse
        // per distinct curve per step, the sum stopped once it exceeds m.
        let table = &mut self.curves;
        index_counted(curves, &mut table.reps, &mut table.inverse);
        let curve_of = |c: usize| curves.get(c).map_or(first, |cc| cc.curve);
        let rho_max = curves
            .iter()
            .map(|c| c.curve.rate(m))
            .fold(f64::INFINITY, f64::min);
        let mut fits = |rho: f64| {
            table.invert(curve_of, rho, f64::INFINITY);
            let mut demand = 0.0;
            curves.iter().zip(&table.inverse).all(|(c, &x)| {
                demand += c.count as f64 * x;
                demand <= m
            })
        };
        let rho = if fits(rho_max) {
            rho_max
        } else {
            bisect(rho_max, fits)
        };
        table.invert(curve_of, rho, m);
        for (share, &x) in shares.iter_mut().zip(&table.inverse) {
            *share = x.min(m);
        }
        Some(rho)
    }

    fn srpt_ordered(&self) -> bool {
        // Elapsed time orders the served set, not remaining work.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_sim::{simulate, Instance, JobId, JobSpec};
    use parsched_speedup::Curve;

    /// `repeated_sum` is the plain left fold, bit for bit: on magnitudes
    /// from subnormal to huge, on values with few significant bits (whose
    /// additions tie), on ones that stop growing the sum, and at every
    /// group size up to a few thousand as well as at large ones.
    #[test]
    fn repeated_sum_is_the_left_fold() {
        let naive = |x: f64, g: usize| (0..g).map(|_| x).sum::<f64>();
        let mut state = 0x0005_eed5_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut xs = vec![
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1.0,
            0.1,
            1.5,
            3.0,
            1e-300,
            1e300,
            f64::MAX / 4.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for _ in 0..200 {
            let bits = next();
            let mantissa = match bits % 3 {
                // Few significant bits: ties on the sum's grid.
                0 => (bits >> 2) & 0x7,
                1 => (bits >> 2) & 0xff_ffff,
                _ => (bits >> 2) & ((1 << 52) - 1),
            };
            let exponent = 1023 - 40 + (next() % 80);
            xs.push(f64::from_bits((exponent << 52) | mantissa));
        }
        for &x in &xs {
            for g in (0..64).chain([100, 1_000, 4_097, 65_536, 300_001]) {
                let (got, want) = (repeated_sum(x, g), naive(x, g));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "x {x:e} g {g}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn fresh_identical_jobs_share_equally() {
        let specs = [
            JobSpec::new(JobId(0), 0.0, 5.0, Curve::FullyParallel),
            JobSpec::new(JobId(1), 0.0, 2.0, Curve::FullyParallel),
        ];
        let views: Vec<AliveJob<'_>> = specs
            .iter()
            .map(|s| AliveJob {
                spec: s,
                remaining: s.size,
            })
            .collect();
        let mut shares = vec![0.0; 2];
        Setf::new().assign(0.0, 4.0, &views, &mut shares);
        assert_eq!(shares, vec![2.0, 2.0]);
    }

    #[test]
    fn heterogeneous_group_gets_rate_equalizing_shares() {
        // One fully parallel and one α=0.5 job, both fresh, m = 6.
        // Equal rate ρ: x_par = ρ, x_pow = ρ² (for ρ ≥ 1); ρ + ρ² = 6 → ρ = 2.
        let specs = [
            JobSpec::new(JobId(0), 0.0, 5.0, Curve::FullyParallel),
            JobSpec::new(JobId(1), 0.0, 5.0, Curve::power(0.5)),
        ];
        let views: Vec<AliveJob<'_>> = specs
            .iter()
            .map(|s| AliveJob {
                spec: s,
                remaining: s.size,
            })
            .collect();
        let mut shares = vec![0.0; 2];
        Setf::new().assign(0.0, 6.0, &views, &mut shares);
        assert!((shares[0] - 2.0).abs() < 1e-6, "{shares:?}");
        assert!((shares[1] - 4.0).abs() < 1e-6, "{shares:?}");
    }

    #[test]
    fn sequential_group_idles_leftover_processors() {
        // Three sequential jobs on m = 8: each saturates at rate 1 with 1
        // processor; 5 processors idle — exactly SETF's behavior.
        let specs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec::new(JobId(i), 0.0, 4.0, Curve::Sequential))
            .collect();
        let views: Vec<AliveJob<'_>> = specs
            .iter()
            .map(|s| AliveJob {
                spec: s,
                remaining: s.size,
            })
            .collect();
        let mut shares = vec![0.0; 3];
        Setf::new().assign(0.0, 8.0, &views, &mut shares);
        assert!(shares.iter().all(|&s| (s - 1.0).abs() < 1e-6), "{shares:?}");
    }

    #[test]
    fn least_processed_job_monopolizes() {
        let specs = [
            JobSpec::new(JobId(0), 0.0, 5.0, Curve::FullyParallel),
            JobSpec::new(JobId(1), 0.0, 5.0, Curve::FullyParallel),
        ];
        let views = vec![
            AliveJob {
                spec: &specs[0],
                remaining: 3.0,
            }, // elapsed 2
            AliveJob {
                spec: &specs[1],
                remaining: 4.5,
            }, // elapsed 0.5
        ];
        let mut shares = vec![0.0; 2];
        let quantum = Setf::new().assign(0.0, 4.0, &views, &mut shares);
        assert_eq!(shares, vec![0.0, 4.0]);
        // Catch-up in exactly gap/ρ = 1.5/4.
        assert!((quantum.expect("gap exists") - 1.5 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn late_arrival_preempts() {
        // Fully parallel, m = 2: job 0 (size 4) runs alone on [0,1)
        // (elapsed 2). Job 1 (size 1, elapsed 0) arrives at 1 and
        // monopolizes; it finishes (at 1.5) before catching up.
        let inst = Instance::new(vec![
            JobSpec::new(JobId(0), 0.0, 4.0, Curve::FullyParallel),
            JobSpec::new(JobId(1), 1.0, 1.0, Curve::FullyParallel),
        ])
        .unwrap();
        let out = simulate(&inst, &mut Setf::new(), 2.0).unwrap();
        assert_eq!(out.flow_of(JobId(1)), Some(0.5));
        assert_eq!(out.flow_of(JobId(0)), Some(2.5));
    }

    #[test]
    fn catch_up_merges_service_groups_without_zeno() {
        // Job 0 gets a 1-unit head start; job 1 catches up and they finish
        // together. The run must complete in a handful of events (the old
        // equal-share formulation leapfrogged with ~1e-6 quanta).
        let inst = Instance::new(vec![
            JobSpec::new(JobId(0), 0.0, 3.0, Curve::FullyParallel),
            JobSpec::new(JobId(1), 0.5, 3.0, Curve::FullyParallel),
        ])
        .unwrap();
        let out = simulate(&inst, &mut Setf::new(), 2.0).unwrap();
        assert!(
            out.metrics.events < 20,
            "Zeno: {} events",
            out.metrics.events
        );
        let c0 = out
            .completed
            .iter()
            .find(|c| c.id == JobId(0))
            .unwrap()
            .completion;
        let c1 = out
            .completed
            .iter()
            .find(|c| c.id == JobId(1))
            .unwrap()
            .completion;
        assert!((c0 - c1).abs() < 1e-3, "{c0} vs {c1}");
        assert!((out.metrics.makespan - 3.0).abs() < 1e-3);
    }

    #[test]
    fn long_mixed_run_terminates_quickly() {
        // Regression for the Zeno bug: a mixed-α Poisson-ish workload must
        // finish with an event count polynomial in n.
        let jobs: Vec<JobSpec> = (0..40)
            .map(|i| {
                JobSpec::new(
                    JobId(i),
                    i as f64 * 0.7,
                    1.0 + (i as f64 * 2.3) % 9.0,
                    Curve::power(0.2 + 0.6 * ((i % 7) as f64 / 6.0)),
                )
            })
            .collect();
        let inst = Instance::new(jobs).unwrap();
        let out = simulate(&inst, &mut Setf::new(), 4.0).unwrap();
        assert_eq!(out.metrics.num_jobs, 40);
        assert!(out.metrics.events < 4000, "{} events", out.metrics.events);
    }

    /// A run's completion times and flow, as bits.
    fn run_bits(inst: &Instance, policy: &mut Setf, m: f64) -> Vec<u64> {
        let out = simulate(inst, policy, m).unwrap();
        let mut bits = vec![out.metrics.total_flow.to_bits(), out.metrics.events];
        bits.extend(out.completed.iter().map(|c| c.completion.to_bits()));
        bits
    }

    /// Staggered batches of one curve, so the level path meets tie groups
    /// of many sizes.
    fn one_curve(curve: Curve) -> Instance {
        let jobs = (0..60)
            .map(|i| {
                let release = (i / 6) as f64 * 0.8;
                let size = 1.0 + (i as f64 * 1.7) % 5.0;
                JobSpec::new(JobId(i), release, size, curve.clone())
            })
            .collect();
        Instance::new(jobs).unwrap()
    }

    /// One policy value runs curve A, then B, then A again (each run
    /// resets it) at two machine sizes, and every run is bit for bit a
    /// fresh policy's: the memo outlives resets and curve changes without
    /// changing an answer, and it keeps a table per curve and `m`.
    #[test]
    fn retained_memo_answers_like_a_fresh_policy() {
        let (a, b) = (
            Curve::power(0.3),
            Curve::Amdahl {
                serial_fraction: 0.2,
            },
        );
        let mut kept = Setf::new();
        for m in [4.0, 7.0] {
            for curve in [&a, &b, &a] {
                let inst = one_curve(curve.clone());
                assert_eq!(
                    run_bits(&inst, &mut kept, m),
                    run_bits(&inst, &mut Setf::new(), m),
                    "{curve:?} on m = {m}"
                );
            }
        }
        let keys: Vec<_> = kept.memo.tables.iter().map(|(k, _)| *k).collect();
        let key = |c: &Curve, m: f64| CurveKey::of(c).map(|k| (k, f64::to_bits(m)));
        assert!(keys.contains(&key(&a, 4.0)) && keys.contains(&key(&b, 4.0)));
        assert!(keys.contains(&key(&a, 7.0)) && keys.contains(&key(&b, 7.0)));
    }

    /// Past [`MEMO_TABLES`] curves the least recently used table is
    /// evicted and its buffer reused: the memo does not grow, and every
    /// answer is still the solver's.
    #[test]
    fn more_curves_than_tables_evict_the_least_recently_used() {
        let mut memo = SharedMemo::default();
        let m = 4.0;
        let curves: Vec<Curve> = (0..3 * MEMO_TABLES)
            .map(|i| Curve::power(0.1 + 0.05 * i as f64))
            .collect();
        let recall = |memo: &mut SharedMemo, c: &Curve, g: usize| {
            let key = CurveKey::of(c).unwrap();
            let got = memo.recall(key, g, m, || equalize_shared(c, g, m));
            let want = equalize_shared(c, g, m);
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (want.0.to_bits(), want.1.to_bits())
            );
        };
        for c in &curves {
            for g in 1..=9 {
                recall(&mut memo, c, g);
            }
        }
        let capacity = |memo: &SharedMemo| -> Vec<usize> {
            let mut caps: Vec<usize> = memo.tables.iter().map(|(_, t)| t.capacity()).collect();
            caps.sort_unstable();
            caps
        };
        let warm = capacity(&memo);
        for round in 0..3 {
            for c in curves.iter().rev().skip(round) {
                for g in (1..=9).rev() {
                    recall(&mut memo, c, g);
                }
            }
        }
        assert_eq!(
            capacity(&memo),
            warm,
            "an evicted table's buffer must be reused"
        );
        // Touch the oldest of the four tables, then add a fifth curve: the
        // second oldest is the one evicted.
        let keys = |memo: &SharedMemo| -> Vec<Option<MemoKey>> {
            memo.tables.iter().map(|(k, _)| *k).collect()
        };
        let before = keys(&memo);
        let oldest = before[MEMO_TABLES - 1].unwrap().0;
        let evicted = before[MEMO_TABLES - 2];
        memo.recall(oldest, 1, m, || unreachable!("a cached answer"));
        let fresh = Curve::power(0.99);
        recall(&mut memo, &fresh, 1);
        let after = keys(&memo);
        assert!(!after.contains(&evicted) && after.contains(&Some((oldest, m.to_bits()))));
        assert_eq!(after[0], Some((CurveKey::of(&fresh).unwrap(), m.to_bits())));
    }

    /// 10⁴ distinct continuous α values, each met in a few group sizes
    /// and some met again later: the memo solves no more often than one
    /// table of the last curve would (least-recently-used tables keep
    /// every table that one would), so it does no more of the costly work.
    #[test]
    fn distinct_alphas_solve_no_more_often_than_one_table() {
        let m = 8.0;
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let alphas: Vec<f64> = (0..10_000)
            .map(|_| 0.05 + 0.9 * (next() as f64 / (1u64 << 53) as f64))
            .collect();
        // The lookups: mostly a new α, sometimes one of the last few.
        let lookups: Vec<(f64, usize)> = (0..30_000usize)
            .map(|i| {
                let back = (next() % 8) as usize;
                let alpha = alphas[(i / 3).saturating_sub(back * (i % 2))];
                (alpha, 1 + (next() % 6) as usize)
            })
            .collect();
        let mut memo = SharedMemo::default();
        let mut solves = 0;
        // One table of the last curve: a new key starts it over.
        let (mut last, mut table) = (None, Vec::<Option<(f64, f64)>>::new());
        let mut reference = 0;
        for &(alpha, g) in &lookups {
            let curve = Curve::power(alpha);
            let key = CurveKey::of(&curve).unwrap();
            memo.recall(key, g, m, || {
                solves += 1;
                (alpha, g as f64)
            });
            if last != Some(key) {
                last = Some(key);
                table.clear();
            }
            if table.get(g).copied().flatten().is_none() {
                reference += 1;
                table.resize(table.len().max(g + 1), None);
                table[g] = Some((alpha, g as f64));
            }
        }
        assert!(
            solves <= reference,
            "{solves} solves against one table's {reference}"
        );
        assert!(
            solves < reference,
            "recently met curves should hit: {solves} vs {reference}"
        );
    }
}
