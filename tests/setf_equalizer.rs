//! Oracle for SETF's rate equalizer: the production equalizer (memoized
//! threshold replay for one-curve tie groups; for mixed ones, one inverse
//! per distinct curve per step and a demand sum in group order that stops
//! once it exceeds `m`; both with an early fixed-point stop) must
//! reproduce the plain 64-step bisection — kept here verbatim as the
//! reference — bit for bit: the same common rate `ρ`, the same shares,
//! and the same re-decision quantum. The property tests share one `Setf` across all their cases,
//! so its memo is hit and invalidated along the way.
//!
//! The level path's equalizer (`Policy::equalize_curves`, given the tie
//! group's distinct curves with member counts) is held to the same
//! reference: bit for bit on one-curve groups, within a stated ulp budget
//! on mixed ones, whose count-weighted demand sum rounds differently.

use std::sync::Mutex;

use parsched::Setf;
use parsched_sim::{AliveJob, CurveCount, JobId, JobSpec, Policy};
use parsched_speedup::{Curve, PiecewiseLinear};
use proptest::prelude::*;

/// Relative tie tolerance of the reference (same as the policy's).
const TIE_TOL: f64 = 1e-7;

/// The reference equalizer: `(ρ, shares in group order)`.
fn reference_equalize(m: f64, jobs: &[AliveJob<'_>], group: &[usize]) -> (f64, Vec<f64>) {
    let rho_max = group
        .iter()
        .map(|&i| jobs[i].curve().rate(m))
        .fold(f64::INFINITY, f64::min);
    let demand = |rho: f64| -> f64 {
        group
            .iter()
            .map(|&i| jobs[i].curve().inverse_rate(rho).unwrap_or(f64::INFINITY))
            .sum()
    };
    let rho = if demand(rho_max) <= m {
        rho_max
    } else {
        let (mut lo, mut hi) = (0.0f64, rho_max);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if demand(mid) <= m {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let shares = group
        .iter()
        .map(|&i| jobs[i].curve().inverse_rate(rho).unwrap_or(m))
        .collect();
    (rho, shares)
}

/// The reference `Policy::assign`.
fn reference_assign(m: f64, jobs: &[AliveJob<'_>], shares: &mut [f64]) -> Option<f64> {
    let n = jobs.len();
    if n == 0 {
        return None;
    }
    shares.fill(0.0);
    let elapsed = |j: &AliveJob<'_>| (j.size() - j.remaining).max(0.0);
    let min_elapsed = jobs.iter().map(elapsed).fold(f64::INFINITY, f64::min);
    let tol = TIE_TOL * min_elapsed.max(1.0);
    let group: Vec<usize> = (0..n)
        .filter(|&i| elapsed(&jobs[i]) <= min_elapsed + tol)
        .collect();
    let (rho, group_shares) = reference_equalize(m, jobs, &group);
    for (&i, &s) in group.iter().zip(&group_shares) {
        shares[i] = s.min(m);
    }
    if rho <= 0.0 {
        return None;
    }
    let next_gap = jobs
        .iter()
        .map(elapsed)
        .filter(|&e| e > min_elapsed + tol)
        .map(|e| e - min_elapsed)
        .fold(f64::INFINITY, f64::min);
    if next_gap.is_finite() {
        Some((next_gap / rho).max(1e-9))
    } else {
        None
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Curve menu entry `k` (the last draws a uniform α).
fn menu_curve(k: u64, state: &mut u64) -> Curve {
    match k % 12 {
        0 => Curve::power(0.0),
        1 => Curve::power(0.25),
        2 => Curve::power(0.5),
        3 => Curve::power(0.75),
        4 => Curve::power(1.0),
        5 => Curve::power(0.37),
        6 => Curve::Sequential,
        7 => Curve::FullyParallel,
        8 => Curve::try_amdahl(0.05 + 0.5 * unit(state)).expect("amdahl"),
        9 => Curve::Piecewise(
            PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 1.0), (4.0, 2.5), (16.0, 4.0)])
                .expect("piecewise"),
        ),
        10 => Curve::Piecewise(PiecewiseLinear::saturating(3.0).expect("saturating")),
        _ => Curve::power(unit(state)),
    }
}

/// `g` curves: one shared curve (`mix == 0`), a few menu curves, or a
/// fresh draw per member.
fn group_curves(g: usize, mix: u64, state: &mut u64) -> Vec<Curve> {
    match mix % 3 {
        0 => {
            let k = splitmix(state);
            let c = menu_curve(k, state);
            vec![c; g]
        }
        1 => {
            let palette: Vec<Curve> = (0..2 + splitmix(state) % 3)
                .map(|_| {
                    let k = splitmix(state);
                    menu_curve(k, state)
                })
                .collect();
            (0..g)
                .map(|_| palette[(splitmix(state) % palette.len() as u64) as usize].clone())
                .collect()
        }
        _ => (0..g)
            .map(|_| {
                let k = splitmix(state);
                menu_curve(k, state)
            })
            .collect(),
    }
}

fn specs_for(curves: Vec<Curve>, state: &mut u64) -> Vec<JobSpec> {
    curves
        .into_iter()
        .enumerate()
        .map(|(i, c)| JobSpec::new(JobId(i as u64), 0.0, 1.0 + 9.0 * unit(state), c))
        .collect()
}

fn fresh_views(specs: &[JobSpec]) -> Vec<AliveJob<'_>> {
    specs
        .iter()
        .map(|s| AliveJob {
            spec: s,
            remaining: s.size,
        })
        .collect()
}

/// The policy each property test runs all its cases on, memo and all
/// (one per test, so each sequence is deterministic).
static EQUALIZE_POLICY: Mutex<Option<Setf>> = Mutex::new(None);
static ASSIGN_POLICY: Mutex<Option<Setf>> = Mutex::new(None);
static COUNTED_POLICY: Mutex<Option<Setf>> = Mutex::new(None);

/// Runs `f` on a shared policy.
fn with_shared<R>(shared: &Mutex<Option<Setf>>, f: impl FnOnce(&mut Setf) -> R) -> R {
    let mut guard = shared
        .lock()
        .expect("no earlier case panicked while holding the shared policy");
    f(guard.get_or_insert_with(Setf::new))
}

/// Checks one equalization on `policy` against the reference; returns ρ.
fn assert_equalize_matches_on(policy: &mut Setf, m: f64, jobs: &[AliveJob<'_>], ctx: &str) -> f64 {
    let all: Vec<usize> = (0..jobs.len()).collect();
    let (want_rho, want) = reference_equalize(m, jobs, &all);
    let mut got = vec![f64::NAN; jobs.len()];
    let rho = policy.equalize_all(m, jobs, &mut got);
    assert_eq!(
        rho.to_bits(),
        want_rho.to_bits(),
        "{ctx}: ρ {rho} vs {want_rho}"
    );
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        let w = w.min(m);
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: share {i}: {g} vs {w}");
    }
    rho
}

fn assert_equalize_matches(m: f64, jobs: &[AliveJob<'_>], ctx: &str) {
    assert_equalize_matches_on(&mut Setf::new(), m, jobs, ctx);
}

fn assert_assign_matches(policy: &mut Setf, m: f64, jobs: &[AliveJob<'_>], ctx: &str) {
    let mut want = vec![f64::NAN; jobs.len()];
    let want_q = reference_assign(m, jobs, &mut want);
    let mut got = vec![f64::NAN; jobs.len()];
    let got_q = policy.assign(0.0, m, jobs, &mut got);
    assert_eq!(
        got_q.map(f64::to_bits),
        want_q.map(f64::to_bits),
        "{ctx}: quantum {got_q:?} vs {want_q:?}"
    );
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: share {i}: {g} vs {w}");
    }
}

/// `m` from 1 to 10⁴: integral half the time (the common case), real
/// otherwise.
fn machine(draw: f64, integral: bool) -> f64 {
    let m = 1.0 + draw * 9_999.0;
    if integral {
        m.floor()
    } else {
        m
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn equalizer_matches_the_bisection_bit_for_bit(
        seed in 0u64..u64::MAX,
        g in 1usize..=512,
        mix in 0u64..3,
        m_draw in 0.0f64..1.0,
        integral in 0u32..2,
    ) {
        let mut state = seed;
        let m = machine(m_draw, integral == 1);
        let curves = group_curves(g, mix, &mut state);
        let specs = specs_for(curves, &mut state);
        let jobs = fresh_views(&specs);
        let ctx = format!("seed {seed} g {g} mix {mix} m {m}");
        with_shared(&EQUALIZE_POLICY, |policy| {
            // The second call of a one-curve group is a memo hit.
            assert_equalize_matches_on(policy, m, &jobs, &ctx);
            assert_equalize_matches_on(policy, m, &jobs, &format!("{ctx} again"));
        });
    }

    #[test]
    fn assign_matches_the_reference_with_exact_ties(
        seed in 0u64..u64::MAX,
        n in 1usize..=512,
        mix in 0u64..3,
        m_draw in 0.0f64..1.0,
        integral in 0u32..2,
    ) {
        let mut state = seed;
        let m = machine(m_draw, integral == 1);
        let curves = group_curves(n, mix, &mut state);
        let specs = specs_for(curves, &mut state);
        // Elapsed work: a tied least-elapsed group at exactly `e0` (some
        // members inside the tie tolerance), the rest strictly behind.
        let e0 = 0.5 * unit(&mut state);
        for round in 0..2 {
            let jobs: Vec<AliveJob<'_>> = specs
                .iter()
                .map(|s| {
                    let u = unit(&mut state);
                    let elapsed = if u < 0.4 {
                        e0
                    } else if u < 0.5 {
                        e0 * (1.0 + 0.5 * TIE_TOL)
                    } else {
                        e0 + 0.5 * unit(&mut state)
                    };
                    AliveJob { spec: s, remaining: s.size - elapsed }
                })
                .collect();
            let ctx = format!("seed {seed} n {n} mix {mix} m {m} round {round}");
            // Reused scratch and memo across decisions must not leak state.
            with_shared(&ASSIGN_POLICY, |policy| assert_assign_matches(policy, m, &jobs, &ctx));
        }
    }
}

/// Budget, in units in the last place, of the count-based equalizer's `ρ`
/// and shares on a mixed group against the member-order reference. The
/// two demand sums round differently (`count·x` per distinct curve versus
/// one addition per member), so the bisections can settle a few ulps
/// apart, and the inverse of a flat curve near its saturation can amplify
/// that. A run of the property test below at 3,000 cases measured at most
/// 49 ulps for `ρ` and 60 for the shares; the budget (a relative 2·10⁻¹³)
/// leaves headroom and is still seven orders of magnitude inside the
/// 10⁻⁶ to which the level path must agree with the exhaustive one.
const MIXED_ULP_BUDGET: u64 = 1024;

/// Distance in units in the last place between two finite non-negative
/// floats.
fn ulps(a: f64, b: f64) -> u64 {
    a.to_bits().abs_diff(b.to_bits())
}

/// The level stack's tally of a group: each parametric curve once with
/// its member count (in order of first appearance), each piecewise curve
/// once per member; and each member's index into it.
fn tally_of<'a>(jobs: &[AliveJob<'a>]) -> (Vec<CurveCount<'a>>, Vec<usize>) {
    let mut tally: Vec<CurveCount<'a>> = Vec::new();
    let mut member = Vec::new();
    for j in jobs {
        let curve: &'a Curve = &j.spec.curve;
        let shared = !matches!(curve, Curve::Piecewise(_));
        let found = tally
            .iter()
            .position(|c| c.curve == curve)
            .filter(|_| shared);
        match found {
            Some(c) => {
                tally[c].count += 1;
                member.push(c);
            }
            None => {
                member.push(tally.len());
                tally.push(CurveCount { curve, count: 1 });
            }
        }
    }
    (tally, member)
}

/// Checks the count-based equalizer against the reference on the whole of
/// `jobs`: bit for bit when the group shares one curve, within
/// [`MIXED_ULP_BUDGET`] otherwise. Returns the `ρ` and share ulp
/// distances.
fn assert_counted_matches(
    policy: &mut Setf,
    m: f64,
    jobs: &[AliveJob<'_>],
    ctx: &str,
) -> (u64, u64) {
    let all: Vec<usize> = (0..jobs.len()).collect();
    let (want_rho, want) = reference_equalize(m, jobs, &all);
    let (tally, member) = tally_of(jobs);
    let mut shares = vec![f64::NAN; tally.len()];
    let rho = policy
        .equalize_curves(m, &tally, &mut shares)
        .expect("non-empty group");
    let one_curve = jobs.iter().all(|j| j.curve() == jobs[0].curve());
    let rho_ulps = ulps(rho, want_rho);
    let mut share_ulps = 0;
    for (i, (&c, w)) in member.iter().zip(&want).enumerate() {
        let (g, w) = (shares[c], w.min(m));
        share_ulps = share_ulps.max(ulps(g, w));
        if one_curve {
            assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: share {i}: {g} vs {w}");
        }
    }
    if one_curve {
        assert_eq!(
            rho.to_bits(),
            want_rho.to_bits(),
            "{ctx}: ρ {rho} vs {want_rho}"
        );
    } else {
        assert!(
            rho_ulps <= MIXED_ULP_BUDGET && share_ulps <= MIXED_ULP_BUDGET,
            "{ctx}: ρ {rho} vs {want_rho} ({rho_ulps} ulps), shares {share_ulps} ulps apart"
        );
    }
    (rho_ulps, share_ulps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The level path's equalizer, given distinct curves with member
    /// counts, against the 64-step reference on the members.
    #[test]
    fn counted_equalizer_matches_the_bisection(
        seed in 0u64..u64::MAX,
        g in 1usize..=512,
        mix in 0u64..3,
        m_draw in 0.0f64..1.0,
        integral in 0u32..2,
    ) {
        let mut state = seed;
        let m = machine(m_draw, integral == 1);
        let curves = group_curves(g, mix, &mut state);
        let specs = specs_for(curves, &mut state);
        let jobs = fresh_views(&specs);
        let ctx = format!("seed {seed} g {g} mix {mix} m {m}");
        with_shared(&COUNTED_POLICY, |policy| {
            assert_counted_matches(policy, m, &jobs, &ctx);
            assert_counted_matches(policy, m, &jobs, &format!("{ctx} again"));
        });
    }
}

#[test]
fn counted_equalizer_on_interleaved_mixed_groups() {
    let a = Curve::power(0.25);
    let b = Curve::power(0.75);
    let c = Curve::try_amdahl(0.2).expect("amdahl");
    let pwl = Curve::Piecewise(PiecewiseLinear::saturating(3.0).expect("saturating"));
    let mut policy = Setf::new();
    let mut state = 0x1e7e_15c0_u64;
    let mut worst = (0, 0);
    for (round, g) in [2usize, 3, 11, 7, 64, 5, 129, 10].into_iter().enumerate() {
        let palette = match round % 3 {
            0 => vec![a.clone(), b.clone()],
            1 => vec![b.clone(), c.clone(), a.clone()],
            _ => vec![pwl.clone(), a.clone()],
        };
        let curves: Vec<Curve> = (0..g)
            .map(|_| palette[(splitmix(&mut state) % palette.len() as u64) as usize].clone())
            .collect();
        let specs = specs_for(curves, &mut state);
        let jobs = fresh_views(&specs);
        for m in [2.0, 8.0, 37.5, 1024.0] {
            let ctx = format!("round {round} g {g} m {m}");
            let (r, s) = assert_counted_matches(&mut policy, m, &jobs, &ctx);
            worst = (worst.0.max(r), worst.1.max(s));
        }
    }
    assert!(
        worst.0 <= MIXED_ULP_BUDGET && worst.1 <= MIXED_ULP_BUDGET,
        "{worst:?}"
    );
}

#[test]
fn counted_equalizer_pools_equal_piecewise_curves() {
    // The level stack tallies piecewise curves one entry per job; equal
    // ones must still get the one-curve answer, bit for bit.
    let pwl = Curve::Piecewise(
        PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 1.0), (4.0, 2.5), (16.0, 4.0)])
            .expect("piecewise"),
    );
    for g in [1usize, 2, 9, 64] {
        let specs = views_of(vec![pwl.clone(); g]);
        let jobs = fresh_views(&specs);
        for m in [1.0, 6.0, 100.0] {
            assert_counted_matches(&mut Setf::new(), m, &jobs, &format!("g {g} m {m}"));
        }
    }
}

fn views_of(curves: Vec<Curve>) -> Vec<JobSpec> {
    curves
        .into_iter()
        .enumerate()
        .map(|(i, c)| JobSpec::new(JobId(i as u64), 0.0, 4.0, c))
        .collect()
}

#[test]
fn single_member_group() {
    for curve in [
        Curve::power(0.5),
        Curve::power(0.37),
        Curve::Sequential,
        Curve::FullyParallel,
        Curve::try_amdahl(0.2).expect("amdahl"),
    ] {
        let specs = views_of(vec![curve.clone()]);
        let jobs = fresh_views(&specs);
        for m in [1.0, 3.0, 8.0, 1e4] {
            assert_equalize_matches(m, &jobs, &format!("G=1 {curve:?} m {m}"));
        }
    }
}

#[test]
fn saturated_groups_run_at_the_saturation_rate() {
    // demand(ρ_max) ≤ m: a flat-tailed piecewise curve and Amdahl on a
    // machine far wider than the group can use.
    for (curve, g, m) in [
        (
            Curve::Piecewise(PiecewiseLinear::saturating(2.0).expect("saturating")),
            2,
            8.0,
        ),
        (Curve::power(0.0), 5, 16.0),
    ] {
        let specs = views_of(vec![curve.clone(); g]);
        let jobs = fresh_views(&specs);
        let all: Vec<usize> = (0..g).collect();
        let (rho, _) = reference_equalize(m, &jobs, &all);
        assert_eq!(
            rho.to_bits(),
            curve.rate(m).to_bits(),
            "{curve:?} saturates"
        );
        assert_equalize_matches(m, &jobs, &format!("saturated {curve:?}"));
    }
}

#[test]
fn all_sequential_group() {
    for (g, m) in [(1, 1.0), (3, 8.0), (8, 8.0), (40, 8.0), (512, 1e4)] {
        let specs = views_of(vec![Curve::Sequential; g]);
        let jobs = fresh_views(&specs);
        assert_equalize_matches(m, &jobs, &format!("sequential G={g} m={m}"));
    }
}

#[test]
fn identity_region_rates_at_most_one() {
    // Fewer processors than members: ρ ≤ 1, where every model curve's
    // inverse is the identity.
    for curve in [Curve::power(0.5), Curve::power(0.75), Curve::FullyParallel] {
        for (g, m) in [(16, 4.0), (512, 7.0), (3, 2.5)] {
            let specs = views_of(vec![curve.clone(); g]);
            let jobs = fresh_views(&specs);
            let mut shares = vec![0.0; g];
            let rho = Setf::new().equalize_all(m, &jobs, &mut shares);
            assert!(rho <= 1.0, "{curve:?} G={g} m={m}: ρ = {rho}");
            assert_equalize_matches(m, &jobs, &format!("identity {curve:?} G={g} m={m}"));
        }
    }
}

#[test]
fn memo_is_invalidated_by_curve_and_machine() {
    // One policy throughout, so each call runs against the memo the
    // previous calls left behind.
    let mut policy = Setf::new();
    let mut check = |curve: &Curve, g: usize, m: f64, ctx: &str| {
        let specs = views_of(vec![curve.clone(); g]);
        let jobs = fresh_views(&specs);
        assert_equalize_matches_on(&mut policy, m, &jobs, ctx)
    };
    // The same G under a different α.
    let a = check(&Curve::power(0.5), 24, 64.0, "α ½");
    let b = check(&Curve::power(0.75), 24, 64.0, "α ¾");
    assert_ne!(a.to_bits(), b.to_bits());
    assert_eq!(
        check(&Curve::power(0.5), 24, 64.0, "α ½ again").to_bits(),
        a.to_bits()
    );
    // The same curve and G under a different m.
    let c = check(&Curve::power(0.5), 24, 96.0, "m 96");
    assert_ne!(a.to_bits(), c.to_bits());
    // Same-size groups of other curve families, each after the others.
    for curve in [
        Curve::FullyParallel,
        Curve::try_amdahl(0.1).expect("amdahl"),
        Curve::try_amdahl(0.2).expect("amdahl"),
        Curve::power(0.5),
    ] {
        check(&curve, 24, 96.0, &format!("{curve:?}"));
    }
    // Two piecewise curves with equal point counts but different points.
    let p = Curve::Piecewise(
        PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 1.0), (4.0, 2.5), (16.0, 4.0)])
            .expect("piecewise"),
    );
    let q = Curve::Piecewise(
        PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 1.0), (4.0, 3.0), (16.0, 6.0)])
            .expect("piecewise"),
    );
    let rp = check(&p, 24, 64.0, "piecewise p");
    let rq = check(&q, 24, 64.0, "piecewise q");
    assert_ne!(rp.to_bits(), rq.to_bits());
    check(&p, 24, 64.0, "piecewise p again");
}

#[test]
fn interleaved_two_and_three_curve_groups() {
    // Mixed groups evaluate each distinct curve once per bisection step
    // and sum the members' inverses in group order. One policy runs every
    // case, so its per-group curve table shrinks and grows in between.
    let a = Curve::power(0.25);
    let b = Curve::power(0.75);
    let c = Curve::try_amdahl(0.2).expect("amdahl");
    let mut policy = Setf::new();
    let mut state = 0x2c0f_fee5_u64;
    for (round, g) in [2usize, 3, 11, 7, 64, 5, 129, 10].into_iter().enumerate() {
        let palette = if round % 2 == 0 {
            vec![a.clone(), b.clone()]
        } else {
            vec![b.clone(), c.clone(), a.clone()]
        };
        // Strictly interleaved, then shuffled by draw.
        for layout in 0..2 {
            let curves: Vec<Curve> = (0..g)
                .map(|i| {
                    let k = if layout == 0 {
                        i % palette.len()
                    } else {
                        (splitmix(&mut state) % palette.len() as u64) as usize
                    };
                    palette[k].clone()
                })
                .collect();
            let specs = specs_for(curves, &mut state);
            let jobs = fresh_views(&specs);
            for m in [2.0, 8.0, 37.5, 1024.0] {
                let ctx = format!("round {round} g {g} layout {layout} m {m}");
                assert_equalize_matches_on(&mut policy, m, &jobs, &ctx);
                assert_assign_matches(&mut policy, m, &jobs, &ctx);
            }
        }
    }
}

#[test]
fn more_distinct_curves_than_any_fixed_table_holds() {
    // 300 distinct curves (power exponents and piecewise curves with equal
    // point counts but different points), each appearing twice, the
    // repeats far from their first appearance.
    let distinct: Vec<Curve> = (0..300)
        .map(|k| {
            if k % 3 == 2 {
                let top = 2.0 + f64::from(k) / 100.0;
                Curve::Piecewise(
                    PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 1.0), (8.0, top)])
                        .expect("piecewise"),
                )
            } else {
                Curve::power(0.05 + 0.9 * f64::from(k) / 300.0)
            }
        })
        .collect();
    let curves: Vec<Curve> = distinct
        .iter()
        .chain(distinct.iter().rev())
        .cloned()
        .collect();
    let mut state = 0x007a_b1e5_u64;
    let specs = specs_for(curves, &mut state);
    let jobs = fresh_views(&specs);
    let mut policy = Setf::new();
    for m in [4.0, 600.0, 2_500.5] {
        let ctx = format!("600 members, 300 curves, m {m}");
        assert_equalize_matches_on(&mut policy, m, &jobs, &ctx);
        assert_assign_matches(&mut policy, m, &jobs, &ctx);
    }
}
