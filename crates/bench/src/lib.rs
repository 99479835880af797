//! Workload recipes shared by perfbench, the CLI and the tests.
//!
//! Each recipe is a fixed-seed [`PoissonWorkload`], so every consumer
//! measures or checks the same jobs: perfbench times them, the CLI's
//! streaming runs report [`peak_rss_bytes`], and the differential and
//! golden suites replay the materialized fixtures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use parsched_sim::Instance;
use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};

/// The workload description behind [`poisson_fixture`]: perfbench's
/// `sim-stable` and `fleet-resident` recipes.
pub fn poisson_workload(n: usize, load: f64, m: f64) -> PoissonWorkload {
    let sizes = SizeDist::LogUniform { p: 32.0 };
    PoissonWorkload {
        n,
        rate: PoissonWorkload::rate_for_load(load, m, &sizes),
        sizes,
        alphas: AlphaDist::Fixed(0.5),
        seed: 0xbe9c,
    }
}

/// A standard Poisson fixture: `n` jobs at the given load on `m`
/// processors, α = 0.5, log-uniform sizes on `[1, 32]`, fixed seed.
pub fn poisson_fixture(n: usize, load: f64, m: f64) -> Instance {
    poisson_workload(n, load, m)
        .generate()
        .expect("fixture workload")
}

/// An overload-heavy fixture: offered load 1.5, so the alive set grows
/// roughly linearly in `n` and every event works against a large SRPT
/// set — the regime where per-event cost dominates.
pub fn overload_fixture(n: usize, m: f64) -> Instance {
    poisson_fixture(n, 1.5, m)
}

/// The workload behind [`mixed_alpha_fixture`]: α drawn per job from an
/// even four-way mix of the engine's fast kernel classes (¼, ½, ¾) and
/// one general exponent (0.37, which takes the ln/exp evaluation path).
///
/// The single-α fixtures keep every alive job on one speed-up curve, so
/// the engine's per-class Γ caching and the grouped
/// [`parsched_speedup::gamma_by_class`] driver degenerate to a single
/// class there; this fixture is what actually exercises the multi-class
/// Scan path the SoA layout was built for.
pub fn mixed_alpha_workload(n: usize, load: f64, m: f64) -> PoissonWorkload {
    let sizes = SizeDist::LogUniform { p: 32.0 };
    PoissonWorkload {
        n,
        rate: PoissonWorkload::rate_for_load(load, m, &sizes),
        sizes,
        alphas: AlphaDist::Choice(vec![(0.25, 1.0), (0.5, 1.0), (0.75, 1.0), (0.37, 1.0)]),
        seed: 0xbe9c,
    }
}

/// A Poisson fixture with per-job mixed α (see [`mixed_alpha_workload`]).
pub fn mixed_alpha_fixture(n: usize, load: f64, m: f64) -> Instance {
    mixed_alpha_workload(n, load, m)
        .generate()
        .expect("mixed-alpha fixture workload")
}

/// Peak resident set size of the current process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic() {
        assert_eq!(poisson_fixture(50, 0.9, 4.0), poisson_fixture(50, 0.9, 4.0));
        assert_eq!(poisson_fixture(50, 0.9, 4.0).len(), 50);
    }

    #[test]
    fn mixed_alpha_fixture_is_deterministic_and_spans_all_classes() {
        let a = mixed_alpha_fixture(400, 0.9, 8.0);
        assert_eq!(a, mixed_alpha_fixture(400, 0.9, 8.0));
        // Every α in the mix must actually occur, or the fixture is not
        // exercising the multi-class engine path it exists for.
        for want in [0.25, 0.5, 0.75, 0.37] {
            assert!(
                a.jobs().iter().any(|j| j.curve.alpha() == Some(want)),
                "no job drew alpha = {want}"
            );
        }
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if let Some(rss) = peak_rss_bytes() {
            assert!(rss > 0);
        }
    }
}
