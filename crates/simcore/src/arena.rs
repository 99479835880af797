//! The engine's per-job arena and the per-`n` prefix-profile memo the
//! incremental and arrival-suffix paths share.

use parsched_speedup::{PowKernel, EPS};

use crate::alive_set::check_allocation;
use crate::error::SimError;
use crate::job::{JobSpec, Time, Work};
use crate::policy::Policy;
use crate::srpt_set::Placement;

/// Kernel-class sentinel: the job's curve is outside the power-law family
/// (Amdahl, piecewise) — evaluate through `specs[idx].curve.rate`.
pub(crate) const CLASS_CURVE: u32 = u32::MAX;
/// Kernel-class sentinel: power-law job that arrived after the class
/// registry filled — evaluate through its own `kern[idx]` kernel.
pub(crate) const CLASS_UNGROUPED: u32 = u32::MAX - 1;
/// Class-registry capacity. Real workloads draw α from a handful of
/// values; past this many *distinct* exponents the marginal job falls
/// back to per-job kernels (`CLASS_UNGROUPED`), trading the grouped-rate
/// cache for an O(1) registry scan bound.
pub(crate) const MAX_CLASSES: usize = 64;

/// The per-job arena, struct-of-arrays. Every vector is indexed by the
/// arena slot (`IdMap` value / `SrptSet` slot idx) and grows in lockstep:
/// `Engine::admit_core` is the single site that pushes, a completion only
/// retires slots. The event loop's hot walks — the SRPT set's Scan
/// recompute, the exhaustive rate sweep, the integrators — touch exactly
/// the 8-byte lanes they need (`remaining`, `run_key`, `class`) instead of
/// striding over whole `JobSpec`-sized records, so a 64-byte cache line
/// serves 8 jobs rather than one (see `docs/PERF.md` §7).
#[derive(Debug, Default)]
pub(crate) struct JobArena {
    /// Immutable admission specs (identity, release, size, weight, curve).
    pub(crate) specs: Vec<JobSpec>,
    /// Authoritative remaining work while the job is *not* in the running
    /// prefix (always authoritative on the exhaustive path).
    pub(crate) remaining: Vec<Work>,
    /// Offset-space SRPT key while `in_running` (incremental path only);
    /// materialized remaining work is `run_key − drain_offset`.
    pub(crate) run_key: Vec<f64>,
    /// Power-law evaluation kernel, classified once at admission so the
    /// per-event rate computations skip both the curve-variant dispatch
    /// and `powf` (see [`PowKernel`]). A placeholder for curves outside
    /// the power-law family (`class == CLASS_CURVE`), which keep the
    /// generic path.
    // lint:allow(L009) kern lane is reconstructed bit-identically from each curve on restore (snapshot.rs module docs)
    pub(crate) kern: Vec<PowKernel>,
    /// Kernel-class registry index, or one of the sentinels above. Jobs
    /// of one class share bit-identical kernels, so a Scan interval needs
    /// one Γ evaluation per *class*, not per job.
    pub(crate) class: Vec<u32>,
    /// Whether the job currently sits in the incremental running prefix.
    pub(crate) in_running: Vec<bool>,
    pub(crate) done: Vec<bool>,
    /// Kernel-class registry: one representative kernel per distinct α
    /// seen this run (same α ⇒ bit-identical kernel, since construction
    /// is deterministic in α).
    pub(crate) classes: Vec<PowKernel>,
    /// Per-class speed-adjusted rate `speed·Γ_c(share)` for the *current*
    /// Scan interval; refilled by [`JobArena::refresh_class_rates`] on
    /// every profile refresh that classifies a Scan interval, so it is
    /// valid whenever the engine's interval is `Scan`.
    // lint:allow(L009) per-class rate cache; re-derived from the class registry on the first interval after restore
    pub(crate) class_rates: Vec<f64>,
}

impl JobArena {
    pub(crate) fn len(&self) -> usize {
        self.specs.len()
    }

    /// Splits the arena into its spec lane, which the SRPT set orders by,
    /// and the lanes its placement callbacks write.
    pub(crate) fn split_placement(&mut self) -> (&[JobSpec], PlacementLanes<'_>) {
        (
            &self.specs,
            PlacementLanes {
                in_running: &mut self.in_running,
                run_key: &mut self.run_key,
                remaining: &mut self.remaining,
            },
        )
    }

    pub(crate) fn clear(&mut self) {
        self.specs.clear();
        self.remaining.clear();
        self.run_key.clear();
        self.kern.clear();
        self.class.clear();
        self.in_running.clear();
        self.done.clear();
        self.classes.clear();
        self.class_rates.clear();
    }

    /// Registry lookup/insert for an admitted kernel. Returns the kernel
    /// value to store in the `kern` lane (a placeholder for non-power
    /// curves) and the class id. O(|classes|) linear scan on α bits —
    /// bounded by [`MAX_CLASSES`], and in practice a handful of entries.
    pub(crate) fn classify(&mut self, kernel: Option<PowKernel>) -> (PowKernel, u32) {
        match kernel {
            None => (PowKernel::new(1.0), CLASS_CURVE),
            Some(k) => {
                let bits = k.alpha().to_bits();
                let class = match self
                    .classes
                    .iter()
                    .position(|c| c.alpha().to_bits() == bits)
                {
                    Some(p) => p as u32,
                    None if self.classes.len() < MAX_CLASSES => {
                        self.classes.push(k);
                        self.class_rates.push(0.0);
                        (self.classes.len() - 1) as u32
                    }
                    None => CLASS_UNGROUPED,
                };
                (k, class)
            }
        }
    }

    /// Refills the per-class rate cache for a Scan interval at `share`:
    /// one grouped Γ evaluation per distinct class
    /// ([`parsched_speedup::gamma_by_class`]) instead of one per running
    /// job. Allocation-free after warm-up (the cache vector's capacity
    /// tracks the registry).
    pub(crate) fn refresh_class_rates(&mut self, speed: f64, share: f64) {
        parsched_speedup::gamma_by_class(&self.classes, share, &mut self.class_rates);
        for r in &mut self.class_rates {
            *r *= speed;
        }
    }

    /// Speed-adjusted drain rate of one job in the current Scan interval,
    /// via the per-class cache. Bit-identical to
    /// `speed * self.gamma(idx, share)`: cache entries are
    /// `speed·Γ_c(share)` computed from a kernel bit-identical to the
    /// job's own. Callers must have refreshed the cache for (`speed`,
    /// `share`) — the engine does so whenever it classifies a Scan
    /// interval.
    #[inline]
    pub(crate) fn rate_cached(&self, idx: usize, speed: f64, share: f64) -> f64 {
        match self.class[idx] {
            CLASS_CURVE => speed * self.specs[idx].curve.rate(share),
            CLASS_UNGROUPED => speed * self.kern[idx].gamma(share),
            c => self.class_rates[c as usize],
        }
    }

    /// `Γ(share)` for one job via its cached kernel when available.
    /// Identical arithmetic to `specs[idx].curve.rate(share)` — the kernel
    /// *is* the power-law implementation — minus the per-call
    /// classification. (Cold-path scalar form; hot loops go through the
    /// per-class rate cache instead.)
    #[inline]
    pub(crate) fn gamma(&self, idx: usize, share: f64) -> f64 {
        if self.class[idx] == CLASS_CURVE {
            self.specs[idx].curve.rate(share)
        } else {
            self.kern[idx].gamma(share)
        }
    }
}

/// The arena lanes a [`Placement`] writes, borrowed apart from the spec
/// lane the SRPT set reads as its tie-break context
/// ([`JobArena::split_placement`]).
pub(crate) struct PlacementLanes<'a> {
    in_running: &'a mut [bool],
    run_key: &'a mut [f64],
    remaining: &'a mut [Work],
}

impl PlacementLanes<'_> {
    /// Applies a reported [`Placement`] to the per-job lanes.
    pub(crate) fn apply(&mut self, idx: usize, p: Placement) {
        match p {
            Placement::Running { key } => {
                self.in_running[idx] = true;
                self.run_key[idx] = key;
            }
            Placement::Queued { remaining } => {
                self.in_running[idx] = false;
                self.remaining[idx] = remaining;
            }
        }
    }
}

/// One slot of the per-`n` allocation memo. The
/// [`PrefixAllocation`] contract makes the policy's profile a pure
/// function of `(n_alive, m)` (see [`crate::policy`]), and `m` is fixed
/// per run, so the *validated* `(count, share)` pair for each alive count
/// can be computed once and replayed — the delta-allocation refresh. The
/// slot also memoizes the uniform-interval drain rate for one kernel
/// class at this `n`: same class ⇒ bit-identical kernel ⇒ bit-identical
/// `speed·Γ_c(share)`, so replaying it is exact, not approximate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CachedProfile {
    /// Validated prefix count, or `u32::MAX` while the slot is empty.
    count: u32,
    /// Kernel class whose uniform rate is memoized in `rate`, or
    /// `CLASS_CURVE` (which `rate_cached`-eligible classes can never
    /// equal) while no rate is memoized.
    rate_class: u32,
    /// Validated (clamped) prefix share.
    share: f64,
    /// Memoized `speed·Γ_{rate_class}(share)`.
    rate: f64,
}

impl CachedProfile {
    const EMPTY: Self = Self {
        count: u32::MAX,
        rate_class: CLASS_CURVE,
        share: 0.0,
        rate: 0.0,
    };

    /// `speed·Γ(share)` at this slot's share for the job in arena slot
    /// `idx`: replayed when the job's kernel class is the memoized one,
    /// else evaluated and, for a registry class, memoized in its place
    /// (ungrouped and non-power-law jobs are evaluated every time).
    #[inline]
    pub(crate) fn uniform_rate(&mut self, jobs: &JobArena, idx: usize, speed: f64) -> f64 {
        let class = jobs.class[idx];
        if class < CLASS_UNGROUPED && self.rate_class == class {
            return self.rate;
        }
        let rate = speed * jobs.gamma(idx, self.share);
        if class < CLASS_UNGROUPED {
            self.rate_class = class;
            self.rate = rate;
        }
        rate
    }
}

/// The per-`n` memo of the validated prefix profile, indexed by alive
/// count (slot 0 unused). O(peak alive) — the same order as the alive set
/// itself.
#[derive(Debug, Default)]
pub(crate) struct ProfileMemo {
    slots: Vec<CachedProfile>,
}

impl ProfileMemo {
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }

    /// The validated `(count, share)` profile for `n` alive jobs, replayed
    /// from the memo; the first time an alive count is seen,
    /// [`ProfileMemo::miss`] fills its slot (errors name the policy `name`).
    #[inline(always)]
    pub(crate) fn profile(
        &mut self,
        n: usize,
        policy: &dyn Policy,
        name: &str,
        now: Time,
        m: f64,
    ) -> Result<(usize, f64), SimError> {
        match self.slots.get(n) {
            Some(memo) if memo.count != u32::MAX => Ok((memo.count as usize, memo.share)),
            _ => self.miss(n, policy, name, now, m),
        }
    }

    /// The slot of `n` alive jobs, filled by [`ProfileMemo::profile`].
    #[inline]
    pub(crate) fn slot(&mut self, n: usize) -> &mut CachedProfile {
        &mut self.slots[n]
    }

    /// A memo miss of [`ProfileMemo::profile`]: queries
    /// [`Policy::prefix_allocation`], applies the exhaustive path's
    /// feasibility checks (same error taxonomy, `O(1)` instead of `O(n)`),
    /// and fills the slot, so the policy is asked at most once per
    /// distinct alive count per run. Out of line, so the event loop's
    /// refreshes carry only the replay.
    #[cold]
    #[inline(never)]
    fn miss(
        &mut self,
        n: usize,
        policy: &dyn Policy,
        name: &str,
        now: Time,
        m: f64,
    ) -> Result<(usize, f64), SimError> {
        if self.slots.len() <= n {
            self.slots.resize(n + 1, CachedProfile::EMPTY);
        }
        let Some(profile) = policy.prefix_allocation(n, m) else {
            return Err(SimError::BadInstance {
                // lint:allow(L007) error construction: an infeasible profile terminates the run
                what: format!(
                    "policy {name} declares {:?} stability but returned no prefix profile for n = {n}",
                    policy.stability()
                ),
            });
        };
        let invalid = (!profile.share.is_finite() || profile.share < -EPS).then_some(profile.share);
        let count = profile.count.clamp(1, n);
        let share = profile.share.max(0.0);
        let total = count as f64 * share;
        check_allocation(now, invalid, total, m, name)?;
        // lint:allow(L005, L007) count ≤ n ≤ the u32 arena-slot envelope the IdMap already enforces
        let count_u32 = u32::try_from(count).expect("alive count exceeds u32");
        self.slots[n] = CachedProfile {
            count: count_u32,
            rate_class: CLASS_CURVE,
            share,
            rate: 0.0,
        };
        Ok((count, share))
    }
}
