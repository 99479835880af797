//! The alive set behind the engine's level path, for policies that
//! declare [`crate::AllocationStability::LeastElapsed`] (SETF).
//!
//! Such a policy serves the jobs of least elapsed work `p_j − p_j(t)` at
//! one common rate, so jobs that are tied stay tied and the alive set
//! falls into **levels** of equal elapsed work. [`LevelStack`] keeps them
//! as a stack ordered by elapsed work, the least on top:
//!
//! * **the top level is the served group.** Its members drain at the
//!   group's common rate, so each level is a [`DrainedGroup`]: its members
//!   keyed by `remaining + D` under one drain offset `D`, the next
//!   completion at its heap's minimum, and an interval drained and
//!   integrated in `O(1)`. A level starts at elapsed work 0 with `D = 0`
//!   and gains elapsed work exactly as `D` grows, so `D` is also the
//!   level's elapsed work.
//! * **every other level is frozen**: it receives nothing, so its keys
//!   and offset stay put.
//! * **an arrival** has elapsed work 0, so it pushes a new one-job level
//!   on top, freezing the served group in `O(1)` (or joins the top level
//!   when that is still tied with elapsed work 0).
//! * **a catch-up** — the served level reaching the elapsed work of the
//!   level below — merges the two, small into large: the smaller level's
//!   entries are rebased into the larger one's offset space (`key −
//!   D_small + D_large`, remaining work unchanged; the two offsets differ
//!   by float residue at most, since the levels' elapsed work is tied)
//!   and pushed into its heap. A job only moves into a level at least twice its old one's
//!   size, so it moves `O(log n)` times and each merge costs amortized
//!   `O(log n)` per job moved. Levels whose elapsed work lies within
//!   [`ELAPSED_TIE_TOL`] of the top's merge the same way
//!   ([`LevelStack::settle`]).
//!
//! Each level also tallies its distinct speed-up curves with their member
//! counts ([`Tally`]), which is all a policy needs to find the served
//! group's common rate ([`crate::Policy::equalize_curves`]): `O(distinct
//! curves)` per evaluation instead of `O(members)`.
//!
//! Levels live in a slab and are recycled through a free list of slab
//! ids, so their heap and tally buffers are retained across levels and
//! across runs ([`LevelStack::reset`]).
//!
//! Every ordering operation takes the engine's arena spec lane, as the
//! SRPT set's do: equal keys tie-break by `(release, id)`. A heap's array
//! layout is part of the run state here: a merge pushes the smaller
//! level's entries in array order, and its sums accumulate in that order.
//! Snapshots therefore capture each level as its group captures itself,
//! array verbatim ([`DrainedSnap`]).

use parsched_speedup::{Curve, EPS};

use crate::alive_set::{
    check_allocation, completion_tolerance, recycle_views, AliveSet, AliveSets, Drained,
    IntervalKind, Refresh, Schedule,
};
use crate::arena::JobArena;
use crate::drained::{DrainedGroup, DrainedSnap};
use crate::error::SimError;
use crate::job::{JobSpec, Time, Work};
use crate::kahan::NeumaierSum;
use crate::policy::{CurveCount, ELAPSED_TIE_TOL};
use crate::snapshot::{in_range, SlotCheck, Snapshot};
use crate::srpt_set::{Entry, Slot};

/// Which curve a [`Tally`] entry counts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CurveTag {
    /// A parametric curve (every variant but piecewise), shared by all of
    /// the level's members that carry it bit for bit.
    Shared(Curve),
    /// A piecewise curve, counted per job: the arena slot of its one
    /// member (so the tally never clones a breakpoint list).
    Own(u32),
}

/// One distinct curve of a level and its member count.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tally {
    pub(crate) tag: CurveTag,
    pub(crate) count: u32,
}

/// Whether `tag` counts the job in arena slot `idx` with curve `curve`.
fn tag_counts(tag: &CurveTag, idx: u32, curve: &Curve) -> bool {
    match tag {
        CurveTag::Shared(c) => c.same_bits(curve),
        CurveTag::Own(slot) => *slot == idx,
    }
}

/// One level: jobs of (within tolerance) equal elapsed work. Its drain
/// offset is the level's elapsed work: the cumulative drain applied while
/// it was served.
#[derive(Debug, Default)]
struct Level {
    members: DrainedGroup,
    /// Distinct curves with member counts, in order of first appearance.
    tally: Vec<Tally>,
}

impl Level {
    /// The level's elapsed work (up to the tie tolerance).
    fn elapsed(&self) -> f64 {
        self.members.drain().offset
    }

    /// Adds a member with offset-space `key`, counting its curve.
    fn add(&mut self, e: Entry, curve: &Curve, specs: &[JobSpec]) {
        self.members.add(e, specs, &mut ());
        let shared = !matches!(curve, Curve::Piecewise(_));
        if shared {
            if let Some(t) = self
                .tally
                .iter_mut()
                .find(|t| tag_counts(&t.tag, e.idx, curve))
            {
                t.count += 1;
                return;
            }
        }
        self.tally.push(Tally {
            tag: if shared {
                CurveTag::Shared(curve.clone())
            } else {
                CurveTag::Own(e.idx)
            },
            count: 1,
        });
    }

    /// Forgets a removed member's curve.
    fn forget(&mut self, e: &Entry, curve: &Curve) {
        if let Some(c) = self
            .tally
            .iter()
            .position(|t| tag_counts(&t.tag, e.idx, curve))
        {
            if let Some(t) = self.tally.get_mut(c) {
                t.count -= 1;
                if t.count == 0 {
                    // `remove`, not `swap_remove`: the tally keeps the
                    // order of first appearance, which fixes the order of
                    // the policy's demand sum.
                    self.tally.remove(c);
                }
            }
        }
    }

    /// Empties the level, keeping its buffers.
    fn clear(&mut self) {
        self.members.clear();
        self.tally.clear();
    }
}

/// Where an alive job is: its level's slab id and its offset-space key.
#[derive(Debug, Clone, Copy, Default)]
struct Home {
    level: u32,
    key: f64,
}

/// One level as captured in a snapshot: its group and its tally.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LevelSnap {
    pub(crate) members: DrainedSnap,
    pub(crate) tally: Vec<Tally>,
}

/// Full [`LevelStack`] state: levels bottom first, and the frozen levels'
/// fractional sum bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LevelsSnap {
    pub(crate) levels: Vec<LevelSnap>,
    pub(crate) frozen: f64,
}

impl LevelsSnap {
    /// Checks the captured stack before restore rebuilds it: the frozen
    /// levels' sum finite, and each level's group as
    /// [`DrainedSnap::check`] checks it. A level's tally is what the
    /// policy equalizes over, so it must also count exactly its members'
    /// curves: each member under one row (a shared row matches its curve's
    /// bits, a slot row only the member in that slot), and each row as
    /// many members as it claims.
    pub(crate) fn check(&self, slots: &mut SlotCheck<'_>) -> Result<(), String> {
        in_range("levels", "frozen", self.frozen, false)?;
        for level in &self.levels {
            level.members.check("levels", slots)?;
            let mut counts = vec![0u32; level.tally.len()];
            for e in &level.members.entries {
                let spec = slots.spec(e.idx);
                let mut rows = level
                    .tally
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| tag_counts(&t.tag, e.idx as u32, &spec.curve))
                    .map(|(r, _)| r);
                match (rows.next(), rows.next()) {
                    (Some(r), None) => counts[r] += 1,
                    _ => {
                        return Err(format!(
                            "level tally does not count job {} exactly once",
                            spec.id
                        ))
                    }
                }
            }
            if let Some((t, counted)) = level
                .tally
                .iter()
                .zip(counts)
                .find(|(t, counted)| t.count != *counted)
            {
                return Err(format!(
                    "level tally row claims {} members, {counted} carry its curve",
                    t.count
                ));
            }
        }
        Ok(())
    }
}

/// The alive set as a stack of equal-elapsed levels; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct LevelStack {
    /// Every level ever used: the live ones (listed in `stack`) and
    /// cleared spares (listed in `spare`).
    slab: Vec<Level>,
    /// Slab ids of the live levels, bottom (most elapsed) first.
    stack: Vec<u32>,
    /// Slab ids of cleared levels, reused before the slab grows.
    // lint:allow(L009) free list of cleared levels; restore numbers the captured levels from 0 and starts with none spare
    spare: Vec<u32>,
    /// Per arena slot: the level and key of the job there (valid while
    /// the job is alive).
    // lint:allow(L009) rebuilt from the captured levels' member lists on restore
    home: Vec<Home>,
    /// `Σ remaining_j/p_j` over members of every level but the top.
    frozen: f64,
    /// Alive jobs.
    len: usize,
    /// Drain shape of the current interval: the served level's common
    /// rate, or idle.
    interval: IntervalKind,
    /// The buffer behind every view of the served level's distinct curves
    /// handed to [`crate::Policy::equalize_curves`], empty between uses.
    // lint:allow(L009) empty between events; it only lends its capacity to each curve view, so there is nothing to capture
    curves: Vec<CurveCount<'static>>,
    /// The share of each distinct curve of the served level (valid while
    /// the allocation is fresh). The drain itself runs on the interval
    /// rate; only audit frames read the shares.
    // lint:allow(L009) read only by audit frames, and snapshots require auditing off; the next refresh recomputes them
    curve_shares: Vec<f64>,
}

impl LevelStack {
    /// Live levels.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn top_id(&self) -> Option<usize> {
        self.stack.last().map(|&id| id as usize)
    }

    fn top(&self) -> Option<&Level> {
        self.top_id().and_then(|id| self.slab.get(id))
    }

    /// The served level's fractional flow over an interval of length `dt`
    /// at the common `rate` (0 when nothing is alive), after which its
    /// members have drained by `rate·dt`.
    pub fn integrate_top(&mut self, rate: f64, dt: f64) -> f64 {
        match self.top_id().and_then(|id| self.slab.get_mut(id)) {
            Some(top) => top.members.integrate(rate, dt),
            None => 0.0,
        }
    }

    /// `Σ remaining_j/p_j` over the frozen levels.
    pub fn frozen_frac_sum(&self) -> f64 {
        self.frozen
    }

    /// The served level's distinct curves and counts.
    pub fn top_tally(&self) -> &[Tally] {
        self.top().map_or(&[], |l| &l.tally)
    }

    /// The index in the served level's tally of the curve of its member
    /// in arena slot `idx`.
    pub fn top_curve_of(&self, idx: usize, curve: &Curve) -> Option<usize> {
        self.top_tally()
            .iter()
            .position(|t| tag_counts(&t.tag, idx as u32, curve))
    }

    /// Fills `out` with the served level's distinct curves and counts
    /// (piecewise curves read from the arena), in tally order.
    pub fn top_curves<'s>(&'s self, specs: &'s [JobSpec], out: &mut Vec<CurveCount<'s>>) {
        out.clear();
        for t in self.top_tally() {
            let curve = match &t.tag {
                CurveTag::Shared(c) => c,
                CurveTag::Own(slot) => &specs[*slot as usize].curve,
            };
            out.push(CurveCount {
                curve,
                count: t.count as usize,
            });
        }
    }

    /// Elapsed work the served level must gain to catch up with the level
    /// below it (`None` with one level or none).
    pub fn catch_up_gap(&self) -> Option<f64> {
        let n = self.stack.len();
        if n < 2 {
            return None;
        }
        let top = self.slab.get(self.stack[n - 1] as usize)?;
        let next = self.slab.get(self.stack[n - 2] as usize)?;
        Some(next.elapsed() - top.elapsed())
    }

    /// Admits the job in arena slot `idx` with `remaining` work and
    /// elapsed work 0. `specs[idx]` must already hold its spec.
    pub fn add(&mut self, idx: usize, remaining: Work, specs: &[JobSpec]) {
        let spec = &specs[idx];
        if idx >= self.home.len() {
            self.home.resize(idx + 1, Home::default());
        }
        // A fresh job ties with the top level while that one's elapsed
        // work is within the tolerance of 0 (see `settle`).
        let joins_top = self.top().is_some_and(|l| l.elapsed() <= ELAPSED_TIE_TOL);
        let id = match self.top_id() {
            Some(id) if joins_top => id,
            top => {
                if let Some(level) = top.and_then(|id| self.slab.get(id)) {
                    self.frozen += level.members.drain().frac();
                }
                let id = self.take_level();
                self.stack.push(id as u32);
                id
            }
        };
        let Some(level) = self.slab.get_mut(id) else {
            return;
        };
        let key = level.members.drain().key(remaining);
        level.add(
            Entry::new(key, idx, spec.size, false, false),
            &spec.curve,
            specs,
        );
        self.home[idx] = Home {
            level: id as u32,
            key,
        };
        self.len += 1;
    }

    /// A cleared level's slab id: a spare, or a new slab slot.
    fn take_level(&mut self) -> usize {
        match self.spare.pop() {
            Some(id) => id as usize,
            None => {
                self.slab.push(Level::default());
                self.slab.len() - 1
            }
        }
    }

    /// Merges the served level with the level below it (the catch-up),
    /// small into large.
    pub fn catch_up(&mut self, specs: &[JobSpec]) {
        let Some(top) = self.stack.pop() else {
            return;
        };
        let Some(&next) = self.stack.last() else {
            self.stack.push(top);
            return;
        };
        let (top, next) = (top as usize, next as usize);
        if let Some(level) = self.slab.get(next) {
            self.frozen -= level.members.drain().frac();
        }
        if self.stack.len() == 1 {
            self.frozen = 0.0;
        }
        let size = |id: usize| self.slab.get(id).map_or(0, |l| l.members.len());
        let (small, large) = if size(top) > size(next) {
            (next, top)
        } else {
            (top, next)
        };
        // Take the small level out of the slab so both can be borrowed;
        // it goes back cleared, buffers and all.
        let mut from = std::mem::take(&mut self.slab[small]);
        let into = &mut self.slab[large];
        let shift = into.elapsed() - from.elapsed();
        for &e in from.members.entries() {
            let key = e.key + shift;
            into.add(
                Entry::new(key, e.idx as usize, e.size, false, false),
                &specs[e.idx as usize].curve,
                specs,
            );
            self.home[e.idx as usize] = Home {
                level: large as u32,
                key,
            };
        }
        from.clear();
        self.slab[small] = from;
        self.spare.push(small as u32);
        if let Some(slot) = self.stack.last_mut() {
            *slot = large as u32;
        }
    }

    /// Merges into the served level every level below it whose elapsed
    /// work is tied with the served level's: within `ELAPSED_TIE_TOL ·
    /// max(e, 1)` of its elapsed work `e`, the least of any alive job (up
    /// to the tie tolerance).
    pub fn settle(&mut self, specs: &[JobSpec]) {
        while let (Some(gap), Some(top)) = (self.catch_up_gap(), self.top()) {
            if gap > ELAPSED_TIE_TOL * top.elapsed().max(1.0) {
                break;
            }
            self.catch_up(specs);
        }
    }

    /// The served level's member with the least remaining work: `(slot,
    /// remaining)`.
    pub fn front(&self) -> Option<(Slot, f64)> {
        self.top()?.members.front()
    }

    /// Pops [`LevelStack::front`] (a completion). When the served level
    /// empties, the level below becomes the served one.
    pub fn pop_front(&mut self, specs: &[JobSpec]) -> Option<(Slot, f64)> {
        let id = self.top_id()?;
        let top = self.slab.get_mut(id)?;
        let (e, remaining) = top.members.remove(0, specs, &mut ())?;
        top.forget(&e, &specs[e.idx as usize].curve);
        self.len -= 1;
        if top.members.is_empty() {
            top.clear();
            self.stack.pop();
            self.spare.push(id as u32);
            if let Some(level) = self.top() {
                self.frozen -= level.members.drain().frac();
            }
            if self.stack.len() <= 1 {
                self.frozen = 0.0;
            }
        }
        Some((e.slot(), remaining))
    }

    /// Remaining work of the alive job in arena slot `idx`.
    pub fn remaining_of(&self, idx: usize) -> Option<Work> {
        let home = self.home.get(idx)?;
        let level = self.slab.get(home.level as usize)?;
        Some(level.members.drain().remaining(home.key))
    }

    /// Visits every alive job as `(arena slot, remaining, served)`, the
    /// served level first, each level in heap-array order.
    pub fn for_each(&self, mut f: impl FnMut(usize, f64, bool)) {
        for (depth, &id) in self.stack.iter().rev().enumerate() {
            if let Some(level) = self.slab.get(id as usize) {
                let drain = level.members.drain();
                for e in level.members.entries() {
                    f(e.idx as usize, drain.remaining(e.key), depth == 0);
                }
            }
        }
    }

    /// Captures the full state (see [`LevelsSnap`]).
    pub(crate) fn snapshot_state(&self, specs: &[JobSpec]) -> LevelsSnap {
        let levels = self
            .stack
            .iter()
            .filter_map(|&id| self.slab.get(id as usize))
            .map(|level| LevelSnap {
                members: level.members.snapshot(specs),
                tally: level.tally.clone(),
            })
            .collect();
        LevelsSnap {
            levels,
            frozen: self.frozen,
        }
    }

    /// Restores the state captured by [`LevelStack::snapshot_state`],
    /// retaining buffer capacity. Each level's group is restored as
    /// [`DrainedGroup::restore`] does; tallies are installed verbatim. The
    /// caller has checked the snapshot ([`LevelsSnap::check`]).
    pub(crate) fn restore_state(&mut self, snap: &LevelsSnap, specs: &[JobSpec]) {
        self.reset();
        self.spare.clear();
        for (i, ls) in snap.levels.iter().enumerate() {
            if i == self.slab.len() {
                self.slab.push(Level::default());
            }
            let level = &mut self.slab[i];
            level.members.restore(&ls.members, specs, &mut ());
            level.tally.extend(ls.tally.iter().cloned());
            for e in &ls.members.entries {
                if e.idx >= self.home.len() {
                    self.home.resize(e.idx + 1, Home::default());
                }
                self.home[e.idx] = Home {
                    level: i as u32,
                    key: e.key,
                };
                self.len += 1;
            }
            self.stack.push(i as u32);
        }
        self.spare
            .extend((snap.levels.len()..self.slab.len()).rev().map(|i| i as u32));
        self.frozen = snap.frozen;
    }
}

impl AliveSet for LevelStack {
    fn of(sets: &AliveSets) -> &Self {
        &sets.levels
    }

    fn of_mut(sets: &mut AliveSets) -> &mut Self {
        &mut sets.levels
    }

    fn len(&self) -> usize {
        self.len
    }

    fn reset(&mut self) {
        for level in &mut self.slab {
            level.clear();
        }
        self.stack.clear();
        self.spare.clear();
        self.spare.extend((0..self.slab.len() as u32).rev());
        self.home.clear();
        self.frozen = 0.0;
        self.len = 0;
        self.interval = IntervalKind::Idle;
        self.curves.clear();
        self.curve_shares.clear();
    }

    fn admit(&mut self, idx: usize, remaining: Work, jobs: &mut JobArena) {
        self.add(idx, remaining, &jobs.specs);
    }

    /// Merges the levels tied with the served one, asks the policy for the
    /// served level's common rate and per-curve shares
    /// ([`crate::Policy::equalize_curves`], given its distinct curves and
    /// their counts), validates them as the exhaustive path would, and
    /// schedules the interval: a uniform drain at the served level's rate,
    /// its front completion, and the catch-up with the level below as the
    /// re-decision deadline. `O(distinct curves)` plus the policy's
    /// equalizer, and the amortized merge cost.
    ///
    /// The drain rate is `speed·Γ(share)` of the level's first curve. The
    /// other curves' rates differ from it by rounding only, since each
    /// share is its curve's inverse at the common rate.
    fn refresh(&mut self, cx: Refresh<'_>) -> Result<Schedule, SimError> {
        let specs = &cx.jobs.specs;
        self.settle(specs);
        let mut shares = std::mem::take(&mut self.curve_shares);
        let mut curves: Vec<CurveCount<'_>> = std::mem::take(&mut self.curves);
        self.top_curves(specs, &mut curves);
        if curves.is_empty() {
            self.curves = recycle_views(curves);
            self.curve_shares = shares;
            self.interval = IntervalKind::Idle;
            return Ok(Schedule::default());
        }
        shares.clear();
        shares.resize(curves.len(), 0.0);
        let rho = cx.policy.equalize_curves(cx.m, &curves, &mut shares);
        let mut total = 0.0;
        let mut invalid = None;
        for (c, share) in curves.iter().zip(&mut shares) {
            if !share.is_finite() || *share < -EPS {
                invalid = Some(*share);
                break;
            }
            *share = share.max(0.0);
            total += c.count as f64 * *share;
        }
        let rate = match (curves.first(), shares.first()) {
            (Some(c), Some(&share)) => cx.speed * c.curve.rate(share),
            _ => 0.0,
        };
        self.curves = recycle_views(curves);
        self.curve_shares = shares;
        // A policy that declares the level contract but returns no rate
        // has answered with no valid share.
        let invalid = if rho.is_none() {
            Some(f64::NAN)
        } else {
            invalid
        };
        check_allocation(cx.now, invalid, total, cx.m, cx.policy_name)?;
        let mut schedule = Schedule::default();
        if rate > 0.0 {
            if let Some((_, rem)) = self.front() {
                schedule.completion = Some(cx.now + rem / rate);
            }
            if let Some(gap) = self.catch_up_gap() {
                schedule.deadline = Some(cx.now + gap.max(0.0) / rate);
            }
        }
        self.interval = IntervalKind::Uniform { rate };
        Ok(schedule)
    }

    /// `O(1)`: the served level drains uniformly, as one group (its
    /// fractional flow in closed form), and the frozen levels contribute
    /// their static sum times `dt`.
    fn integrate(
        &mut self,
        dt: f64,
        _t: Time,
        _jobs: &mut JobArena,
        _speed: f64,
        frac_flow: &mut NeumaierSum,
    ) -> Drained {
        if let IntervalKind::Uniform { rate } = self.interval {
            let run = self.integrate_top(rate, dt);
            frac_flow.add(run + self.frozen_frac_sum() * dt);
        }
        Drained::MaybeDue
    }

    /// Only the served level drains, and its members drain at one rate,
    /// so only the front of its heap can be due — pop while it is. A
    /// frozen job cannot be due: it was not due when its level froze,
    /// under a tolerance at least as wide. When the served level empties,
    /// the level below it was frozen all interval: stop there, and drop
    /// the catch-up deadline, which the emptied level owned.
    fn complete_due(
        &mut self,
        now: Time,
        jobs: &mut JobArena,
        _speed: f64,
        deadline: &mut Option<Time>,
        mut finish: impl FnMut(&mut JobArena, usize),
    ) -> bool {
        let rate = match self.interval {
            IntervalKind::Uniform { rate } => rate,
            IntervalKind::Scan | IntervalKind::Idle => 0.0,
        };
        let depth = self.depth();
        let mut completed_any = false;
        while let Some((slot, rem)) = self.front() {
            if rem > completion_tolerance(slot.size, rate, now) {
                break;
            }
            self.pop_front(&jobs.specs);
            finish(jobs, slot.idx);
            completed_any = true;
            if self.depth() < depth {
                *deadline = None;
                break;
            }
        }
        completed_any
    }

    /// The deadline is the served level's catch-up with the level below:
    /// merge the two, before this instant's arrivals stack new levels on
    /// top.
    fn expire(&mut self, specs: &[JobSpec], deadline: &mut Option<Time>) {
        *deadline = None;
        self.catch_up(specs);
    }

    fn remaining(&self, idx: usize, _jobs: &JobArena) -> Work {
        self.remaining_of(idx).unwrap_or(0.0)
    }

    fn walk(&self, _jobs: &JobArena, mut f: impl FnMut(usize, Work)) {
        self.for_each(|idx, rem, _| f(idx, rem));
    }

    fn audit(
        &self,
        jobs: &JobArena,
        _speed: f64,
        mut f: impl FnMut(usize, Work, f64, f64),
    ) -> Option<usize> {
        let rate = match self.interval {
            IntervalKind::Uniform { rate } => rate,
            IntervalKind::Scan | IntervalKind::Idle => 0.0,
        };
        self.for_each(|idx, rem, served| {
            if served {
                let share = self
                    .top_curve_of(idx, &jobs.specs[idx].curve)
                    .and_then(|c| self.curve_shares.get(c))
                    .copied()
                    .unwrap_or(0.0);
                f(idx, rem, share, rate);
            } else {
                f(idx, rem, 0.0, 0.0);
            }
        });
        None
    }

    fn snapshot(&self, specs: &[JobSpec], snap: &mut Snapshot) {
        snap.levels = Some(self.snapshot_state(specs));
        snap.interval = self.interval;
    }

    fn check(snap: &Snapshot, slots: &mut SlotCheck<'_>) -> Result<(), String> {
        match &snap.levels {
            Some(levels) => levels.check(slots),
            None => Ok(()),
        }
    }

    fn restore(&mut self, snap: &Snapshot, jobs: &mut JobArena, _speed: f64) {
        if let Some(levels) = &snap.levels {
            self.restore_state(levels, &jobs.specs);
        }
        self.interval = snap.interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    fn spec(id: u64, size: Work, curve: Curve) -> JobSpec {
        JobSpec::new(JobId(id), 0.0, size, curve)
    }

    /// Drains the served level by `amount` (a unit-length interval).
    fn advance(set: &mut LevelStack, amount: f64) {
        set.integrate_top(amount, 1.0);
    }

    /// 64-bit LCG stream for the model fuzzer.
    fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut rng = seed;
        move |m: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % m
        }
    }

    #[test]
    fn arrivals_freeze_the_served_level_and_catch_up_merges() {
        let specs = vec![
            spec(0, 4.0, Curve::Sequential),
            spec(1, 3.0, Curve::Sequential),
        ];
        let mut set = LevelStack::default();
        set.add(0, 4.0, &specs);
        advance(&mut set, 1.0);
        set.add(1, 3.0, &specs);
        assert_eq!(set.depth(), 2);
        assert_eq!(set.catch_up_gap(), Some(1.0));
        // Job 0 is frozen at 3.0, job 1 served.
        assert_eq!(set.remaining_of(0), Some(3.0));
        assert!((set.frozen_frac_sum() - 0.75).abs() < 1e-12);
        advance(&mut set, 1.0);
        set.catch_up(&specs);
        assert_eq!(set.depth(), 1);
        assert_eq!(set.frozen_frac_sum(), 0.0);
        assert_eq!(set.remaining_of(0), Some(3.0));
        assert_eq!(set.remaining_of(1), Some(2.0));
        assert_eq!(set.front().map(|(s, _)| s.idx), Some(1));
        assert_eq!(set.top_tally().len(), 1);
        assert_eq!(set.top_tally()[0].count, 2);
    }

    #[test]
    fn tolerance_merge_rebases_the_smaller_level() {
        // Job 1's level stops 5·10⁻⁸ short of job 0's elapsed work, inside
        // the tie tolerance: `settle` merges them, and each job keeps its
        // remaining work across the rebase into the other's offset space.
        let specs = vec![
            spec(0, 4.0, Curve::Sequential),
            spec(1, 3.0, Curve::Sequential),
            spec(2, 5.0, Curve::Sequential),
        ];
        let mut set = LevelStack::default();
        set.add(0, 4.0, &specs);
        advance(&mut set, 1.0);
        set.add(1, 3.0, &specs);
        advance(&mut set, 1.0 - 5e-8);
        let before = [set.remaining_of(0), set.remaining_of(1)];
        set.settle(&specs);
        assert_eq!(set.depth(), 1);
        for (idx, want) in before.into_iter().enumerate() {
            let (got, want) = (set.remaining_of(idx).unwrap(), want.unwrap());
            assert!((got - want).abs() < 1e-12, "job {idx}: {got} vs {want}");
        }
        // The larger level absorbs the smaller: job 2 joins job 1's level
        // first, so that one is the larger when job 0's catches up.
        let mut set = LevelStack::default();
        set.add(0, 4.0, &specs);
        advance(&mut set, 1.0);
        set.add(1, 3.0, &specs);
        set.add(2, 5.0, &specs);
        advance(&mut set, 1.0 - 5e-8);
        let before: Vec<f64> = (0..3).map(|i| set.remaining_of(i).unwrap()).collect();
        set.settle(&specs);
        assert_eq!(set.depth(), 1);
        for (idx, want) in before.into_iter().enumerate() {
            let got = set.remaining_of(idx).unwrap();
            assert!((got - want).abs() < 1e-12, "job {idx}: {got} vs {want}");
        }
    }

    #[test]
    fn fresh_arrivals_join_a_top_level_still_at_zero() {
        let specs: Vec<JobSpec> = (0..3)
            .map(|i| spec(i, 1.0 + i as f64, Curve::power(0.5)))
            .collect();
        let mut set = LevelStack::default();
        for (i, s) in specs.iter().enumerate() {
            set.add(i, s.size, &specs);
        }
        assert_eq!(set.depth(), 1);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn tallies_count_shared_curves_once_and_piecewise_per_job() {
        let pwl = Curve::Piecewise(
            parsched_speedup::PiecewiseLinear::saturating(3.0).expect("saturating"),
        );
        let specs = vec![
            spec(0, 1.0, Curve::power(0.5)),
            spec(1, 2.0, pwl.clone()),
            spec(2, 3.0, Curve::power(0.5)),
            spec(3, 4.0, pwl),
        ];
        let mut set = LevelStack::default();
        for (i, s) in specs.iter().enumerate() {
            set.add(i, s.size, &specs);
        }
        let counts: Vec<u32> = set.top_tally().iter().map(|t| t.count).collect();
        assert_eq!(counts, vec![2, 1, 1]);
        let mut curves = Vec::new();
        set.top_curves(&specs, &mut curves);
        assert_eq!(curves.len(), 3);
        // Completions give the counts back, removing emptied entries.
        set.pop_front(&specs);
        let counts: Vec<u32> = set.top_tally().iter().map(|t| t.count).collect();
        assert_eq!(counts, vec![1, 1, 1]);
        set.pop_front(&specs);
        assert_eq!(set.top_tally().len(), 2);
    }

    #[test]
    fn reset_retains_levels_for_reuse() {
        let specs: Vec<JobSpec> = (0..8).map(|i| spec(i, 1.0, Curve::Sequential)).collect();
        let mut set = LevelStack::default();
        for i in 0..8 {
            set.add(i, 1.0, &specs);
            advance(&mut set, 0.01);
        }
        assert_eq!(set.depth(), 8);
        set.reset();
        assert_eq!(set.len(), 0);
        assert_eq!(set.depth(), 0);
        assert_eq!(set.spare.len(), 8);
        set.add(0, 1.0, &specs);
        assert_eq!(set.depth(), 1);
        assert_eq!(set.slab.len(), 8);
    }

    /// One job of the brute-force model: slot, remaining work, elapsed
    /// work.
    #[derive(Debug, Clone, Copy)]
    struct ModelJob {
        idx: usize,
        remaining: f64,
        elapsed: f64,
    }

    /// Level-stack fuzz against a brute-force per-job model: arrivals,
    /// drains, completions, catch-ups, tolerance merges, and rebases of
    /// one level into another's offset space, with every job's remaining
    /// work, the served set, the completion order, the fractional sums and
    /// the curve tallies checked after each step.
    #[test]
    fn level_stack_matches_per_job_model_under_churn() {
        let mut next = lcg(0x7e57_1e7e_15ed_0001);
        let curves = [
            Curve::power(0.25),
            Curve::power(0.5),
            Curve::Sequential,
            Curve::Piecewise(parsched_speedup::PiecewiseLinear::saturating(2.0).expect("pwl")),
        ];
        let mut merges = [0u32; 2];
        let mut tolerance_merges = 0;
        for round in 0..30 {
            let mut specs: Vec<JobSpec> = Vec::new();
            let mut set = LevelStack::default();
            let mut model: Vec<ModelJob> = Vec::new();
            for step in 0..400 {
                let ctx = format!("round {round} step {step}");
                match next(5) {
                    0 | 1 => {
                        let idx = specs.len();
                        let size = 0.5 + next(64) as f64 / 8.0;
                        let curve = curves[next(curves.len() as u64) as usize].clone();
                        specs.push(JobSpec::new(
                            JobId(idx as u64),
                            f64::from(step),
                            size,
                            curve,
                        ));
                        set.add(idx, size, &specs);
                        model.push(ModelJob {
                            idx,
                            remaining: size,
                            elapsed: 0.0,
                        });
                    }
                    2 => {
                        // Drain the served level part of the way to its
                        // next completion or catch-up, whichever is first.
                        let Some((_, front)) = set.front() else {
                            continue;
                        };
                        let gap = set.catch_up_gap().unwrap_or(f64::INFINITY);
                        let amount = front.min(gap) * (1 + next(3)) as f64 / 4.0;
                        let served = served_in(&model);
                        advance(&mut set, amount);
                        for j in model.iter_mut().filter(|j| served.contains(&j.idx)) {
                            j.remaining -= amount;
                            j.elapsed += amount;
                        }
                    }
                    3 => {
                        // Drain exactly to the catch-up and merge.
                        let Some(gap) = set.catch_up_gap() else {
                            continue;
                        };
                        let Some((_, front)) = set.front() else {
                            continue;
                        };
                        if gap >= front {
                            continue;
                        }
                        let served = served_in(&model);
                        advance(&mut set, gap);
                        for j in model.iter_mut().filter(|j| served.contains(&j.idx)) {
                            j.remaining -= gap;
                            j.elapsed += gap;
                        }
                        let n = set.stack.len();
                        let size = |k: usize| set.slab[set.stack[k] as usize].members.len();
                        merges[usize::from(size(n - 1) > size(n - 2))] += 1;
                        set.catch_up(&specs);
                    }
                    _ => {
                        // Drain to the front completion and pop it.
                        let Some((slot, front)) = set.front() else {
                            continue;
                        };
                        if set.catch_up_gap().is_some_and(|g| g < front) {
                            continue;
                        }
                        let served = served_in(&model);
                        advance(&mut set, front);
                        for j in model.iter_mut().filter(|j| served.contains(&j.idx)) {
                            j.remaining -= front;
                            j.elapsed += front;
                        }
                        let (popped, left) = set.pop_front(&specs).expect("front exists");
                        assert_eq!(popped.idx, slot.idx, "{ctx}");
                        assert!(left.abs() < 1e-9, "{ctx}: leftover {left}");
                        let pos = model
                            .iter()
                            .position(|j| j.idx == popped.idx)
                            .expect("in model");
                        // The completing job has the least remaining work
                        // of the served group (ties broken by id).
                        let least = model
                            .iter()
                            .filter(|j| served.contains(&j.idx))
                            .map(|j| j.remaining)
                            .fold(f64::INFINITY, f64::min);
                        assert!((model[pos].remaining - least).abs() < 1e-9, "{ctx}");
                        model.remove(pos);
                    }
                }
                let depth = set.depth();
                set.settle(&specs);
                tolerance_merges += depth - set.depth();
                check_against_model(&set, &model, &specs, &ctx);
            }
        }
        // Both merge directions (the served level rebased into the one
        // below, and the one below into it) and tolerance merges ran.
        assert!(merges[0] > 0 && merges[1] > 0, "merges {merges:?}");
        assert!(tolerance_merges > 0);
    }

    /// The model's served group: jobs tied with the least elapsed work.
    fn served_in(model: &[ModelJob]) -> Vec<usize> {
        let least = model
            .iter()
            .map(|j| j.elapsed)
            .fold(f64::INFINITY, f64::min);
        let cut = least + ELAPSED_TIE_TOL * least.max(1.0) + 1e-9;
        model
            .iter()
            .filter(|j| j.elapsed <= cut)
            .map(|j| j.idx)
            .collect()
    }

    fn check_against_model(set: &LevelStack, model: &[ModelJob], specs: &[JobSpec], ctx: &str) {
        assert_eq!(set.len(), model.len(), "{ctx}: alive count");
        let mut served = Vec::new();
        let mut seen = 0;
        set.for_each(|idx, rem, top| {
            seen += 1;
            let j = model.iter().find(|j| j.idx == idx).expect("alive in model");
            assert!(
                (rem - j.remaining).abs() < 1e-9,
                "{ctx}: slot {idx} remaining {rem} vs model {}",
                j.remaining
            );
            assert_eq!(set.remaining_of(idx).map(f64::to_bits), Some(rem.to_bits()));
            if top {
                served.push(idx);
            }
        });
        assert_eq!(seen, model.len(), "{ctx}: visited");
        let mut want = served_in(model);
        want.sort_unstable();
        served.sort_unstable();
        assert_eq!(served, want, "{ctx}: served group");
        // Levels are ordered by elapsed work, the least on top, and every
        // member's elapsed work is its level's.
        let mut last = f64::NEG_INFINITY;
        for &id in set.stack.iter().rev() {
            let level = &set.slab[id as usize];
            assert!(level.elapsed() >= last - 1e-9, "{ctx}: stack order");
            last = level.elapsed();
            for e in level.members.entries() {
                let j = model
                    .iter()
                    .find(|j| j.idx == e.idx as usize)
                    .expect("model");
                assert!(
                    (j.elapsed - level.elapsed()).abs() < 1e-6,
                    "{ctx}: level elapsed"
                );
            }
            // Tally counts sum to the level's size, and each entry counts
            // its own members.
            let total: u32 = level.tally.iter().map(|t| t.count).sum();
            assert_eq!(total as usize, level.members.len(), "{ctx}: tally total");
            for t in &level.tally {
                let members = level
                    .members
                    .entries()
                    .iter()
                    .filter(|e| tag_counts(&t.tag, e.idx, &specs[e.idx as usize].curve))
                    .count();
                assert_eq!(members, t.count as usize, "{ctx}: tally {:?}", t.tag);
            }
            // The level's sums match a fresh summation.
            let s1: f64 = level.members.entries().iter().map(|e| 1.0 / e.size).sum();
            let have = level.members.drain().s1;
            assert!((have - s1).abs() < 1e-9 * s1.max(1.0), "{ctx}: s1");
        }
        // Fractional sums: served level in closed form plus the frozen sum.
        let served = set.top().map_or(0.0, |l| l.members.drain().frac());
        let frac = served + set.frozen_frac_sum();
        let want: f64 = model.iter().map(|j| j.remaining / specs[j.idx].size).sum();
        assert!(
            (frac - want).abs() < 1e-7 * want.max(1.0),
            "{ctx}: fractional sum {frac} vs {want}"
        );
    }

    #[test]
    fn snapshot_round_trip_rebuilds_identical_heaps() {
        let specs: Vec<JobSpec> = (0..40)
            .map(|i| spec(i, 1.0 + (i * 7 % 13) as f64, Curve::power(0.5)))
            .collect();
        let mut set = LevelStack::default();
        for i in 0..40 {
            set.add(i, specs[i].size, &specs);
            advance(&mut set, 0.05 * (i % 3) as f64);
            if i % 5 == 4 {
                set.catch_up(&specs);
            }
        }
        let snap = set.snapshot_state(&specs);
        let mut back = LevelStack::default();
        back.restore_state(&snap, &specs);
        assert_eq!(back.snapshot_state(&specs), snap);
        assert_eq!(back.len(), set.len());
        for i in 0..40 {
            assert_eq!(
                back.remaining_of(i).map(f64::to_bits),
                set.remaining_of(i).map(f64::to_bits)
            );
        }
    }
}
