//! The alive set behind the engine's arrival-suffix path, for policies
//! that declare [`crate::AllocationStability::LatestArrivals`] (LAPS).
//!
//! Such a policy gives one common share to the `k` latest arrivals in
//! `(release, id)` order and nothing to the rest, with `(k, share)` a
//! function of the alive count alone. [`ArrivalSuffix`] keeps:
//!
//! * **every alive job on one doubly linked list in `(release, id)`
//!   order**. The nodes are dense (`O(alive)`, a completion moves the last
//!   node into its hole), with one `u32` per arena slot mapping a slot to
//!   its node. The running set is the list's suffix from a
//!   *boundary* node (the oldest running job) to the tail; the waiting
//!   jobs are the prefix before it. Waiting jobs get no share, so they
//!   never complete and leave the prefix only from its newest end: the
//!   prefix is a stack with the latest on top. Demoting the oldest running
//!   job and promoting the latest waiting one each move the boundary one
//!   node, `O(1)` on the list.
//! * **the running jobs in one [`DrainedGroup`] per curve**: members of a
//!   group carry bit-identical curves, so at the common share they drain
//!   at one rate, and one drain offset `D_g` stands for all of them. Each
//!   member is keyed by `remaining + D_g`, the group's next completion is
//!   its heap's minimum, and an interval drains and integrates each group
//!   in `O(1)`. A single-α workload has one group; mixed curves have one
//!   per distinct curve. The heaps track their members' positions, so a
//!   demotion removes the oldest running job from its group in
//!   `O(log n)`.
//!
//! An arrival is linked in by walking back from the tail past the jobs
//! that follow it in `(release, id)` order — none when the source emits
//! in that order, as replayed instances and the workload generators do —
//! and joins the running suffix when it lands after the boundary. The
//! engine then restores the running count to `k` with
//! [`ArrivalSuffix::rebalance`]. Since `k` moves by at most one per
//! arrival or completion, that is one demotion or promotion per event.
//!
//! Waiting jobs keep their literal remaining work; their fractional sum
//! is maintained beside the groups' sums, so an interval's fractional
//! flow has the groups' closed form, one term per group.
//!
//! Snapshots capture each group as it captures itself, heap array verbatim
//! ([`DrainedSnap`]), and the waiting stack in order.

use std::cmp::Ordering;

use crate::alive_set::{completion_tolerance, AliveSet, AliveSets, Drained, Refresh, Schedule};
use crate::arena::JobArena;
use crate::drained::{DrainedGroup, DrainedSnap};
use crate::error::SimError;
use crate::job::{JobId, JobSpec, Time, Work};
use crate::kahan::NeumaierSum;
use crate::policy::PrefixAllocation;
use crate::snapshot::{in_range, SlotCheck, Snapshot};
use crate::srpt_set::{Entry, HeapEntrySnap, HeapTrack, Slot, REBASE_LIMIT};

/// The null link.
const NIL: u32 = u32::MAX;

/// One alive job: its arena slot, its list links (node ids) and, while it
/// runs, its group and heap position.
#[derive(Debug, Clone, Copy)]
struct Node {
    slot: u32,
    prev: u32,
    next: u32,
    /// Slab id of the job's group while it runs, `NIL` while it waits.
    group: u32,
    /// Position in the group's heap array while it runs.
    pos: u32,
    /// Offset-space key `remaining + D_g` while running, the literal
    /// remaining work while waiting.
    key: f64,
}

/// Records heap moves (reported by arena slot) into the moved job's node.
struct Positions<'a> {
    node_of: &'a [u32],
    node: &'a mut [Node],
}

impl HeapTrack for Positions<'_> {
    #[inline]
    fn moved(&mut self, idx: u32, pos: usize) {
        let id = self.node_of.get(idx as usize).copied().unwrap_or(NIL);
        if let Some(node) = self.node.get_mut(id as usize) {
            node.pos = pos as u32;
        }
    }
}

/// The running jobs of one curve: they drain at one rate.
#[derive(Debug, Default)]
struct Group {
    members: DrainedGroup,
    /// Speed-adjusted drain rate of the current interval.
    rate: f64,
}

impl Group {
    fn clear(&mut self) {
        self.members.clear();
        self.rate = 0.0;
    }
}

/// One curve group as captured: its members and the interval rate
/// bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GroupSnap {
    pub(crate) members: DrainedSnap,
    pub(crate) rate: f64,
}

/// Full [`ArrivalSuffix`] state: the waiting stack oldest first (keys are
/// remaining work), the groups in formation order, and the waiting jobs'
/// fractional sum bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SuffixSnap {
    pub(crate) waiting: Vec<HeapEntrySnap>,
    pub(crate) groups: Vec<GroupSnap>,
    pub(crate) waiting_frac: f64,
}

impl SuffixSnap {
    /// Every captured job: the waiting stack, then each group's array.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &HeapEntrySnap> {
        self.waiting
            .iter()
            .chain(self.groups.iter().flat_map(|g| &g.members.entries))
    }

    /// Checks the captured suffix before restore rebuilds it: the waiting
    /// jobs' sum finite, each waiting entry with a finite, non-negative
    /// key (its remaining work) accepted by [`SlotCheck::entry`], and each
    /// group non-empty, with a finite rate, checked as
    /// [`DrainedSnap::check`] checks it, and its members sharing one
    /// curve, since they drain at one rate. The waiting stack must be in
    /// strict `(release, id)` order with every waiting job older than
    /// every running one.
    pub(crate) fn check(&self, slots: &mut SlotCheck<'_>) -> Result<(), String> {
        in_range("suffix", "waiting_frac", self.waiting_frac, false)?;
        for e in &self.waiting {
            in_range("suffix", "waiting", e.key, true)?;
            slots.entry("suffix", e)?;
        }
        for g in &self.groups {
            let entries = &g.members.entries;
            let Some(first) = entries.first() else {
                return Err("suffix group holds no member".into());
            };
            in_range("suffix", "rate", g.rate, false)?;
            g.members.check("suffix", slots)?;
            let curve = &slots.spec(first.idx).curve;
            if entries
                .iter()
                .any(|e| !slots.spec(e.idx).curve.same_bits(curve))
            {
                return Err(format!(
                    "suffix group of job {} mixes speed-up curves",
                    first.id
                ));
            }
        }
        let order = |a: &HeapEntrySnap, b: &HeapEntrySnap| {
            arrival_order((a.release, a.id), (b.release, b.id))
        };
        if self
            .waiting
            .windows(2)
            .any(|w| order(&w[0], &w[1]) != Ordering::Less)
        {
            return Err("suffix waiting stack is not in (release, id) order".into());
        }
        let oldest_running = self
            .groups
            .iter()
            .flat_map(|g| &g.members.entries)
            .min_by(|a, b| order(a, b));
        if let (Some(w), Some(r)) = (self.waiting.last(), oldest_running) {
            if order(w, r) != Ordering::Less {
                return Err(format!(
                    "suffix waiting job {} is not older than running job {}",
                    w.id, r.id
                ));
            }
        }
        Ok(())
    }
}

/// The `(release, id)` order of two arrivals.
#[inline]
fn arrival_order(a: (Time, JobId), b: (Time, JobId)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Whether the job in slot `a` precedes the one in slot `b` in
/// `(release, id)` order.
#[inline]
fn precedes(a: usize, b: usize, specs: &[JobSpec]) -> bool {
    let (a, b) = (&specs[a], &specs[b]);
    arrival_order((a.release, a.id), (b.release, b.id)) == Ordering::Less
}

/// The alive set as a `(release, id)`-ordered list whose suffix runs in
/// per-curve heaps; see the module docs.
///
/// The list's nodes are dense: `node` holds exactly the alive jobs, and a
/// completion moves the last node into the hole it leaves, so the
/// structure holds `O(alive)` nodes plus one `u32` per arena slot.
#[derive(Debug)]
pub(crate) struct ArrivalSuffix {
    /// The alive jobs; a job's node id is its index here.
    node: Vec<Node>,
    /// Per arena slot: the node id of the job there, `NIL` when none is
    /// alive.
    node_of: Vec<u32>,
    /// Oldest alive job.
    head: u32,
    /// Latest alive job.
    tail: u32,
    /// Oldest running job, `NIL` when none runs.
    boundary: u32,
    /// Running jobs.
    running: usize,
    /// Every group ever used: the live ones (listed in `live`) and
    /// cleared spares, which are the empty ones.
    slab: Vec<Group>,
    /// Slab ids of the live groups, in order of formation.
    live: Vec<u32>,
    /// `Σ remaining_j/p_j` over waiting jobs.
    waiting_frac: f64,
    /// The policy's `(count, share)` profile for the current interval.
    profile: PrefixAllocation,
}

impl Default for ArrivalSuffix {
    fn default() -> Self {
        Self {
            node: Vec::new(),
            node_of: Vec::new(),
            head: NIL,
            tail: NIL,
            boundary: NIL,
            running: 0,
            slab: Vec::new(),
            live: Vec::new(),
            waiting_frac: 0.0,
            profile: PrefixAllocation::default(),
        }
    }
}

impl ArrivalSuffix {
    /// The node of the alive job in arena slot `idx`.
    fn id_of(&self, idx: usize) -> Option<usize> {
        self.node_of
            .get(idx)
            .filter(|&&id| id != NIL)
            .map(|&id| id as usize)
    }

    /// Links the job in arena slot `idx` (whose spec `specs[idx]` already
    /// holds) into the list with `remaining` work: running when it lands
    /// after the boundary, waiting otherwise. The caller follows up with
    /// [`ArrivalSuffix::rebalance`] once the batch is in.
    pub fn insert(&mut self, idx: usize, remaining: Work, specs: &[JobSpec]) {
        if idx >= self.node_of.len() {
            self.node_of.resize(idx + 1, NIL);
        }
        let id = self.node.len() as u32;
        let mut after = self.tail;
        let mut passed_boundary = false;
        while after != NIL && precedes(idx, self.node[after as usize].slot as usize, specs) {
            passed_boundary |= after == self.boundary;
            after = self.node[after as usize].prev;
        }
        let next = if after == NIL {
            self.head
        } else {
            self.node[after as usize].next
        };
        self.node.push(Node {
            slot: idx as u32,
            prev: after,
            next,
            group: NIL,
            pos: NIL,
            key: 0.0,
        });
        self.node_of[idx] = id;
        if after == NIL {
            self.head = id;
        } else {
            self.node[after as usize].next = id;
        }
        if next == NIL {
            self.tail = id;
        } else {
            self.node[next as usize].prev = id;
        }
        if self.boundary != NIL && !passed_boundary {
            self.running += 1;
            self.join(id as usize, remaining, specs);
        } else {
            self.wait(id as usize, remaining, specs);
        }
    }

    /// Records the job of node `id` as waiting with `remaining` work.
    fn wait(&mut self, id: usize, remaining: Work, specs: &[JobSpec]) {
        let node = &mut self.node[id];
        node.key = remaining;
        self.waiting_frac += remaining / specs[node.slot as usize].size;
    }

    /// Adds the job of node `id` to the group of its curve (forming one in
    /// the first cleared slab entry when none is live) with `remaining`
    /// work. Both searches are linear in the groups, which a workload
    /// holds few of: one per distinct curve among the running jobs.
    fn join(&mut self, id: usize, remaining: Work, specs: &[JobSpec]) {
        let idx = self.node[id].slot as usize;
        let spec = &specs[idx];
        let found = self.live.iter().copied().find(|&g| {
            self.slab[g as usize]
                .members
                .entries()
                .first()
                .is_some_and(|e| specs[e.idx as usize].curve.same_bits(&spec.curve))
        });
        let g = match found {
            Some(g) => g as usize,
            None => {
                let g = match self.slab.iter().position(|g| g.members.is_empty()) {
                    Some(g) => g,
                    None => {
                        self.slab.push(Group::default());
                        self.slab.len() - 1
                    }
                };
                self.live.push(g as u32);
                g
            }
        };
        let group = &mut self.slab[g];
        let key = group.members.drain().key(remaining);
        self.node[id].group = g as u32;
        self.node[id].key = key;
        group.members.add(
            Entry::new(key, idx, spec.size, false, false),
            specs,
            &mut Positions {
                node_of: &self.node_of,
                node: &mut self.node,
            },
        );
    }

    /// Removes the running job of node `id` from its group and returns its
    /// remaining work. An emptied group is released.
    fn leave(&mut self, id: usize, specs: &[JobSpec]) -> Work {
        let Node { group: g, pos, .. } = self.node[id];
        let group = &mut self.slab[g as usize];
        let remaining = group
            .members
            .remove(
                pos as usize,
                specs,
                &mut Positions {
                    node_of: &self.node_of,
                    node: &mut self.node,
                },
            )
            .map_or(0.0, |(_, remaining)| remaining);
        if group.members.is_empty() {
            group.clear();
            if let Some(at) = self.live.iter().position(|&l| l == g) {
                self.live.remove(at);
            }
        }
        self.node[id].group = NIL;
        self.node[id].pos = NIL;
        remaining
    }

    /// Restores `running == min(target, len)`: demotes the oldest running
    /// jobs or promotes the latest waiting ones.
    pub fn rebalance(&mut self, target: usize, specs: &[JobSpec]) {
        let want = target.min(self.len());
        while self.running > want {
            let b = self.boundary as usize;
            let remaining = self.leave(b, specs);
            self.boundary = self.node[b].next;
            self.running -= 1;
            self.wait(b, remaining, specs);
        }
        while self.running < want {
            let p = if self.boundary == NIL {
                self.tail
            } else {
                self.node[self.boundary as usize].prev
            } as usize;
            let Node { slot, key, .. } = self.node[p];
            self.waiting_frac -= key / specs[slot as usize].size;
            self.boundary = p as u32;
            self.running += 1;
            if self.running == self.len() {
                self.waiting_frac = 0.0;
            }
            self.join(p, key, specs);
        }
    }

    /// Sets each group's interval rate to `rate_of(member slot)` and
    /// returns the earliest `now + remaining/rate` over the groups' fronts
    /// (first of equals, in formation order). Folds a group's offset into
    /// its keys first when it has grown past [`REBASE_LIMIT`].
    pub fn schedule(
        &mut self,
        now: Time,
        specs: &[JobSpec],
        mut rate_of: impl FnMut(usize) -> f64,
    ) -> Option<Time> {
        let mut next: Option<Time> = None;
        for &g in &self.live {
            let group = &mut self.slab[g as usize];
            if group.members.drain().offset > REBASE_LIMIT {
                // Fold the offset into the keys, keeping `ulp(key)` well
                // under completion tolerances, and the nodes' keys with
                // them.
                let mut track = Positions {
                    node_of: &self.node_of,
                    node: &mut self.node,
                };
                group.members.rebase(specs, &mut track);
                for e in group.members.entries() {
                    let id = track.node_of.get(e.idx as usize).copied().unwrap_or(NIL);
                    if let Some(n) = track.node.get_mut(id as usize) {
                        n.key = e.key;
                    }
                }
            }
            let Some((front, remaining)) = group.members.front() else {
                continue;
            };
            group.rate = rate_of(front.idx);
            if group.rate > 0.0 {
                let t = now + remaining / group.rate;
                if next.is_none_or(|n| t < n) {
                    next = Some(t);
                }
            }
        }
        next
    }

    /// The fractional flow `∫ Σ p_j(τ)/p_j dτ` of an interval of length
    /// `dt` at the scheduled rates, in closed form per group, plus the
    /// waiting jobs' static sum; then drains every group by `rate·dt`.
    pub fn integrate_groups(&mut self, dt: f64) -> f64 {
        let mut run = 0.0;
        for &g in &self.live {
            let group = &mut self.slab[g as usize];
            run += group.members.integrate(group.rate, dt);
        }
        run + self.waiting_frac * dt
    }

    /// Pops one running job that `due(slot, remaining, rate)` declares
    /// complete, trying each group's front in formation order, and unlinks
    /// it. `None` when no front is due.
    pub fn pop_due(
        &mut self,
        specs: &[JobSpec],
        due: impl Fn(Slot, f64, f64) -> bool,
    ) -> Option<Slot> {
        let slot = self.live.iter().find_map(|&g| {
            let group = &self.slab[g as usize];
            let (front, remaining) = group.members.front()?;
            due(front, remaining, group.rate).then_some(front)
        })?;
        let id = self.id_of(slot.idx)?;
        self.leave(id, specs);
        self.remove(id);
        self.running -= 1;
        Some(slot)
    }

    /// Unlinks node `id` from the list and moves the last node into its
    /// place.
    fn remove(&mut self, id: usize) {
        let Node {
            slot, prev, next, ..
        } = self.node[id];
        if self.boundary == id as u32 {
            self.boundary = next;
        }
        if prev == NIL {
            self.head = next;
        } else {
            self.node[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.node[next as usize].prev = prev;
        }
        self.node_of[slot as usize] = NIL;
        let last = (self.node.len() - 1) as u32;
        self.node.swap_remove(id);
        if id as u32 == last {
            return;
        }
        let moved = self.node[id];
        self.node_of[moved.slot as usize] = id as u32;
        if moved.prev == NIL {
            self.head = id as u32;
        } else {
            self.node[moved.prev as usize].next = id as u32;
        }
        if moved.next == NIL {
            self.tail = id as u32;
        } else {
            self.node[moved.next as usize].prev = id as u32;
        }
        if self.boundary == last {
            self.boundary = id as u32;
        }
    }

    /// Remaining work of the alive job in arena slot `idx`.
    pub fn remaining_of(&self, idx: usize) -> Option<Work> {
        let node = self.node.get(self.id_of(idx)?)?;
        if node.group == NIL {
            return Some(node.key);
        }
        let group = self.slab.get(node.group as usize)?;
        Some(group.members.drain().remaining(node.key))
    }

    /// The interval rate of the alive job in arena slot `idx` (0 while it
    /// waits).
    pub fn rate_of(&self, idx: usize) -> f64 {
        self.id_of(idx)
            .and_then(|id| self.slab.get(self.node[id].group as usize))
            .map_or(0.0, |g| g.rate)
    }

    /// Visits every alive job as `(arena slot, remaining, running)`,
    /// oldest first.
    pub fn for_each(&self, mut f: impl FnMut(usize, f64, bool)) {
        let mut at = self.head;
        while let Some(node) = self.node.get(at as usize) {
            let idx = node.slot as usize;
            f(
                idx,
                self.remaining_of(idx).unwrap_or(0.0),
                node.group != NIL,
            );
            at = node.next;
        }
    }

    /// Captures the full state (see [`SuffixSnap`]). Each job is captured
    /// by its arena slot, with its node's key.
    pub(crate) fn snapshot_state(&self, specs: &[JobSpec]) -> SuffixSnap {
        let entry = |idx: usize| {
            let spec = &specs[idx];
            HeapEntrySnap {
                key: self
                    .node_of
                    .get(idx)
                    .and_then(|&id| self.node.get(id as usize))
                    .map_or(0.0, |n| n.key),
                release: spec.release,
                id: spec.id,
                idx,
                size: spec.size,
            }
        };
        // The waiting stack from its top down to the head: the top is the
        // tail when nothing runs, the node before the boundary otherwise.
        let mut waiting = Vec::with_capacity(self.len() - self.running);
        let mut at = match self.node.get(self.boundary as usize) {
            Some(b) => b.prev,
            None => self.tail,
        };
        while let Some(node) = self.node.get(at as usize) {
            waiting.push(entry(node.slot as usize));
            if at == self.head {
                break;
            }
            at = node.prev;
        }
        waiting.reverse();
        let groups = self
            .live
            .iter()
            .map(|&g| {
                let group = &self.slab[g as usize];
                GroupSnap {
                    members: group.members.snapshot(specs),
                    rate: group.rate,
                }
            })
            .collect();
        SuffixSnap {
            waiting,
            groups,
            waiting_frac: self.waiting_frac,
        }
    }

    /// Restores the state captured by [`ArrivalSuffix::snapshot_state`],
    /// retaining buffer capacity. The nodes are the waiting stack followed
    /// by the running jobs in `(release, id)` order, linked in that order.
    /// Each group's heap array is pushed back in its captured order, which
    /// rebuilds it as it was; offsets, sums and rates are installed
    /// verbatim. The caller has checked the snapshot
    /// ([`SuffixSnap::check`]).
    pub(crate) fn restore_state(&mut self, snap: &SuffixSnap, specs: &[JobSpec]) {
        self.reset();
        let slots = snap.entries().map(|e| e.idx + 1).max().unwrap_or(0);
        self.node_of.resize(slots, NIL);
        let mut running: Vec<&HeapEntrySnap> = snap
            .groups
            .iter()
            .flat_map(|g| &g.members.entries)
            .collect();
        running.sort_unstable_by(|a, b| arrival_order((a.release, a.id), (b.release, b.id)));
        for (id, e) in snap
            .waiting
            .iter()
            .chain(running.iter().copied())
            .enumerate()
        {
            self.node.push(Node {
                slot: e.idx as u32,
                prev: if id == 0 { NIL } else { id as u32 - 1 },
                next: NIL,
                group: NIL,
                pos: NIL,
                key: e.key,
            });
            if let Some(prev) = id.checked_sub(1) {
                self.node[prev].next = id as u32;
            }
            self.node_of[e.idx] = id as u32;
        }
        let len = self.node.len();
        self.head = if len == 0 { NIL } else { 0 };
        self.tail = if len == 0 { NIL } else { len as u32 - 1 };
        self.running = running.len();
        self.boundary = if self.running == 0 {
            NIL
        } else {
            snap.waiting.len() as u32
        };
        for (g, gs) in snap.groups.iter().enumerate() {
            if g == self.slab.len() {
                self.slab.push(Group::default());
            }
            for e in &gs.members.entries {
                self.node[self.node_of[e.idx] as usize].group = g as u32;
            }
            let group = &mut self.slab[g];
            group.members.restore(
                &gs.members,
                specs,
                &mut Positions {
                    node_of: &self.node_of,
                    node: &mut self.node,
                },
            );
            group.rate = gs.rate;
            self.live.push(g as u32);
        }
        self.waiting_frac = snap.waiting_frac;
    }
}

impl AliveSet for ArrivalSuffix {
    fn of(sets: &AliveSets) -> &Self {
        &sets.suffix
    }

    fn of_mut(sets: &mut AliveSets) -> &mut Self {
        &mut sets.suffix
    }

    fn len(&self) -> usize {
        self.node.len()
    }

    fn reset(&mut self) {
        for group in &mut self.slab {
            group.clear();
        }
        self.node.clear();
        self.node_of.clear();
        self.head = NIL;
        self.tail = NIL;
        self.boundary = NIL;
        self.running = 0;
        self.live.clear();
        self.waiting_frac = 0.0;
        self.profile = PrefixAllocation::default();
    }

    fn admit(&mut self, idx: usize, remaining: Work, jobs: &mut JobArena) {
        self.insert(idx, remaining, &jobs.specs);
    }

    /// Replays the policy's `(count, share)` profile from the per-`n`
    /// memo, restores the running suffix to the latest `count` arrivals
    /// (one demotion or promotion per arrival or completion), and
    /// schedules each curve group's drain rate `speed·Γ_g(share)` and the
    /// earliest group-front completion. `O(log n)` for the boundary moves
    /// plus `O(groups)`. A group's rate is memoized per `n` like the
    /// incremental path's uniform rate, so a one-curve run evaluates Γ
    /// once per distinct alive count.
    fn refresh(&mut self, cx: Refresh<'_>) -> Result<Schedule, SimError> {
        let n = self.len();
        if n == 0 {
            return Ok(Schedule::default());
        }
        let (count, share) = cx
            .memo
            .profile(n, &*cx.policy, cx.policy_name, cx.now, cx.m)?;
        self.profile = PrefixAllocation { count, share };
        let (jobs, speed) = (&*cx.jobs, cx.speed);
        self.rebalance(count, &jobs.specs);
        let memo = cx.memo.slot(n);
        let completion = self.schedule(cx.now, &jobs.specs, |idx| {
            memo.uniform_rate(jobs, idx, speed)
        });
        Ok(Schedule {
            completion,
            deadline: None,
        })
    }

    /// `O(groups)`: each curve group of the running suffix drains
    /// uniformly at its own rate, as one group (its fractional flow in
    /// closed form), and the waiting jobs contribute their static sum
    /// times `dt`.
    fn integrate(
        &mut self,
        dt: f64,
        _t: Time,
        _jobs: &mut JobArena,
        _speed: f64,
        frac_flow: &mut NeumaierSum,
    ) -> Drained {
        frac_flow.add(self.integrate_groups(dt));
        Drained::MaybeDue
    }

    /// Only running jobs drain, and a group's members drain at one rate,
    /// so only a group's front can be due — pop fronts while one is.
    fn complete_due(
        &mut self,
        now: Time,
        jobs: &mut JobArena,
        _speed: f64,
        _deadline: &mut Option<Time>,
        mut finish: impl FnMut(&mut JobArena, usize),
    ) -> bool {
        let mut completed_any = false;
        while let Some(slot) = self.pop_due(&jobs.specs, |slot, rem, rate| {
            rem <= completion_tolerance(slot.size, rate, now)
        }) {
            finish(jobs, slot.idx);
            completed_any = true;
        }
        completed_any
    }

    fn remaining(&self, idx: usize, _jobs: &JobArena) -> Work {
        self.remaining_of(idx).unwrap_or(0.0)
    }

    fn walk(&self, _jobs: &JobArena, mut f: impl FnMut(usize, Work)) {
        self.for_each(|idx, rem, _| f(idx, rem));
    }

    fn audit(
        &self,
        _jobs: &JobArena,
        _speed: f64,
        mut f: impl FnMut(usize, Work, f64, f64),
    ) -> Option<usize> {
        let share = self.profile.share;
        self.for_each(|idx, rem, running| {
            if running {
                f(idx, rem, share, self.rate_of(idx));
            } else {
                f(idx, rem, 0.0, 0.0);
            }
        });
        None
    }

    fn snapshot(&self, specs: &[JobSpec], snap: &mut Snapshot) {
        snap.suffix = Some(self.snapshot_state(specs));
        snap.profile_count = self.profile.count;
        snap.profile_share = self.profile.share;
    }

    fn check(snap: &Snapshot, slots: &mut SlotCheck<'_>) -> Result<(), String> {
        match &snap.suffix {
            Some(suffix) => suffix.check(slots),
            None => Ok(()),
        }
    }

    fn restore(&mut self, snap: &Snapshot, jobs: &mut JobArena, _speed: f64) {
        if let Some(suffix) = &snap.suffix {
            self.restore_state(suffix, &jobs.specs);
        }
        self.profile = PrefixAllocation {
            count: snap.profile_count,
            share: snap.profile_share,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapJob;
    use parsched_speedup::Curve;

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

    fn spec(id: u64, release: f64, size: Work, curve: Curve) -> JobSpec {
        JobSpec::new(JobId(id), release, size, curve)
    }

    /// One job of the brute-force model.
    #[derive(Debug, Clone, Copy)]
    struct ModelJob {
        idx: usize,
        remaining: f64,
    }

    /// The model's running set: the `k` latest by `(release, id)`.
    fn latest(model: &[ModelJob], specs: &[JobSpec], k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = model.iter().map(|j| j.idx).collect();
        order.sort_by(|&a, &b| {
            specs[a]
                .release
                .total_cmp(&specs[b].release)
                .then(specs[a].id.cmp(&specs[b].id))
        });
        let mut run = order.split_off(order.len() - k.min(order.len()));
        run.sort_unstable();
        run
    }

    fn rate(curve: &Curve, share: f64) -> f64 {
        curve.rate(share)
    }

    /// Arrival-suffix fuzz against a brute-force model: arrivals (some
    /// out of `(release, id)` order, including equal releases with
    /// descending ids), rebalances to `⌈n/2⌉` and to other targets,
    /// drains at per-curve rates, completions, and rebases, with the
    /// running set, every remaining work, the list order, and the
    /// fractional sum checked after each step.
    #[test]
    fn suffix_matches_per_job_model_under_churn() {
        let mut next = lcg(0x5eed_a11a_0005);
        let curves = [
            Curve::power(0.25),
            Curve::power(0.5),
            Curve::Sequential,
            Curve::Piecewise(parsched_speedup::PiecewiseLinear::saturating(2.0).expect("pwl")),
        ];
        let (mut out_of_order, mut demotions, mut promotions) = (0, 0, 0);
        for round in 0..30 {
            let mut specs: Vec<JobSpec> = Vec::new();
            let mut set = ArrivalSuffix::default();
            let mut model: Vec<ModelJob> = Vec::new();
            let mut clock = 0.0;
            let m = 4.0;
            for step in 0..300 {
                let ctx = format!("round {round} step {step}");
                match next(6) {
                    0..=2 => {
                        let idx = specs.len();
                        let size = 0.5 + next(64) as f64 / 8.0;
                        let curve = curves[next(curves.len() as u64) as usize].clone();
                        // Mostly in order; sometimes an equal release with a
                        // lower id than the previous arrival, sometimes an
                        // earlier release.
                        let fresh = 1_000_000 + 1_000 * idx as u64;
                        let (release, id) = match next(8) {
                            0 if idx > 0 => {
                                out_of_order += 1;
                                (specs[idx - 1].release, specs[idx - 1].id.0 - 1)
                            }
                            1 => {
                                out_of_order += 1;
                                (clock - 0.5, fresh)
                            }
                            _ => (clock, fresh),
                        };
                        specs.push(spec(id, release, size, curve));
                        set.insert(idx, size, &specs);
                        model.push(ModelJob {
                            idx,
                            remaining: size,
                        });
                    }
                    3 => {
                        // Drain part of the way to the next completion.
                        let k = set.running;
                        if k == 0 {
                            continue;
                        }
                        let share = m / k as f64;
                        let Some(t) = set.schedule(clock, &specs, |i| rate(&specs[i].curve, share))
                        else {
                            continue;
                        };
                        let dt = (t - clock) * (1 + next(3)) as f64 / 4.0;
                        let running = latest(&model, &specs, k);
                        set.integrate_groups(dt);
                        clock += dt;
                        for j in model.iter_mut().filter(|j| running.contains(&j.idx)) {
                            j.remaining -= rate(&specs[j.idx].curve, share) * dt;
                        }
                    }
                    4 => {
                        // Drain to the next completion and pop it.
                        let k = set.running;
                        if k == 0 {
                            continue;
                        }
                        let share = m / k as f64;
                        let Some(t) = set.schedule(clock, &specs, |i| rate(&specs[i].curve, share))
                        else {
                            continue;
                        };
                        let dt = t - clock;
                        let running = latest(&model, &specs, k);
                        set.integrate_groups(dt);
                        clock = t;
                        for j in model.iter_mut().filter(|j| running.contains(&j.idx)) {
                            j.remaining -= rate(&specs[j.idx].curve, share) * dt;
                        }
                        let slot = set
                            .pop_due(&specs, |s, rem, _| rem <= 1e-9 * s.size.max(1.0))
                            .expect("a front is due");
                        let pos = model.iter().position(|j| j.idx == slot.idx).expect("alive");
                        assert!(model[pos].remaining.abs() < 1e-7, "{ctx}: popped early");
                        model.remove(pos);
                    }
                    _ => {
                        let target = if next(2) == 0 {
                            set.len().div_ceil(2)
                        } else {
                            next(set.len() as u64 + 1) as usize
                        };
                        let before = set.running;
                        set.rebalance(target, &specs);
                        demotions += before.saturating_sub(set.running);
                        promotions += set.running.saturating_sub(before);
                    }
                }
                check_against_model(&set, &model, &specs, &ctx);
            }
        }
        assert!(out_of_order > 0 && demotions > 0 && promotions > 0);
    }

    fn check_against_model(set: &ArrivalSuffix, model: &[ModelJob], specs: &[JobSpec], ctx: &str) {
        assert_eq!(set.len(), model.len(), "{ctx}: alive count");
        let mut order = Vec::new();
        let mut running = Vec::new();
        set.for_each(|idx, rem, runs| {
            let j = model.iter().find(|j| j.idx == idx).expect("alive in model");
            assert!(
                (rem - j.remaining).abs() < 1e-7,
                "{ctx}: slot {idx} remaining {rem} vs model {}",
                j.remaining
            );
            order.push(idx);
            if runs {
                running.push(idx);
            }
        });
        assert_eq!(order.len(), model.len(), "{ctx}: visited");
        // The list is in (release, id) order and the running jobs are its
        // suffix.
        assert!(
            order.windows(2).all(|w| precedes(w[0], w[1], specs)),
            "{ctx}: list order"
        );
        assert_eq!(
            &order[order.len() - running.len()..],
            &running[..],
            "{ctx}: running set is not the suffix"
        );
        assert_eq!(running.len(), set.running, "{ctx}: running count");
        let mut want = latest(model, specs, set.running);
        running.sort_unstable();
        want.sort_unstable();
        assert_eq!(running, want, "{ctx}: running set");
        // Fractional sums: groups in closed form plus the waiting sum.
        let frac: f64 = set
            .live
            .iter()
            .map(|&g| set.slab[g as usize].members.drain().frac())
            .sum::<f64>()
            + set.waiting_frac;
        let want: f64 = model.iter().map(|j| j.remaining / specs[j.idx].size).sum();
        assert!(
            (frac - want).abs() < 1e-7 * want.max(1.0),
            "{ctx}: fractional sum {frac} vs {want}"
        );
        // Every heap position is where the node says, and the nodes are
        // dense and mapped from their slots.
        for &g in &set.live {
            for (p, e) in set.slab[g as usize].members.entries().iter().enumerate() {
                let node = &set.node[set.node_of[e.idx as usize] as usize];
                assert_eq!(node.pos as usize, p, "{ctx}: position");
                assert_eq!(node.group, g, "{ctx}: group");
            }
        }
        for (id, node) in set.node.iter().enumerate() {
            assert_eq!(
                set.node_of[node.slot as usize] as usize, id,
                "{ctx}: node map"
            );
        }
    }

    #[test]
    fn rebase_keeps_remaining_work_and_order() {
        let specs: Vec<JobSpec> = (0..6)
            .map(|i| spec(i, i as f64, 2e6 + i as f64, Curve::power(0.5)))
            .collect();
        let mut set = ArrivalSuffix::default();
        for (i, s) in specs.iter().enumerate() {
            set.insert(i, s.size, &specs);
        }
        set.rebalance(6, &specs);
        set.schedule(0.0, &specs, |_| 1.0);
        set.integrate_groups(1.5e6);
        let before: Vec<f64> = (0..6).map(|i| set.remaining_of(i).unwrap()).collect();
        set.schedule(1.5e6, &specs, |_| 1.0);
        let group = &set.slab[set.live[0] as usize];
        assert_eq!(group.members.drain().offset, 0.0, "rebased");
        for (i, want) in before.into_iter().enumerate() {
            assert!((set.remaining_of(i).unwrap() - want).abs() < 1e-6);
        }
        let slot = set.pop_due(&specs, |_, _, _| true).unwrap();
        assert_eq!(slot.idx, 0);
    }

    #[test]
    fn snapshot_round_trip_rebuilds_identical_state() {
        let curves = [Curve::power(0.5), Curve::power(0.25)];
        let specs: Vec<JobSpec> = (0..40)
            .map(|i| {
                spec(
                    i,
                    (i / 3) as f64,
                    1.0 + (i * 7 % 13) as f64,
                    curves[i as usize % 2].clone(),
                )
            })
            .collect();
        let mut set = ArrivalSuffix::default();
        let mut clock = 0.0;
        for (i, s) in specs.iter().enumerate() {
            set.insert(i, s.size, &specs);
            set.rebalance(set.len().div_ceil(2), &specs);
            let share = 4.0 / set.running as f64;
            set.schedule(clock, &specs, |j| specs[j].curve.rate(share));
            set.integrate_groups(0.05);
            clock += 0.05;
        }
        let snap = set.snapshot_state(&specs);
        let arena: Vec<SnapJob> = specs
            .iter()
            .map(|s| SnapJob {
                spec: s.clone(),
                remaining: 0.0,
                run_key: 0.0,
                class: 0,
                in_running: false,
                done: false,
            })
            .collect();
        snap.check(&mut SlotCheck::new(&arena))
            .expect("consistent snapshot");
        let mut back = ArrivalSuffix::default();
        back.restore_state(&snap, &specs);
        assert_eq!(back.snapshot_state(&specs), snap);
        assert_eq!(back.len(), set.len());
        assert_eq!(back.running, set.running);
        for i in 0..specs.len() {
            assert_eq!(
                back.remaining_of(i).map(f64::to_bits),
                set.remaining_of(i).map(f64::to_bits)
            );
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        set.for_each(|idx, _, r| a.push((idx, r)));
        back.for_each(|idx, _, r| b.push((idx, r)));
        assert_eq!(a, b);
        // A running job below the boundary is refused.
        let mut bad = snap.clone();
        let dup = bad.groups[0].members.entries[0].clone();
        bad.waiting.push(dup);
        assert!(bad.check(&mut SlotCheck::new(&arena)).is_err());
    }

    #[test]
    fn reset_retains_groups_for_reuse() {
        let specs = vec![
            spec(0, 0.0, 1.0, Curve::power(0.5)),
            spec(1, 0.0, 1.0, Curve::power(0.25)),
        ];
        let mut set = ArrivalSuffix::default();
        set.insert(0, 1.0, &specs);
        set.insert(1, 1.0, &specs);
        set.rebalance(2, &specs);
        assert_eq!(set.live.len(), 2);
        set.reset();
        assert_eq!(set.len(), 0);
        assert!(set.slab.iter().all(|g| g.members.is_empty()));
        set.insert(0, 1.0, &specs);
        set.rebalance(1, &specs);
        assert_eq!(set.slab.len(), 2);
    }
}
