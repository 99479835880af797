//! The ordered alive set behind the engine's incremental `O(log n)` path.
//!
//! [`SrptSet`] maintains the alive jobs in SRPT order — `(remaining,
//! release, id)` — split into two partitions:
//!
//! * **running**: the scheduled prefix (the `k` smallest jobs), keyed in
//!   *offset* space `key = remaining + D`, where `D` is the cumulative
//!   drain applied uniformly to the whole prefix (a [`Drain`], with the
//!   sums that give its fractional flow in closed form);
//! * **queued**: everything else, keyed by its literal remaining work
//!   (queued jobs receive zero processors and do not drain).
//!
//! Between events a prefix policy drains every scheduled job at a common
//! rate `r` (the paper's order-invariance observation: with equal shares
//! the SRPT order cannot change between events). Instead of touching every
//! running key, a uniform advance just bumps `D += r·dt` — materialized
//! remaining work is `key − D`. Because all running keys share the same
//! offset, their relative order is preserved, and since running jobs only
//! shrink while queued jobs are static, the cross-partition invariant
//! `max(running) − D ≤ min(queued)` is preserved too.
//!
//! # Representation
//!
//! Both partitions are **`Vec`-backed heaps**, not `BTreeMap`s: the hot
//! loop needs only `insert`, `pop-min`, `pop-max` (demotion), and the two
//! peeks — all `O(log n)` on a contiguous array with no per-node
//! allocation. The running prefix is a **min-max heap** (Atkinson et al.:
//! even levels ordered by min, odd by max, so both ends pop in
//! `O(log k)`); the queue only ever pops its minimum (promotion) and is a
//! hand-written 2-ary min-heap with bottom-up deletion. Buffers are
//! retained across [`SrptSet::reset`], which is what makes repeated engine
//! runs allocation-free after warm-up (see `docs/PERF.md` §6).
//!
//! Each heap element is a 24-byte [`Entry`]: the key, the job's size, its
//! arena slot as a `u32`, and two uniformity flags. The `(release, id)`
//! tie-break is *not* stored: the engine passes its arena's spec lane to
//! every ordering operation, and the comparison reads the two specs only
//! when the keys are bit-equal. Keys compare through their
//! `f64::total_cmp` integer image ([`ord_bits`]), a shift and an xor in
//! place of the float comparison chain, so the order is exactly the one
//! `(key.total_cmp, release.total_cmp, id)` defines — and since ids are
//! unique, so are the keys (see `docs/PERF.md` §12). The engine must
//! therefore keep a slot's spec in place while the slot is in the set:
//! admission writes the spec before [`SrptSet::insert`], and a slot is
//! only recycled after its job left the set.
//!
//! Ordered iteration. The heaps keep the SRPT order that decides which
//! jobs run; only two readers need the order itself, and only they sort a
//! copy of the entries: the running partition's rebuild after a Scan drain
//! (`rebuild_running`, in the retained `scratch`), which folds each job's
//! fractional flow in that order because float addition is not
//! associative, and a snapshot ([`SrptSet::snapshot_state`]), so that
//! equal states render byte-identical documents whatever the heaps' push
//! history. Every other reader lists the heaps as stored
//! ([`SrptSet::for_each_stored`]): a Scan interval's next completion is a
//! minimum, and the walk behind views of the alive set and the audit frame
//! promise no order.
//!
//! Heterogeneous prefixes (different curves at share ≠ 1) drain at
//! per-job rates; [`SrptSet::drain_scan`] handles those intervals in
//! `O(k log k)`. Two counters maintained on the fly — jobs whose curve
//! differs from the first-admitted reference and jobs with `Γ(1) ≠ 1` —
//! let the engine detect the uniform case in `O(1)`.

use std::cmp::Ordering;

use parsched_speedup::Curve;

use crate::alive_set::{
    completion_tolerance, fold_earliest, AliveSet, AliveSets, Drained, IntervalKind, Refresh,
    Schedule,
};
use crate::arena::{JobArena, PlacementLanes};

use crate::drained::Drain;
use crate::error::SimError;
use crate::job::{JobId, JobSpec, Time, Work};
use crate::kahan::NeumaierSum;
use crate::policy::PrefixAllocation;
use crate::snapshot::{in_range, SlotCheck, Snapshot};

/// Rebase threshold for the drain offset: past this, `ulp(D)` approaches
/// the engine's `EPS`-scaled completion tolerances, so keys are rebuilt
/// with the offset folded in (an `O(k log k)` cleanup, amortized free).
pub(crate) const REBASE_LIMIT: f64 = 1e6;

/// The integer image under which `f64::total_cmp` orders floats: flip the
/// magnitude bits of negatives so that signed-integer order is the total
/// order (`-NaN < -∞ < … < -0.0 < +0.0 < … < +∞ < +NaN`). This is the
/// exact map `total_cmp` applies before its integer comparison.
#[inline]
fn ord_bits(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// What a caller sees of an entry: the engine's arena slot and the job's
/// original size `p_j` (denominator of fractional flow).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// Index into the engine's job arena.
    pub idx: usize,
    /// Original size `p_j`.
    pub size: Work,
}

/// One heap element (24 bytes): the SRPT key plus everything the set needs
/// to maintain its sums and counters without consulting the engine. For
/// running entries `key` is in offset space (`remaining + D`); for queued
/// entries it is the literal remaining work. The tie-break lives in the
/// arena slot `idx` (see [`cmp`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) key: f64,
    /// Original size `p_j`.
    pub(crate) size: Work,
    /// Arena slot (the engine's slots fit `u32`, as its id map requires).
    pub(crate) idx: u32,
    /// Curve differs from the set's reference curve.
    hetero: bool,
    /// `Γ(1) ≠ 1` for this job's curve.
    nonunit: bool,
}

impl Entry {
    pub(crate) fn new(key: f64, idx: usize, size: Work, hetero: bool, nonunit: bool) -> Self {
        debug_assert!(u32::try_from(idx).is_ok(), "arena slot {idx} exceeds u32");
        Self {
            key,
            size,
            idx: idx as u32,
            hetero,
            nonunit,
        }
    }

    #[inline]
    pub(crate) fn slot(&self) -> Slot {
        Slot {
            idx: self.idx as usize,
            size: self.size,
        }
    }
}

/// The SRPT total order: key by [`ord_bits`], then — only for bit-equal
/// keys — `(release, id)` read from the two entries' arena specs, matching
/// `parsched_core::util::srpt_cmp`.
#[inline]
fn cmp(a: &Entry, b: &Entry, specs: &[JobSpec]) -> Ordering {
    let (x, y) = (ord_bits(a.key), ord_bits(b.key));
    if x == y {
        tie(a.idx, b.idx, specs)
    } else {
        x.cmp(&y)
    }
}

/// `(release, id)` order of two arena slots.
#[cold]
fn tie(a: u32, b: u32, specs: &[JobSpec]) -> Ordering {
    let (a, b) = (&specs[a as usize], &specs[b as usize]);
    a.release.total_cmp(&b.release).then(a.id.cmp(&b.id))
}

/// `a` precedes `b` in SRPT order: [`cmp`] as a flag. Distinct keys
/// decide with one integer comparison, no branch on its outcome, so a heap
/// can pick between two children without a misprediction.
#[inline]
fn less(a: &Entry, b: &Entry, specs: &[JobSpec]) -> bool {
    let (x, y) = (ord_bits(a.key), ord_bits(b.key));
    if x == y {
        tie(a.idx, b.idx, specs) == Ordering::Less
    } else {
        x < y
    }
}

/// Sorts entries into SRPT order. Keys are unique, so the unstable sort
/// yields the one possible sequence.
fn sort_entries(v: &mut [Entry], specs: &[JobSpec]) {
    v.sort_unstable_by(|a, b| cmp(a, b, specs));
}

/// A `Vec`-backed min-max heap (Atkinson–Sack–Santoro–Strothotte):
/// `O(log n)` push / pop-min / pop-max, `O(1)` peek at both ends, and no
/// per-node allocation. Levels alternate: the root level (depth 0) and
/// every even depth satisfy the *min* property (element ≤ its subtree),
/// odd depths the *max* property (element ≥ its subtree). Every ordering
/// operation takes the arena's spec lane as comparison context.
#[derive(Debug, Default)]
struct MinMaxHeap {
    a: Vec<Entry>,
}

/// Whether heap index `i` sits on a min (even-depth) level.
#[inline]
fn on_min_level(i: usize) -> bool {
    // depth = floor(log2(i + 1)); even depth ⇔ min level.
    (i + 1).ilog2() & 1 == 0
}

impl MinMaxHeap {
    #[inline]
    fn len(&self) -> usize {
        self.a.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    #[inline]
    fn peek_min(&self) -> Option<&Entry> {
        self.a.first()
    }

    fn max_index(&self, specs: &[JobSpec]) -> Option<usize> {
        match self.a.len() {
            0 => None,
            1 => Some(0),
            2 => Some(1),
            _ => Some(if less(&self.a[1], &self.a[2], specs) {
                2
            } else {
                1
            }),
        }
    }

    #[inline]
    fn peek_max(&self, specs: &[JobSpec]) -> Option<&Entry> {
        self.max_index(specs).map(|i| &self.a[i])
    }

    fn push(&mut self, e: Entry, specs: &[JobSpec]) {
        self.a.push(e);
        self.bubble_up(self.a.len() - 1, specs);
    }

    fn pop_min(&mut self, specs: &[JobSpec]) -> Option<Entry> {
        if self.a.is_empty() {
            return None;
        }
        let min = self.a.swap_remove(0);
        if !self.a.is_empty() {
            self.trickle(0, true, specs);
        }
        Some(min)
    }

    fn pop_max(&mut self, specs: &[JobSpec]) -> Option<Entry> {
        let i = self.max_index(specs)?;
        let max = self.a.swap_remove(i);
        if i < self.a.len() {
            self.trickle(i, on_min_level(i), specs);
        }
        Some(max)
    }

    fn clear(&mut self) {
        self.a.clear();
    }

    /// Unordered view of the entries.
    #[inline]
    fn entries(&self) -> &[Entry] {
        &self.a
    }

    /// Drains all entries (unordered) into `out`, leaving capacity behind.
    fn drain_into(&mut self, out: &mut Vec<Entry>) {
        out.extend_from_slice(&self.a);
        self.a.clear();
    }

    /// `a[i]` is strictly more extreme than `a[j]` in the direction `min`
    /// selects (smaller on min levels, larger on max levels).
    #[inline]
    fn beats(&self, i: usize, j: usize, min: bool, specs: &[JobSpec]) -> bool {
        if min {
            less(&self.a[i], &self.a[j], specs)
        } else {
            less(&self.a[j], &self.a[i], specs)
        }
    }

    fn bubble_up(&mut self, i: usize, specs: &[JobSpec]) {
        if i == 0 {
            return;
        }
        let parent = (i - 1) / 2;
        let min = on_min_level(i);
        if self.beats(parent, i, min, specs) {
            // `i` belongs on the parent's (opposite) levels.
            self.a.swap(i, parent);
            self.bubble_up_grand(parent, !min, specs);
        } else {
            self.bubble_up_grand(i, min, specs);
        }
    }

    /// Sifts `i` toward the root along grandparent links; `min` selects
    /// which property (min or max levels) is being restored.
    fn bubble_up_grand(&mut self, mut i: usize, min: bool, specs: &[JobSpec]) {
        while i > 2 {
            let gp = ((i - 1) / 2 - 1) / 2;
            if !self.beats(i, gp, min, specs) {
                break;
            }
            self.a.swap(i, gp);
            i = gp;
        }
    }

    /// Restores the heap property below `i`; `min` selects the property of
    /// `i`'s level. Standard min-max trickle: descend to the extreme child
    /// or grandchild, swapping the intervening parent when a grandchild
    /// wins.
    fn trickle(&mut self, mut i: usize, min: bool, specs: &[JobSpec]) {
        let len = self.a.len();
        loop {
            // The extreme element among children and grandchildren.
            let first_child = 2 * i + 1;
            if first_child >= len {
                return;
            }
            let mut best = first_child;
            let mut best_is_grandchild = false;
            let second_child = first_child + 1;
            if second_child < len && self.beats(second_child, best, min, specs) {
                best = second_child;
            }
            let first_grand = 4 * i + 3;
            for g in first_grand..(first_grand + 4).min(len) {
                if self.beats(g, best, min, specs) {
                    best = g;
                    best_is_grandchild = true;
                }
            }
            if !self.beats(best, i, min, specs) {
                return;
            }
            self.a.swap(i, best);
            if !best_is_grandchild {
                return;
            }
            // After a grandchild swap the intervening parent (an opposite-
            // level node) may now violate its own property.
            let parent = (best - 1) / 2;
            if self.beats(parent, best, min, specs) {
                self.a.swap(best, parent);
            }
            i = best;
        }
    }
}

/// Receives the array moves of a position-tracked [`MinHeap`]:
/// `moved(idx, pos)` says the entry of arena slot `idx` now sits at array
/// position `pos`. The unit type tracks nothing, so the untracked
/// operations compile to the plain heap.
pub(crate) trait HeapTrack {
    fn moved(&mut self, idx: u32, pos: usize);
}

impl HeapTrack for () {
    #[inline(always)]
    fn moved(&mut self, _idx: u32, _pos: usize) {}
}

/// A `Vec`-backed 2-ary min-heap over SRPT order — the queue, which only
/// ever pushes and pops its minimum, and the heap of every
/// [`crate::drained::DrainedGroup`] (the level path's levels, the
/// arrival-suffix path's curve groups, which also remove members at known
/// positions through the `_tracked` operations).
#[derive(Debug, Default)]
pub(crate) struct MinHeap {
    a: Vec<Entry>,
}

impl MinHeap {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.a.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.a.clear();
    }

    /// The minimum entry.
    #[inline]
    pub(crate) fn peek(&self) -> Option<&Entry> {
        self.a.first()
    }

    /// Unordered view of the entries (callers sort for SRPT order).
    #[inline]
    pub(crate) fn entries(&self) -> &[Entry] {
        &self.a
    }

    pub(crate) fn push(&mut self, e: Entry, specs: &[JobSpec]) {
        self.push_tracked(e, specs, &mut ());
    }

    /// [`MinHeap::push`], reporting every array move to `track`.
    #[inline]
    pub(crate) fn push_tracked(&mut self, e: Entry, specs: &[JobSpec], track: &mut impl HeapTrack) {
        let hole = self.a.len();
        self.a.push(e);
        self.sift_up(hole, e, specs, track);
    }

    /// Moves the hole at `hole` toward the root past every parent `e`
    /// precedes, then fills it with `e`. Always inlined, so the untracked
    /// `push` and `pop` compile to the plain heap's code.
    #[inline(always)]
    fn sift_up(
        &mut self,
        mut hole: usize,
        e: Entry,
        specs: &[JobSpec],
        track: &mut impl HeapTrack,
    ) {
        while hole > 0 {
            let parent = (hole - 1) / 2;
            let moved = self.a[parent];
            if !less(&e, &moved, specs) {
                break;
            }
            self.a[hole] = moved;
            track.moved(moved.idx, hole);
            hole = parent;
        }
        self.a[hole] = e;
        track.moved(e.idx, hole);
    }

    /// Rewrites every key through `f`, then restores the heap order
    /// bottom-up (Floyd's heapify), reporting every array move to `track`.
    /// For a monotone `f` only keys that `f` makes equal can swap order.
    pub(crate) fn rekey_tracked(
        &mut self,
        f: impl Fn(f64) -> f64,
        specs: &[JobSpec],
        track: &mut impl HeapTrack,
    ) {
        for e in &mut self.a {
            e.key = f(e.key);
        }
        for i in (0..self.a.len() / 2).rev() {
            self.sift_down(i, specs, track);
        }
    }

    /// Moves the entry at `hole` down past every child that precedes it.
    fn sift_down(&mut self, mut hole: usize, specs: &[JobSpec], track: &mut impl HeapTrack) {
        let e = self.a[hole];
        let len = self.a.len();
        loop {
            let mut child = 2 * hole + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && less(&self.a[child + 1], &self.a[child], specs) {
                child += 1;
            }
            let moved = self.a[child];
            if !less(&moved, &e, specs) {
                break;
            }
            self.a[hole] = moved;
            track.moved(moved.idx, hole);
            hole = child;
        }
        self.a[hole] = e;
        track.moved(e.idx, hole);
    }

    /// Pops the minimum (see [`MinHeap::remove_tracked`]).
    pub(crate) fn pop(&mut self, specs: &[JobSpec]) -> Option<Entry> {
        self.remove_tracked(0, specs, &mut ())
    }

    /// Removes the entry at array position `at` by bottom-up deletion: the
    /// hole walks down along smaller children to a leaf (one comparison
    /// per level), and the former last element — a leaf, so rarely far
    /// from the bottom — sifts up from there, past `at` when it precedes
    /// `at`'s ancestors. Reports every array move to `track`. `None` when
    /// `at` is out of range.
    #[inline]
    pub(crate) fn remove_tracked(
        &mut self,
        at: usize,
        specs: &[JobSpec],
        track: &mut impl HeapTrack,
    ) -> Option<Entry> {
        if at >= self.a.len() {
            return None;
        }
        let last = self.a.pop()?;
        let Some(&removed) = self.a.get(at) else {
            return Some(last);
        };
        let len = self.a.len();
        let mut hole = at;
        let mut child = 2 * at + 1;
        while child + 1 < len {
            child += usize::from(less(&self.a[child + 1], &self.a[child], specs));
            let moved = self.a[child];
            self.a[hole] = moved;
            track.moved(moved.idx, hole);
            hole = child;
            child = 2 * hole + 1;
        }
        if child + 1 == len {
            let moved = self.a[child];
            self.a[hole] = moved;
            track.moved(moved.idx, hole);
            hole = child;
        }
        self.sift_up(hole, last, specs, track);
        Some(removed)
    }
}

/// Where an alive job currently lives, reported back to the engine so it
/// can keep per-record state (`remaining` vs. offset key) coherent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Placement {
    /// In the scheduled prefix with the given offset-space key.
    Running {
        /// Offset-space key (`remaining + D`).
        key: f64,
    },
    /// In the queue with the given literal remaining work.
    Queued {
        /// Remaining work.
        remaining: Work,
    },
}

/// One alive-set entry as captured in a `parsched-snap/v3` document: the
/// entry (its key in offset space while running, its literal remaining
/// work while queued) and its uniformity flags. Restore checks the flags
/// against what [`flags`] gives for the slot's curve and the captured
/// reference, which is the first admitted job's curve for the whole run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SetEntrySnap {
    pub(crate) entry: HeapEntrySnap,
    pub(crate) hetero: bool,
    pub(crate) nonunit: bool,
}

/// One entry of a heap captured verbatim (a level of the level path, a
/// curve group of the arrival-suffix path): key, the `(release, id)`
/// tie-break (filled from the arena on capture and checked against it on
/// restore), arena slot, and size.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HeapEntrySnap {
    pub(crate) key: f64,
    pub(crate) release: Time,
    pub(crate) id: JobId,
    pub(crate) idx: usize,
    pub(crate) size: Work,
}

/// Full [`SrptSet`] state for suspend/resume. The prefix's offset and sums
/// and the queue's sum are captured bit-exact rather than recomputed on
/// restore: they were accumulated incrementally over the run's
/// insert/forget sequence, and any re-summation order would produce
/// different low-order bits.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SetSnap {
    pub(crate) running: Vec<SetEntrySnap>,
    pub(crate) queued: Vec<SetEntrySnap>,
    pub(crate) prefix: Drain,
    pub(crate) q_frac: f64,
    pub(crate) reference: Option<Curve>,
}

impl SetSnap {
    /// The captured jobs in both partitions.
    pub(crate) fn len(&self) -> usize {
        self.running.len() + self.queued.len()
    }

    /// Checks the captured set before restore rebuilds it: the prefix's
    /// drain ([`Drain::check`]) and the queue's sum in range, and each
    /// entry accepted by [`SlotCheck::entry`] and carrying the flags that
    /// [`flags`] gives for its slot's curve against the captured
    /// reference, since the interval classification trusts them. Off the
    /// incremental path (`incremental` false) nothing fills the set, so
    /// both partitions must be empty.
    pub(crate) fn check(&self, incremental: bool, slots: &mut SlotCheck<'_>) -> Result<(), String> {
        self.prefix.check("srpt")?;
        in_range("srpt", "q_frac", self.q_frac, false)?;
        if !incremental && self.len() > 0 {
            return Err("srpt holds jobs off the incremental path".into());
        }
        for (part, entries) in [
            ("srpt.running", &self.running),
            ("srpt.queued", &self.queued),
        ] {
            for e in entries {
                let spec = slots.entry(part, &e.entry)?;
                let Some(reference) = &self.reference else {
                    return Err(format!("{part} holds jobs but srpt.reference is empty"));
                };
                let (hetero, nonunit) = flags(reference, &spec.curve);
                let field = if e.hetero != hetero {
                    "hetero"
                } else if e.nonunit != nonunit {
                    "nonunit"
                } else {
                    continue;
                };
                return Err(format!(
                    "{part} entry for arena slot {} disagrees with the slot's curve on {field}",
                    e.entry.idx
                ));
            }
        }
        Ok(())
    }
}

/// A job's uniformity flags against the set's reference curve: whether
/// its curve differs from it (`hetero`) and whether `Γ(1) ≠ 1`
/// (`nonunit`).
fn flags(reference: &Curve, curve: &Curve) -> (bool, bool) {
    let hetero = reference != curve;
    let nonunit = (curve.rate(1.0) - 1.0).abs() > 1e-12;
    (hetero, nonunit)
}

/// The alive set in SRPT order with an `O(1)` uniform-drain fast path.
///
/// Every method that orders entries takes `specs`, the engine's arena
/// spec lane, indexed by slot: the tie-break context.
#[derive(Debug, Default)]
pub(crate) struct SrptSet {
    /// Scheduled prefix: min-max heap over offset-space keys.
    running: MinMaxHeap,
    /// Queue: min-heap over literal remaining work.
    queued: MinHeap,
    /// Scratch for ordered rebuilds (`drain_scan` / `maybe_rebase`);
    /// retained so rebuilds allocate nothing after warm-up.
    // lint:allow(L009) transient scratch for ordered rebuilds, empty between events; nothing to restore
    scratch: Vec<Entry>,
    /// The running partition's drain offset and sums.
    prefix: Drain,
    /// `Σ rem_j/p_j` over queued.
    q_frac: f64,
    /// Running jobs whose curve differs from `reference`.
    // lint:allow(L009) derived partition statistic; restore_state recounts it from the captured running entries' flags
    hetero_running: usize,
    /// Running jobs with `Γ(1) ≠ 1`.
    // lint:allow(L009) derived partition statistic; restore_state recounts it from the captured running entries' flags
    nonunit_running: usize,
    /// Curve of the first job ever admitted (uniformity baseline).
    reference: Option<Curve>,
    /// The policy's prefix profile for the current interval.
    profile: PrefixAllocation,
    /// Drain shape of the current interval.
    interval: IntervalKind,
}

impl SrptSet {
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Remaining work of the running job keyed `key` (offset space).
    pub fn running_remaining(&self, key: f64) -> Work {
        self.prefix.remaining(key)
    }

    /// `Σ rem_j/p_j` over queued jobs.
    pub fn queued_frac_sum(&self) -> f64 {
        self.q_frac
    }

    /// `true` iff every running job has the same curve as the reference
    /// (vacuously true when ≤ 1 job runs).
    pub fn uniform_curves(&self) -> bool {
        self.hetero_running == 0
    }

    /// `true` iff every running job has `Γ(1) = 1`.
    pub fn unit_rate_at_one(&self) -> bool {
        self.nonunit_running == 0
    }

    /// The front (smallest-remaining) running job: `(slot, remaining)`.
    pub fn front_running(&self) -> Option<(Slot, f64)> {
        self.running
            .peek_min()
            .map(|e| (e.slot(), self.prefix.remaining(e.key)))
    }

    /// Visits every entry as `(slot, remaining, running)` in heap storage
    /// order, the running partition's entries first: no copy, no sort. The
    /// order within each partition depends on the heaps' push history, so
    /// this serves only readers that need none (the walk and the audit
    /// frame).
    pub fn for_each_stored(&self, mut f: impl FnMut(Slot, f64, bool)) {
        for e in self.running.entries() {
            f(e.slot(), self.prefix.remaining(e.key), true);
        }
        for e in self.queued.entries() {
            f(e.slot(), e.key, false);
        }
    }

    fn flags_for(&mut self, curve: &Curve) -> (bool, bool) {
        flags(self.reference.get_or_insert_with(|| curve.clone()), curve)
    }

    fn add_running(&mut self, e: Entry, specs: &[JobSpec]) {
        self.prefix.add(&e);
        self.hetero_running += usize::from(e.hetero);
        self.nonunit_running += usize::from(e.nonunit);
        self.running.push(e, specs);
    }

    /// Takes the popped running entry `e` out of the prefix's sums and
    /// counters; returns its remaining work.
    fn forget_running(&mut self, e: &Entry) -> Work {
        let remaining = self.prefix.remaining(e.key);
        self.prefix.forget(e, self.running.is_empty());
        self.hetero_running -= usize::from(e.hetero);
        self.nonunit_running -= usize::from(e.nonunit);
        debug_assert!(
            !self.running.is_empty() || self.hetero_running + self.nonunit_running == 0,
            "an empty prefix counts no job"
        );
        remaining
    }

    fn add_queued(&mut self, e: Entry, specs: &[JobSpec]) {
        self.q_frac += e.key / e.size;
        self.queued.push(e, specs);
    }

    fn forget_queued(&mut self, e: &Entry) {
        self.q_frac -= e.key / e.size;
        if self.queued.is_empty() {
            self.q_frac = 0.0;
        }
    }

    /// Inserts the job in arena slot `idx` with `remaining` work and
    /// returns where it landed. `specs[idx]` must already hold the job's
    /// spec: its curve sets the uniformity flags and its `(release, id)`
    /// breaks key ties. The caller follows up with
    /// [`SrptSet::rebalance`] once the batch is in.
    pub fn insert(&mut self, idx: usize, remaining: Work, specs: &[JobSpec]) -> Placement {
        let spec = &specs[idx];
        let (hetero, nonunit) = self.flags_for(&spec.curve);
        let run = Entry::new(self.prefix.key(remaining), idx, spec.size, hetero, nonunit);
        let belongs_in_prefix = self
            .running
            .peek_max(specs)
            .is_some_and(|max| less(&run, max, specs));
        if belongs_in_prefix {
            self.add_running(run, specs);
            Placement::Running { key: run.key }
        } else {
            self.add_queued(
                Entry {
                    key: remaining,
                    ..run
                },
                specs,
            );
            Placement::Queued { remaining }
        }
    }

    /// Restores `running.len() == min(target, len())` by demoting the
    /// largest running jobs or promoting the smallest queued jobs. Reports
    /// every move so the engine can update its per-job records.
    pub fn rebalance(
        &mut self,
        target: usize,
        specs: &[JobSpec],
        mut moved: impl FnMut(usize, Placement),
    ) {
        // `want ≤ len()`, so each loop's pop finds its heap non-empty.
        let want = target.min(self.len());
        while self.running.len() > want {
            let Some(e) = self.running.pop_max(specs) else {
                break;
            };
            let remaining = self.forget_running(&e);
            self.add_queued(
                Entry {
                    key: remaining,
                    ..e
                },
                specs,
            );
            moved(e.idx as usize, Placement::Queued { remaining });
        }
        while self.running.len() < want {
            let Some(e) = self.queued.pop(specs) else {
                break;
            };
            self.forget_queued(&e);
            let key = self.prefix.key(e.key);
            self.add_running(Entry { key, ..e }, specs);
            moved(e.idx as usize, Placement::Running { key });
        }
    }

    /// The running prefix's fractional flow over an interval of length
    /// `dt` at the common `rate`, in closed form, after which the prefix
    /// has drained by `rate·dt` in `O(1)`. Only valid when every running
    /// job drains at the same rate.
    pub fn integrate_uniform(&mut self, rate: f64, dt: f64) -> f64 {
        self.prefix.integrate(rate, dt, !self.running.is_empty())
    }

    /// Pops the front running job (the imminent completion). Returns the
    /// slot and its materialized remaining work.
    pub fn pop_front_running(&mut self, specs: &[JobSpec]) -> Option<(Slot, f64)> {
        let e = self.running.pop_min(specs)?;
        let remaining = self.forget_running(&e);
        Some((e.slot(), remaining))
    }

    /// Rebuilds the running partition through `update` (applied in SRPT
    /// order, so the floating-point sum accumulation, and whatever `update`
    /// folds, do not depend on the heap layout), folding the drain offset
    /// to zero. Every running key changes, so the caller then re-places
    /// the partition ([`SrptSet::place_running`]). Shared by
    /// [`SrptSet::drain_scan`] and [`SrptSet::maybe_rebase`].
    fn rebuild_running(&mut self, specs: &[JobSpec], mut update: impl FnMut(Slot, f64) -> f64) {
        self.scratch.clear();
        self.running.drain_into(&mut self.scratch);
        let mut old = std::mem::take(&mut self.scratch);
        sort_entries(&mut old, specs);
        self.hetero_running = 0;
        self.nonunit_running = 0;
        let prefix = std::mem::take(&mut self.prefix);
        for e in old.drain(..) {
            let key = update(e.slot(), prefix.remaining(e.key));
            self.add_running(Entry { key, ..e }, specs);
        }
        self.scratch = old;
    }

    /// Writes every running job's key to the arena after a rebuild.
    fn place_running(&self, lanes: &mut PlacementLanes<'_>) {
        for e in self.running.entries() {
            lanes.apply(e.idx as usize, Placement::Running { key: e.key });
        }
    }

    /// Drains each running job at its own rate for `dt` — the
    /// heterogeneous-prefix slow path. Rebuilds the running heap (the order
    /// may genuinely change) and resets the offset to zero. Returns
    /// the prefix's flow rate over the interval, `Σ (rem − rate·dt/2)⁺ / p`
    /// at the midpoint, summed in SRPT order by the rebuild's one sorted
    /// pass. `O(k log k)` in the prefix size. Out of line, as is
    /// [`SrptSet::scan_completion`], so the integration and refresh that
    /// every uniform interval runs carry only their own code.
    #[inline(never)]
    pub fn drain_scan(
        &mut self,
        dt: f64,
        specs: &[JobSpec],
        rate_of: impl Fn(usize) -> f64,
    ) -> f64 {
        let mut run = 0.0;
        self.rebuild_running(specs, |slot, rem| {
            let rate = rate_of(slot.idx);
            run += (rem - rate * dt / 2.0).max(0.0) / slot.size;
            (rem - rate * dt).max(0.0)
        });
        run
    }

    /// The next completion of a Scan interval starting at `now`: the
    /// earliest `now + rem/rate` over the running prefix, skipping jobs
    /// that do not drain. Folded over the heap as stored, since a minimum
    /// does not depend on order and bit-equal candidates are one value.
    #[inline(never)]
    fn scan_completion(&self, now: Time, rate_of: impl Fn(usize) -> f64) -> Option<Time> {
        let mut next = None;
        for e in self.running.entries() {
            let rate = rate_of(e.idx as usize);
            if rate > 0.0 {
                fold_earliest(&mut next, now + self.prefix.remaining(e.key) / rate);
            }
        }
        next
    }

    /// Folds the drain offset into the running keys when it has grown past
    /// [`REBASE_LIMIT`], keeping `ulp(key)` well under completion
    /// tolerances; returns whether it did. No-op most of the time.
    pub fn maybe_rebase(&mut self, specs: &[JobSpec]) -> bool {
        let due = self.prefix.offset > REBASE_LIMIT;
        if due {
            self.rebuild_running(specs, |_, rem| rem);
        }
        due
    }

    /// Captures the full set state for a snapshot. Both partitions are
    /// emitted in SRPT order, so two engines in the same logical state
    /// render byte-identical documents even when their heap arrays have
    /// different internal layouts (layout depends on push history; no
    /// result does, since what changes bits pops or sorts by total order,
    /// and a restore re-pushes in that order). Each entry's `(release,
    /// id)` comes from its arena spec.
    pub(crate) fn snapshot_state(&self, specs: &[JobSpec]) -> SetSnap {
        let conv = |e: &Entry| {
            let spec = &specs[e.idx as usize];
            SetEntrySnap {
                entry: HeapEntrySnap {
                    key: e.key,
                    release: spec.release,
                    id: spec.id,
                    idx: e.idx as usize,
                    size: e.size,
                },
                hetero: e.hetero,
                nonunit: e.nonunit,
            }
        };
        let mut running: Vec<Entry> = self.running.entries().to_vec();
        sort_entries(&mut running, specs);
        let mut queued: Vec<Entry> = self.queued.entries().to_vec();
        sort_entries(&mut queued, specs);
        SetSnap {
            running: running.iter().map(conv).collect(),
            queued: queued.iter().map(conv).collect(),
            prefix: self.prefix,
            q_frac: self.q_frac,
            reference: self.reference.clone(),
        }
    }

    /// Restores the state captured by [`SrptSet::snapshot_state`], retaining
    /// buffer capacity. Entries are re-pushed with their stored keys and
    /// flags; the uniformity counters are recounted from the per-entry flags
    /// and the running/queued sums are installed bit-exact. The caller has
    /// checked the snapshot ([`SetSnap::check`]).
    pub(crate) fn restore_state(&mut self, snap: &SetSnap, specs: &[JobSpec]) {
        self.reset();
        self.reference = snap.reference.clone();
        let entry = |e: &SetEntrySnap| {
            let HeapEntrySnap { key, idx, size, .. } = e.entry;
            Entry::new(key, idx, size, e.hetero, e.nonunit)
        };
        for e in &snap.running {
            self.hetero_running += usize::from(e.hetero);
            self.nonunit_running += usize::from(e.nonunit);
            self.running.push(entry(e), specs);
        }
        for e in &snap.queued {
            self.queued.push(entry(e), specs);
        }
        self.prefix = snap.prefix;
        self.q_frac = snap.q_frac;
    }
}

impl AliveSet for SrptSet {
    fn of(sets: &AliveSets) -> &Self {
        &sets.srpt
    }

    fn of_mut(sets: &mut AliveSets) -> &mut Self {
        &mut sets.srpt
    }

    fn len(&self) -> usize {
        self.running.len() + self.queued.len()
    }

    /// Clears all state for a fresh run while **retaining** every buffer
    /// (both heap arrays and the rebuild scratch) — the piece of the
    /// engine's buffer-reuse contract ([`crate::EngineBuffers`]) this
    /// structure owns.
    fn reset(&mut self) {
        self.running.clear();
        self.queued.clear();
        self.scratch.clear();
        self.prefix = Drain::default();
        self.q_frac = 0.0;
        self.hetero_running = 0;
        self.nonunit_running = 0;
        self.reference = None;
        self.profile = PrefixAllocation::default();
        self.interval = IntervalKind::Idle;
    }

    fn admit(&mut self, idx: usize, remaining: Work, jobs: &mut JobArena) {
        let (specs, mut lanes) = jobs.split_placement();
        let placement = self.insert(idx, remaining, specs);
        lanes.apply(idx, placement);
    }

    /// Applies the policy's prefix profile, rebalances the running/queued
    /// partition, and classifies the upcoming interval's drain shape.
    /// `O(log n)` plus `O(moved)` for the partition moves (amortized
    /// `O(1)` moves per event for the θ = 1 family; threshold crossings
    /// can move a batch, which the rebalance handles in bulk).
    ///
    /// The validated `(count, share)` pair is replayed from the per-`n`
    /// memo: the [`PrefixAllocation`] contract makes the profile a pure
    /// function of `(n_alive, m)` with `m` fixed per run, and the
    /// clamping/feasibility pipeline applied to it is deterministic, so
    /// caching the *validated* result is exact. Uniform-interval rates are
    /// likewise memoized per `(n, kernel class)`: same class ⇒
    /// bit-identical kernel ⇒ bit-identical `speed·Γ_c(share)`.
    #[inline]
    fn refresh(&mut self, cx: Refresh<'_>) -> Result<Schedule, SimError> {
        let n = self.len();
        if n == 0 {
            self.interval = IntervalKind::Idle;
            return Ok(Schedule::default());
        }
        let (count, share) = cx
            .memo
            .profile(n, &*cx.policy, cx.policy_name, cx.now, cx.m)?;
        self.profile = PrefixAllocation { count, share };
        let (specs, mut lanes) = cx.jobs.split_placement();
        if self.maybe_rebase(specs) {
            self.place_running(&mut lanes);
        }
        self.rebalance(count, specs, |idx, p| lanes.apply(idx, p));
        // Classify the interval. Uniform (O(1) drain) whenever every
        // running job provably drains at one common rate: a single runner,
        // identical curves, or share 1 with Γ(1) = 1 across the prefix.
        let share_is_unit = (share - 1.0).abs() <= 1e-12;
        let unit_rate = share_is_unit && self.unit_rate_at_one();
        let mut completion = None;
        if self.running_len() <= 1 || self.uniform_curves() || unit_rate {
            let rate = match self.front_running() {
                Some((slot, rem)) => {
                    // Γ(1) = 1 across the prefix ⇒ rate is the bare speed;
                    // skip the curve evaluation in the overload steady
                    // state.
                    let rate = if unit_rate {
                        cx.speed
                    } else {
                        cx.memo.slot(n).uniform_rate(cx.jobs, slot.idx, cx.speed)
                    };
                    if rate > 0.0 {
                        // Invariant under uniform drain, so it doubles as
                        // the completion candidate for this interval.
                        completion = Some(cx.now + rem / rate);
                    }
                    rate
                }
                None => 0.0,
            };
            self.interval = IntervalKind::Uniform { rate };
        } else {
            // Scan interval: one Γ evaluation per kernel *class*, then a
            // contiguous walk over the prefix through the per-class rate
            // cache (no per-job pointer chase, no per-job powf).
            cx.jobs.refresh_class_rates(cx.speed, share);
            let jobs = &*cx.jobs;
            completion = self.scan_completion(cx.now, |idx| jobs.rate_cached(idx, cx.speed, share));
            self.interval = IntervalKind::Scan;
        }
        Ok(Schedule {
            completion,
            deadline: None,
        })
    }

    /// Uniform intervals are O(1): the running prefix drains as one group
    /// (its fractional flow in closed form, `crate::drained`), plus
    /// `dt·Σ rem_j/p_j` over the (static) queue. Scan intervals fall back
    /// to per-job integration over the prefix only, which may reorder it,
    /// so the next interval is classified afresh.
    #[inline]
    fn integrate(
        &mut self,
        dt: f64,
        _t: Time,
        jobs: &mut JobArena,
        speed: f64,
        frac_flow: &mut NeumaierSum,
    ) -> Drained {
        match self.interval {
            IntervalKind::Idle => Drained::MaybeDue,
            IntervalKind::Uniform { rate } => {
                let run = self.integrate_uniform(rate, dt);
                frac_flow.add(run + self.queued_frac_sum() * dt);
                Drained::MaybeDue
            }
            IntervalKind::Scan => {
                // The per-class rate cache is valid for this (speed, share)
                // whenever the interval is Scan (refilled by the refresh
                // that classified it).
                let share = self.profile.share;
                let arena = &*jobs;
                let run =
                    self.drain_scan(dt, &arena.specs, |idx| arena.rate_cached(idx, speed, share));
                frac_flow.add((run + self.queued_frac_sum()) * dt);
                self.place_running(&mut jobs.split_placement().1);
                Drained::Reordered
            }
        }
    }

    /// Only the *front* of the running prefix can finish (SRPT order), so
    /// this pops while the front is within tolerance — O(log n) per
    /// completion, no sweep.
    #[inline]
    fn complete_due(
        &mut self,
        now: Time,
        jobs: &mut JobArena,
        speed: f64,
        _deadline: &mut Option<Time>,
        mut finish: impl FnMut(&mut JobArena, usize),
    ) -> bool {
        let mut completed_any = false;
        while let Some((slot, rem)) = self.front_running() {
            let rate = match self.interval {
                IntervalKind::Uniform { rate } => rate,
                IntervalKind::Scan => jobs.rate_cached(slot.idx, speed, self.profile.share),
                IntervalKind::Idle => 0.0,
            };
            if rem > completion_tolerance(slot.size, rate, now) {
                break;
            }
            self.pop_front_running(&jobs.specs);
            finish(jobs, slot.idx);
            completed_any = true;
        }
        completed_any
    }

    fn remaining(&self, idx: usize, jobs: &JobArena) -> Work {
        if jobs.in_running[idx] {
            self.running_remaining(jobs.run_key[idx])
        } else {
            jobs.remaining[idx]
        }
    }

    /// Lists the heaps as stored, running entries first, with no order
    /// within a partition: no reader of the walk depends on one.
    fn walk(&self, _jobs: &JobArena, mut f: impl FnMut(usize, Work)) {
        self.for_each_stored(|slot, rem, _| f(slot.idx, rem));
    }

    /// The audit needs no order within a partition, so the set is listed
    /// as stored rather than sorted.
    fn audit(
        &self,
        jobs: &JobArena,
        speed: f64,
        mut f: impl FnMut(usize, Work, f64, f64),
    ) -> Option<usize> {
        let share = self.profile.share;
        self.for_each_stored(|slot, rem, running| {
            if running {
                f(slot.idx, rem, share, speed * jobs.gamma(slot.idx, share));
            } else {
                f(slot.idx, rem, 0.0, 0.0);
            }
        });
        Some(self.running_len())
    }

    fn snapshot(&self, specs: &[JobSpec], snap: &mut Snapshot) {
        snap.incremental = true;
        snap.srpt = self.snapshot_state(specs);
        snap.profile_count = self.profile.count;
        snap.profile_share = self.profile.share;
        snap.interval = self.interval;
    }

    fn check(snap: &Snapshot, slots: &mut SlotCheck<'_>) -> Result<(), String> {
        snap.srpt.check(snap.incremental, slots)
    }

    /// The per-class rate cache is only contractually valid while the
    /// interval is Scan; it is refilled for exactly that case, as the
    /// refresh that classified the interval did.
    fn restore(&mut self, snap: &Snapshot, jobs: &mut JobArena, speed: f64) {
        self.restore_state(&snap.srpt, &jobs.specs);
        self.profile = PrefixAllocation {
            count: snap.profile_count,
            share: snap.profile_share,
        };
        self.interval = snap.interval;
        if self.interval == IntervalKind::Scan {
            jobs.refresh_class_rates(speed, self.profile.share);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, release: Time, size: Work) -> JobSpec {
        JobSpec::new(JobId(id), release, size, Curve::Sequential)
    }

    /// Arena-style spec lane: slot `i` holds job `i` released at 0.
    fn sizes_to_specs(sizes: &[f64]) -> Vec<JobSpec> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| spec(i as u64, 0.0, size))
            .collect()
    }

    /// Inserts every slot of `specs` with its full size as remaining work.
    fn insert_all(set: &mut SrptSet, specs: &[JobSpec]) {
        for (i, s) in specs.iter().enumerate() {
            set.insert(i, s.size, specs);
        }
    }

    /// The running prefix in SRPT order as `(slot, remaining)`, from a
    /// sorted copy of its entries: the reference the set's own sorted
    /// passes are checked against.
    fn iter_running(set: &SrptSet, specs: &[JobSpec]) -> Vec<(Slot, f64)> {
        let mut v: Vec<Entry> = set.running.entries().to_vec();
        sort_entries(&mut v, specs);
        v.iter()
            .map(|e| (e.slot(), set.prefix.remaining(e.key)))
            .collect()
    }

    /// The queue in SRPT order as `(slot, remaining)` (see [`iter_running`]).
    fn iter_queued(set: &SrptSet, specs: &[JobSpec]) -> Vec<(Slot, f64)> {
        let mut v: Vec<Entry> = set.queued.entries().to_vec();
        sort_entries(&mut v, specs);
        v.iter().map(|e| (e.slot(), e.key)).collect()
    }

    /// The whole alive set in SRPT order as `(idx, remaining)`.
    fn iter_alive(set: &SrptSet, specs: &[JobSpec]) -> Vec<(usize, f64)> {
        iter_running(set, specs)
            .into_iter()
            .chain(iter_queued(set, specs))
            .map(|(s, rem)| (s.idx, rem))
            .collect()
    }

    /// Drains the running prefix by `amount` (a unit-length interval).
    fn advance(set: &mut SrptSet, amount: f64) {
        set.integrate_uniform(amount, 1.0);
    }

    #[test]
    fn entries_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    /// The integer image orders exactly as `f64::total_cmp` does,
    /// including signed zeros, subnormals, infinities, and NaNs.
    #[test]
    fn ord_bits_is_total_cmp() {
        let values = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            1.0 + f64::EPSILON,
            -1.0,
            3e6,
            -3e6,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    ord_bits(a).cmp(&ord_bits(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn insert_and_rebalance_partition_by_srpt_order() {
        let mut set = SrptSet::default();
        let specs = sizes_to_specs(&[5.0, 1.0, 3.0]);
        insert_all(&mut set, &specs);
        set.rebalance(2, &specs, |_, _| {});
        assert_eq!(set.running_len(), 2);
        let order: Vec<usize> = iter_alive(&set, &specs)
            .into_iter()
            .map(|(idx, _)| idx)
            .collect();
        assert_eq!(order, vec![1, 2, 0]); // remaining 1, 3, 5
        let running: Vec<usize> = iter_running(&set, &specs)
            .into_iter()
            .map(|(s, _)| s.idx)
            .collect();
        assert_eq!(running, vec![1, 2]);
    }

    /// The set of `specs` with its `running` smallest jobs running, drained
    /// by a non-trivial offset.
    fn drained_set(specs: &[JobSpec], running: usize) -> SrptSet {
        let mut set = SrptSet::default();
        insert_all(&mut set, specs);
        set.rebalance(running, specs, |_, _| {});
        advance(&mut set, 0.4375);
        set
    }

    /// One job per size, released 0.1 apart, so no tie is at play.
    fn spread_specs(sizes: &[f64]) -> Vec<JobSpec> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| spec(i as u64, 0.1 * i as f64, size))
            .collect()
    }

    /// The rebuild behind `drain_scan` and `maybe_rebase` hands its update
    /// the prefix in SRPT order, with the remaining-work bits of the sorted
    /// reference.
    #[test]
    fn rebuild_running_visits_the_prefix_in_srpt_order_bitwise() {
        let specs = spread_specs(&[5.0, 1.0, 3.0, 2.75, 4.5, 0.25, 7.0, 6.125]);
        let mut set = drained_set(&specs, 5);
        let want: Vec<(usize, u64)> = iter_running(&set, &specs)
            .into_iter()
            .map(|(s, rem)| (s.idx, rem.to_bits()))
            .collect();
        let mut visited = Vec::new();
        set.rebuild_running(&specs, |s, rem| {
            visited.push((s.idx, rem.to_bits()));
            rem
        });
        assert_eq!(visited, want);
        assert_eq!(visited.len(), 5);
    }

    /// A snapshot lists both partitions in SRPT order, with the keys the
    /// heaps hold.
    #[test]
    fn snapshot_state_lists_both_partitions_in_srpt_order_bitwise() {
        let specs = spread_specs(&[5.0, 1.0, 3.0, 2.75, 4.5, 0.25, 7.0, 6.125, 3.0]);
        let set = drained_set(&specs, 3);
        let snap = set.snapshot_state(&specs);
        let listed = |part: &[SetEntrySnap]| -> Vec<(usize, u64)> {
            part.iter()
                .map(|e| (e.entry.idx, e.entry.key.to_bits()))
                .collect()
        };
        let sorted = |entries: &[Entry]| -> Vec<(usize, u64)> {
            let mut v = entries.to_vec();
            sort_entries(&mut v, &specs);
            v.iter()
                .map(|e| (e.idx as usize, e.key.to_bits()))
                .collect()
        };
        let running = sorted(set.running.entries());
        let queued = sorted(set.queued.entries());
        assert_eq!(listed(&snap.running), running);
        assert_eq!(listed(&snap.queued), queued);
        assert_eq!((snap.running.len(), snap.queued.len()), (3, 6));
    }

    /// The unsorted visit lists the running partition, then the queue,
    /// each with the same entries and remaining-work bits as the sorted
    /// views.
    #[test]
    fn for_each_stored_lists_each_partition_as_the_sorted_views_do() {
        let specs = spread_specs(&[5.0, 1.0, 3.0, 2.75, 4.5, 0.25, 7.0, 6.125, 3.0]);
        let set = drained_set(&specs, 4);
        let mut stored = Vec::new();
        set.for_each_stored(|s, rem, running| stored.push((running, s.idx, rem.to_bits())));
        let k = set.running_len();
        assert!(stored[..k].iter().all(|e| e.0) && !stored[k..].iter().any(|e| e.0));
        let mut sorted: Vec<(bool, usize, u64)> = iter_running(&set, &specs)
            .into_iter()
            .map(|(s, rem)| (true, s.idx, rem.to_bits()))
            .chain(
                iter_queued(&set, &specs)
                    .into_iter()
                    .map(|(s, rem)| (false, s.idx, rem.to_bits())),
            )
            .collect();
        stored[..k].sort_unstable();
        stored[k..].sort_unstable();
        sorted[..k].sort_unstable();
        sorted[k..].sort_unstable();
        assert_eq!(stored, sorted);
    }

    /// A tie-heavy set on four curves: keys drawn from a handful of values
    /// over releases from `{-0.0, +0.0, 1.0}`, sizes from three values, and
    /// 120 of the 300 jobs running under a drain offset.
    fn mixed_tie_set(seed: u64) -> (SrptSet, Vec<JobSpec>) {
        let mut next = lcg(seed);
        let curves = [
            Curve::power(0.25),
            Curve::power(0.37),
            Curve::Sequential,
            Curve::FullyParallel,
        ];
        let specs: Vec<JobSpec> = tie_specs(300, &mut next)
            .into_iter()
            .map(|mut s| {
                s.size = [1.0, 2.5, 7.0][next(3) as usize];
                s.curve = curves[next(4) as usize].clone();
                s
            })
            .collect();
        let mut set = SrptSet::default();
        for i in 0..specs.len() {
            set.insert(i, tie_key(&mut next).abs() + 1.0, &specs);
        }
        set.rebalance(120, &specs, |_, _| {});
        advance(&mut set, 0.375);
        (set, specs)
    }

    /// Per-job rates at share 0.6 through each job's curve.
    fn curve_rate(specs: &[JobSpec]) -> impl Fn(usize) -> f64 + '_ {
        |idx| specs[idx].curve.rate(0.6)
    }

    /// The Scan interval's flow folded over a sorted copy of the running
    /// entries: the fold the integration made before `drain_scan` returned
    /// the flow from its own sorted pass.
    fn ordered_scan_flow(set: &SrptSet, specs: &[JobSpec], dt: f64) -> f64 {
        let rate_of = curve_rate(specs);
        let mut run = 0.0;
        for (slot, rem) in iter_running(set, specs) {
            let rate = rate_of(slot.idx);
            run += (rem - rate * dt / 2.0).max(0.0) / slot.size;
        }
        run
    }

    #[test]
    fn drain_scan_flow_matches_the_ordered_fold_bitwise() {
        for (seed, dt) in [(0x5ca1, 0.75), (0x0dd5, 2.5), (0xfee1, 1e-3)] {
            let (mut set, specs) = mixed_tie_set(seed);
            let want = ordered_scan_flow(&set, &specs, dt);
            let got = set.drain_scan(dt, &specs, curve_rate(&specs));
            assert_eq!(got.to_bits(), want.to_bits(), "seed {seed:#x}, dt {dt}");
            assert_eq!(set.running_len(), 120);
        }
    }

    #[test]
    fn scan_completion_is_the_ordered_fold_minimum() {
        for seed in [0x5ca1, 0x0dd5, 0xfee1] {
            let (set, specs) = mixed_tie_set(seed);
            let (now, rate_of) = (3.25, curve_rate(&specs));
            let mut want = None;
            for (slot, rem) in iter_running(&set, &specs) {
                fold_earliest(&mut want, now + rem / rate_of(slot.idx));
            }
            let got = set.scan_completion(now, &rate_of);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "seed {seed:#x}"
            );
        }
    }

    #[test]
    fn uniform_advance_drains_only_the_prefix() {
        let mut set = SrptSet::default();
        let specs = sizes_to_specs(&[2.0, 4.0]);
        insert_all(&mut set, &specs);
        set.rebalance(1, &specs, |_, _| {});
        advance(&mut set, 1.5);
        let rems = iter_alive(&set, &specs);
        assert!((rems[0].1 - 0.5).abs() < 1e-12); // running drained
        assert!((rems[1].1 - 4.0).abs() < 1e-12); // queued untouched
    }

    #[test]
    fn pop_front_returns_smallest_and_resets_offset_when_empty() {
        let mut set = SrptSet::default();
        let specs = sizes_to_specs(&[2.0]);
        insert_all(&mut set, &specs);
        set.rebalance(1, &specs, |_, _| {});
        advance(&mut set, 2.0);
        let (slot, rem) = set.pop_front_running(&specs).unwrap();
        assert_eq!(slot.idx, 0);
        assert!(rem.abs() < 1e-12);
        assert_eq!(set.len(), 0);
        assert_eq!(set.prefix.offset, 0.0);
        assert_eq!(set.prefix.s1, 0.0);
    }

    #[test]
    fn rebalance_promotes_in_srpt_order_after_completion() {
        let mut set = SrptSet::default();
        let specs = sizes_to_specs(&[1.0, 2.0, 3.0]);
        insert_all(&mut set, &specs);
        set.rebalance(2, &specs, |_, _| {});
        advance(&mut set, 1.0);
        set.pop_front_running(&specs).unwrap(); // job 0 done
        let mut promoted = vec![];
        set.rebalance(2, &specs, |idx, p| promoted.push((idx, p)));
        assert_eq!(promoted.len(), 1);
        assert_eq!(promoted[0].0, 2); // remaining 3.0 job joins the prefix
                                      // Job 1 drained 1.0 → remaining 1.0; job 2 still 3.0.
        let rems = iter_alive(&set, &specs);
        assert!((rems[0].1 - 1.0).abs() < 1e-12);
        assert!((rems[1].1 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ties_break_by_release_then_id() {
        let mut set = SrptSet::default();
        let specs = vec![spec(9, 1.0, 2.0), spec(3, 0.0, 2.0), spec(5, 0.0, 2.0)];
        insert_all(&mut set, &specs);
        set.rebalance(3, &specs, |_, _| {});
        let order: Vec<usize> = iter_alive(&set, &specs)
            .into_iter()
            .map(|(idx, _)| idx)
            .collect();
        assert_eq!(order, vec![1, 2, 0]); // (0.0, id 3), (0.0, id 5), (1.0, id 9)
    }

    #[test]
    fn uniformity_counters_track_membership() {
        let mut set = SrptSet::default();
        let mut par = spec(1, 0.0, 3.0);
        par.curve = Curve::FullyParallel;
        let specs = vec![spec(0, 0.0, 2.0), par]; // reference: Sequential
        insert_all(&mut set, &specs);
        set.rebalance(2, &specs, |_, _| {});
        assert!(!set.uniform_curves());
        assert!(set.unit_rate_at_one()); // both Γ(1) = 1
        set.rebalance(1, &specs, |_, _| {}); // demote the parallel job (larger)
        assert!(set.uniform_curves());
    }

    #[test]
    fn drain_scan_reorders_by_new_remaining() {
        let mut set = SrptSet::default();
        // Sequential job drains at rate(2) = 1; parallel at rate(2) = 2.
        let mut par = spec(1, 0.0, 3.5);
        par.curve = Curve::FullyParallel;
        let specs = vec![spec(0, 0.0, 3.0), par];
        insert_all(&mut set, &specs);
        set.rebalance(2, &specs, |_, _| {});
        let rate = |idx: usize| if idx == 0 { 1.0 } else { 2.0 };
        set.drain_scan(1.5, &specs, rate);
        // Remaining: job 0 → 1.5, job 1 → 0.5; order flips.
        let order = iter_alive(&set, &specs);
        assert_eq!(order[0].0, 1);
        assert!((order[0].1 - 0.5).abs() < 1e-12);
        assert!((order[1].1 - 1.5).abs() < 1e-12);
        assert_eq!(set.prefix.offset, 0.0);
    }

    #[test]
    fn rebase_folds_offset_without_changing_state() {
        let mut set = SrptSet::default();
        let specs = sizes_to_specs(&[3e6, 4e6]);
        insert_all(&mut set, &specs);
        set.rebalance(2, &specs, |_, _| {});
        advance(&mut set, 2e6);
        let before: Vec<(usize, f64)> = iter_alive(&set, &specs);
        assert!(set.maybe_rebase(&specs));
        assert_eq!(set.prefix.offset, 0.0);
        let after: Vec<(usize, f64)> = iter_alive(&set, &specs);
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.0, a.0);
            assert!((b.1 - a.1).abs() < 1e-6 * b.1.max(1.0));
        }
    }

    #[test]
    fn fractional_sums_match_direct_computation() {
        let mut set = SrptSet::default();
        let specs = sizes_to_specs(&[2.0, 5.0, 7.0, 11.0]);
        insert_all(&mut set, &specs);
        set.rebalance(2, &specs, |_, _| {});
        advance(&mut set, 1.0);
        // Running: 2.0→1.0, 5.0→4.0. Queued: 7.0, 11.0.
        let run_frac = set.prefix.frac();
        let expect_run = 1.0 / 2.0 + 4.0 / 5.0;
        assert!((run_frac - expect_run).abs() < 1e-12);
        let expect_q = 1.0 + 1.0; // 7/7 + 11/11
        assert!((set.queued_frac_sum() - expect_q).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state_but_keeps_capacity() {
        let mut set = SrptSet::default();
        let sizes: Vec<f64> = (0..64).map(|i| 1.0 + f64::from(i)).collect();
        let specs = sizes_to_specs(&sizes);
        insert_all(&mut set, &specs);
        set.rebalance(8, &specs, |_, _| {});
        advance(&mut set, 0.25);
        set.reset();
        assert_eq!(set.len(), 0);
        assert_eq!(set.running_len(), 0);
        assert_eq!(set.prefix.offset, 0.0);
        assert!(set.uniform_curves() && set.unit_rate_at_one());
        // The set is fully reusable after reset.
        let specs = vec![spec(100, 0.0, 2.0)];
        insert_all(&mut set, &specs);
        set.rebalance(1, &specs, |_, _| {});
        assert_eq!(set.front_running().unwrap().0.idx, 0);
    }

    /// 64-bit LCG stream for the heap fuzzers.
    fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut rng = seed;
        move |m: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % m
        }
    }

    /// Reference SRPT order of entries, straight from the specs:
    /// `(key, release, id)` under `total_cmp`.
    fn reference_order(a: &Entry, b: &Entry, specs: &[JobSpec]) -> Ordering {
        let (sa, sb) = (&specs[a.idx as usize], &specs[b.idx as usize]);
        a.key
            .total_cmp(&b.key)
            .then(sa.release.total_cmp(&sb.release))
            .then(sa.id.cmp(&sb.id))
    }

    /// A spec lane of `n` jobs built for ties: releases drawn from
    /// `{-0.0, +0.0, 1.0}` and distinct ids in scrambled order.
    fn tie_specs(n: usize, next: &mut impl FnMut(u64) -> u64) -> Vec<JobSpec> {
        (0..n)
            .map(|i| {
                let release = [-0.0, 0.0, 1.0][next(3) as usize];
                let id = (i as u64 * 7919) % 100_003;
                spec(id, release, 1.0)
            })
            .collect()
    }

    /// A key drawn from a handful of values, so most keys collide exactly
    /// (signed zeros included).
    fn tie_key(next: &mut impl FnMut(u64) -> u64) -> f64 {
        [-0.0, 0.0, 0.5, 1.0, 1.0, 2.5][next(6) as usize]
    }

    fn entry(key: f64, idx: usize) -> Entry {
        Entry::new(key, idx, 1.0, false, false)
    }

    /// Min-max heap fuzz: interleaved push / pop-min / pop-max against a
    /// sorted-Vec model, checking both peeks before every mutation.
    #[test]
    fn min_max_heap_matches_sorted_model_under_churn() {
        let mut next = lcg(0x1234_5678_9abc_def0);
        let specs: Vec<JobSpec> = (0..4000).map(|i| spec(i, 0.0, 1.0)).collect();
        let mut heap = MinMaxHeap::default();
        let mut model: Vec<Entry> = Vec::new();
        let idx_of = |e: Option<&Entry>| e.map(|e| e.idx);
        for step in 0..4000 {
            // Peeks agree with the model.
            model.sort_by(|a, b| reference_order(a, b, &specs));
            assert_eq!(idx_of(heap.peek_min()), idx_of(model.first()));
            assert_eq!(idx_of(heap.peek_max(&specs)), idx_of(model.last()));
            match next(4) {
                0 | 1 => {
                    let e = entry(next(50) as f64 * 0.5, step);
                    heap.push(e, &specs);
                    model.push(e);
                }
                2 => {
                    let got = idx_of(heap.pop_min(&specs).as_ref());
                    assert_eq!(got, idx_of(model.first()), "pop_min at step {step}");
                    if !model.is_empty() {
                        model.remove(0);
                    }
                }
                _ => {
                    let got = idx_of(heap.pop_max(&specs).as_ref());
                    assert_eq!(got, idx_of(model.last()), "pop_max at step {step}");
                    model.pop();
                }
            }
            assert_eq!(heap.len(), model.len());
        }
    }

    /// Both heaps, on random multisets where most keys tie exactly and the
    /// `(release, id)` tie-break comes from the spec lane: the queue heap
    /// pops, and the min-max heap pops from either end, in exactly the
    /// order of a sort by the reference comparison — across interleaved
    /// pushes and pops, not just a fill-then-drain.
    #[test]
    fn heaps_pop_in_reference_order_on_tie_heavy_multisets() {
        let mut next = lcg(0x5eed_0f71_3500);
        for round in 0..40 {
            let n = 1 + next(200) as usize;
            let specs = tie_specs(n, &mut next);
            let mut queue = MinHeap::default();
            let mut both = MinMaxHeap::default();
            let mut model: Vec<Entry> = Vec::new();
            let mut idx = 0;
            while idx < n || !model.is_empty() {
                if idx < n && (model.is_empty() || next(3) != 0) {
                    let e = entry(tie_key(&mut next), idx);
                    idx += 1;
                    queue.push(e, &specs);
                    both.push(e, &specs);
                    model.push(e);
                    continue;
                }
                model.sort_by(|a, b| reference_order(a, b, &specs));
                let want_min = model.remove(0);
                let got = queue.pop(&specs).map(|e| e.idx);
                assert_eq!(got, Some(want_min.idx), "round {round}: queue pop");
                // The min-max heap holds the same multiset; pop the
                // minimum, then pop and push back the maximum.
                let got = both.pop_min(&specs).map(|e| e.idx);
                assert_eq!(got, Some(want_min.idx), "round {round}: pop_min");
                if let Some(want_max) = model.last().copied() {
                    let got = both.pop_max(&specs).map(|e| e.idx);
                    assert_eq!(got, Some(want_max.idx), "round {round}: pop_max");
                    both.push(want_max, &specs);
                }
                assert_eq!(queue.len(), model.len());
                assert_eq!(both.len(), model.len());
            }
            assert!(queue.is_empty() && both.is_empty());
        }
    }

    /// The set's ordered views — a snapshot's partitions, the order the
    /// Scan rebuild folds in — sort tie-heavy entries exactly as the
    /// reference comparison does.
    #[test]
    fn ordered_views_sort_ties_by_the_spec_lane() {
        let mut next = lcg(0x0bad_cafe);
        let specs = tie_specs(300, &mut next);
        let mut set = SrptSet::default();
        for i in 0..specs.len() {
            set.insert(i, tie_key(&mut next).abs() + 1.0, &specs);
        }
        set.rebalance(120, &specs, |_, _| {});
        let snap = set.snapshot_state(&specs);
        for part in [&snap.running, &snap.queued] {
            let got: Vec<usize> = part.iter().map(|e| e.entry.idx).collect();
            let mut want = part.clone();
            want.sort_by(|a, b| {
                let (a, b) = (&a.entry, &b.entry);
                a.key
                    .total_cmp(&b.key)
                    .then(a.release.total_cmp(&b.release))
                    .then(a.id.cmp(&b.id))
            });
            let want: Vec<usize> = want.iter().map(|e| e.entry.idx).collect();
            assert_eq!(got, want);
        }
        let mut rebuilt = Vec::new();
        set.rebuild_running(&specs, |s, rem| {
            rebuilt.push(s.idx);
            rem
        });
        let running: Vec<usize> = snap.running.iter().map(|e| e.entry.idx).collect();
        assert_eq!(rebuilt, running);
    }

    /// Naive reference order: `(remaining, release, id)` ascending.
    fn sort_model(model: &mut [(usize, f64, f64, u64)]) {
        model.sort_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then(a.2.total_cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
    }

    #[test]
    fn churn_matches_naive_reference_model() {
        // Differential test: 200 steps of interleaved arrivals, offset-bump
        // drains, and front completions, against a sorted-Vec model. Any
        // ordering or sum drift introduced by the offset representation
        // (insert-during-drain, rebases, tie-breaks) shows up here.
        const PREFIX: usize = 3;
        let mut set = SrptSet::default();
        let mut specs: Vec<JobSpec> = Vec::new();
        let mut model: Vec<(usize, f64, f64, u64)> = Vec::new();
        let mut next = lcg(0x9e37_79b9_7f4a_7c15);
        for step in 0..200 {
            match next(3) {
                0 => {
                    let size = 1.0 + next(16) as f64;
                    let release = f64::from(step);
                    let arena = specs.len();
                    specs.push(spec(arena as u64, release, size));
                    set.insert(arena, size, &specs);
                    model.push((arena, size, release, arena as u64));
                }
                1 => {
                    // Drain halfway to the front-running completion.
                    if let Some((_, rem)) = set.front_running() {
                        let amount = rem * 0.5;
                        let k = set.running_len();
                        advance(&mut set, amount);
                        sort_model(&mut model);
                        for e in model.iter_mut().take(k) {
                            e.1 -= amount;
                        }
                    }
                }
                _ => {
                    // Drain exactly to the front completion and pop it.
                    if let Some((_, rem)) = set.front_running() {
                        let k = set.running_len();
                        advance(&mut set, rem);
                        let (slot, left) = set.pop_front_running(&specs).unwrap();
                        assert!(left.abs() < 1e-9, "step {step}: leftover {left}");
                        sort_model(&mut model);
                        for e in model.iter_mut().take(k) {
                            e.1 -= rem;
                        }
                        assert_eq!(slot.idx, model[0].0, "step {step}: wrong completion");
                        model.remove(0);
                    }
                }
            }
            set.rebalance(PREFIX, &specs, |_, _| {});
            sort_model(&mut model);
            let got: Vec<(usize, f64)> = iter_alive(&set, &specs);
            assert_eq!(got.len(), model.len(), "step {step}");
            for (g, e) in got.iter().zip(&model) {
                assert_eq!(g.0, e.0, "step {step}: order diverged");
                assert!(
                    (g.1 - e.1).abs() < 1e-9 * e.1.abs().max(1.0),
                    "step {step}: remaining {} vs model {}",
                    g.1,
                    e.1
                );
            }
        }
    }

    #[test]
    fn equal_remaining_after_offset_bump_ties_by_release_then_id() {
        let mut set = SrptSet::default();
        // Job 0 (release 0) starts at 5 and drains to 2; job 1 (release 7)
        // then arrives with remaining exactly 2. The drained job keeps
        // priority through the earlier release despite identical remaining.
        let specs = vec![spec(0, 0.0, 5.0), spec(1, 7.0, 2.0)];
        set.insert(0, 5.0, &specs);
        set.rebalance(1, &specs, |_, _| {});
        advance(&mut set, 3.0);
        set.insert(1, 2.0, &specs);
        set.rebalance(2, &specs, |_, _| {});
        let order: Vec<(usize, f64)> = iter_alive(&set, &specs);
        assert_eq!(order[0].0, 0);
        assert_eq!(order[1].0, 1);
        assert!((order[0].1 - 2.0).abs() < 1e-12);
        assert!((order[1].1 - 2.0).abs() < 1e-12);
        // And the completion order honors the same tie-break.
        advance(&mut set, 2.0);
        assert_eq!(set.pop_front_running(&specs).unwrap().0.idx, 0);
        set.rebalance(2, &specs, |_, _| {});
        advance(&mut set, 2.0);
        assert_eq!(set.pop_front_running(&specs).unwrap().0.idx, 1);
    }

    #[test]
    fn insert_at_prefix_boundary_queues_then_promotes_in_order() {
        let mut set = SrptSet::default();
        let specs = vec![
            spec(0, 0.0, 2.0),
            spec(1, 0.0, 6.0),
            spec(2, 1.0, 6.0),
            spec(3, 1.0, 1.0),
        ];
        set.insert(0, 2.0, &specs);
        set.insert(1, 6.0, &specs);
        set.rebalance(2, &specs, |_, _| {});
        // Remaining exactly equal to the largest running job: by the SRPT
        // tie-break (later release) it does NOT belong in the prefix.
        let p = set.insert(2, 6.0, &specs);
        assert_eq!(p, Placement::Queued { remaining: 6.0 });
        // Smaller than the front: belongs strictly inside the prefix.
        let p = set.insert(3, 1.0, &specs);
        assert!(matches!(p, Placement::Running { .. }));
        set.rebalance(2, &specs, |_, _| {});
        assert_eq!(set.running_len(), 2);
        let order: Vec<usize> = iter_alive(&set, &specs)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(order, vec![3, 0, 1, 2]);
    }

    #[test]
    fn front_completion_with_tied_pair_pops_one_at_a_time() {
        let mut set = SrptSet::default();
        let specs = sizes_to_specs(&[3.0, 3.0]);
        insert_all(&mut set, &specs);
        set.rebalance(2, &specs, |_, _| {});
        advance(&mut set, 3.0); // both hit zero simultaneously
        let (first, r1) = set.pop_front_running(&specs).unwrap();
        let (second, r2) = set.pop_front_running(&specs).unwrap();
        assert_eq!((first.idx, second.idx), (0, 1)); // id tie-break
        assert!(r1.abs() < 1e-12 && r2.abs() < 1e-12);
        assert_eq!(set.len(), 0);
        assert_eq!(set.prefix.offset, 0.0);
        assert!(set.pop_front_running(&specs).is_none());
    }

    #[test]
    fn insert_during_drain_lands_in_correct_position() {
        let mut set = SrptSet::default();
        let specs = vec![spec(0, 0.0, 4.0), spec(1, 0.0, 10.0), spec(2, 3.0, 2.0)];
        set.insert(0, 4.0, &specs);
        set.insert(1, 10.0, &specs);
        set.rebalance(2, &specs, |_, _| {});
        advance(&mut set, 3.0); // remaining: 1.0, 7.0
                                // New arrival with remaining 2.0 belongs between them.
        let p = set.insert(2, 2.0, &specs);
        assert!(matches!(p, Placement::Running { .. }));
        set.rebalance(2, &specs, |_, _| {});
        let order: Vec<usize> = iter_alive(&set, &specs)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(order, vec![0, 2, 1]);
        assert_eq!(set.running_len(), 2);
    }
}
