//! The ordered alive set behind the engine's incremental `O(log n)` path.
//!
//! [`SrptSet`] maintains the alive jobs in SRPT order — `(remaining,
//! release, id)` — split into two partitions:
//!
//! * **running**: the scheduled prefix (the `k` smallest jobs), keyed in
//!   *offset* space `key = remaining + D`, where `D` is the cumulative
//!   drain applied uniformly to the whole prefix;
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
//! allocation, where the seed's B-tree paid pointer chasing plus a node
//! allocation/free per structural change on every event. The running
//! prefix is a **min-max heap** (Atkinson et al.: even levels ordered by
//! min, odd by max, so both ends pop in `O(log k)`); the queue only ever
//! pops its minimum (promotion) and is a plain binary min-heap. Buffers
//! are retained across [`SrptSet::reset`], which is what makes repeated
//! engine runs allocation-free after warm-up (see `docs/PERF.md` §6).
//!
//! Ordered iteration (audit frames, snapshots, heterogeneous-prefix
//! scans) sorts a copy of the entries — into the retained `ordered`
//! scratch for the engine's Scan intervals and audit frames, into a fresh
//! vector for observers and snapshots; the sort uses the same total order
//! the B-tree kept, so every externally observable sequence — completion
//! order, tie-breaks, floating-point accumulation order of the running
//! sums — is unchanged.
//!
//! Heterogeneous prefixes (different curves at share ≠ 1) drain at
//! per-job rates; [`SrptSet::drain_scan`] handles those intervals in
//! `O(k log k)`. Two counters maintained on the fly — jobs whose curve
//! differs from the first-admitted reference and jobs with `Γ(1) ≠ 1` —
//! let the engine detect the uniform case in `O(1)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parsched_speedup::Curve;

use crate::job::{JobId, JobSpec, Time, Work};

/// Rebase threshold for the drain offset: past this, `ulp(D)` approaches
/// the engine's `EPS`-scaled completion tolerances, so keys are rebuilt
/// with the offset folded in (an `O(k log k)` cleanup, amortized free).
const REBASE_LIMIT: f64 = 1e6;

/// SRPT ordering key. For running entries `key` is in offset space
/// (`remaining + D`); for queued entries it is the literal remaining work.
/// Ties break by `(release, id)`, matching `parsched_core::util::srpt_cmp`.
#[derive(Debug, Clone, Copy)]
struct OrdKey {
    key: f64,
    release: Time,
    id: JobId,
}

impl PartialEq for OrdKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for OrdKey {}

impl PartialOrd for OrdKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .total_cmp(&other.key)
            .then_with(|| self.release.total_cmp(&other.release))
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// Per-job payload carried alongside the ordering key: everything the set
/// needs to maintain its sums and counters without consulting the engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// Index into the engine's job arena.
    pub idx: usize,
    /// Original size `p_j` (denominator of fractional flow).
    pub size: Work,
    /// Curve differs from the set's reference curve.
    hetero: bool,
    /// `Γ(1) ≠ 1` for this job's curve.
    nonunit: bool,
}

/// One heap element: ordering key plus payload. Total order is the key's
/// (keys are unique — `id` is a tie-break of last resort — so `Eq` by key
/// is consistent with logical identity).
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: OrdKey,
    slot: Slot,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A `Vec`-backed min-max heap (Atkinson–Sack–Santoro–Strothotte):
/// `O(log n)` push / pop-min / pop-max, `O(1)` peek at both ends, and no
/// per-node allocation. Levels alternate: the root level (depth 0) and
/// every even depth satisfy the *min* property (element ≤ its subtree),
/// odd depths the *max* property (element ≥ its subtree).
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

    fn max_index(&self) -> Option<usize> {
        match self.a.len() {
            0 => None,
            1 => Some(0),
            2 => Some(1),
            _ => Some(if self.a[1] >= self.a[2] { 1 } else { 2 }),
        }
    }

    #[inline]
    fn peek_max(&self) -> Option<&Entry> {
        self.max_index().map(|i| &self.a[i])
    }

    fn push(&mut self, e: Entry) {
        self.a.push(e);
        self.bubble_up(self.a.len() - 1);
    }

    fn pop_min(&mut self) -> Option<Entry> {
        if self.a.is_empty() {
            return None;
        }
        let min = self.a.swap_remove(0);
        if !self.a.is_empty() {
            self.trickle_down(0);
        }
        Some(min)
    }

    fn pop_max(&mut self) -> Option<Entry> {
        let i = self.max_index()?;
        let max = self.a.swap_remove(i);
        if i < self.a.len() {
            self.trickle_down(i);
        }
        Some(max)
    }

    fn clear(&mut self) {
        self.a.clear();
    }

    /// Unordered view of the entries (callers sort for SRPT order).
    #[inline]
    fn entries(&self) -> &[Entry] {
        &self.a
    }

    /// Drains all entries (unordered) into `out`, leaving capacity behind.
    fn drain_into(&mut self, out: &mut Vec<Entry>) {
        out.extend_from_slice(&self.a);
        self.a.clear();
    }

    fn bubble_up(&mut self, mut i: usize) {
        if i == 0 {
            return;
        }
        let parent = (i - 1) / 2;
        if on_min_level(i) {
            if self.a[i] > self.a[parent] {
                self.a.swap(i, parent);
                i = parent;
                self.bubble_up_grand(i, false);
            } else {
                self.bubble_up_grand(i, true);
            }
        } else if self.a[i] < self.a[parent] {
            self.a.swap(i, parent);
            i = parent;
            self.bubble_up_grand(i, true);
        } else {
            self.bubble_up_grand(i, false);
        }
    }

    /// Sifts `i` toward the root along grandparent links; `min` selects
    /// which property (min or max levels) is being restored.
    fn bubble_up_grand(&mut self, mut i: usize, min: bool) {
        while i > 2 {
            let gp = ((i - 1) / 2 - 1) / 2;
            let swap = if min {
                self.a[i] < self.a[gp]
            } else {
                self.a[i] > self.a[gp]
            };
            if !swap {
                break;
            }
            self.a.swap(i, gp);
            i = gp;
        }
    }

    fn trickle_down(&mut self, i: usize) {
        if on_min_level(i) {
            self.trickle(i, true);
        } else {
            self.trickle(i, false);
        }
    }

    /// Restores the heap property below `i`; `min` selects the property of
    /// `i`'s level. Standard min-max trickle: descend to the extreme child
    /// or grandchild, swapping the intervening parent when a grandchild
    /// wins.
    fn trickle(&mut self, mut i: usize, min: bool) {
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
            if second_child < len {
                let better = if min {
                    self.a[second_child] < self.a[best]
                } else {
                    self.a[second_child] > self.a[best]
                };
                if better {
                    best = second_child;
                }
            }
            let first_grand = 4 * i + 3;
            for g in first_grand..(first_grand + 4).min(len) {
                let better = if min {
                    self.a[g] < self.a[best]
                } else {
                    self.a[g] > self.a[best]
                };
                if better {
                    best = g;
                    best_is_grandchild = true;
                }
            }
            let improves = if min {
                self.a[best] < self.a[i]
            } else {
                self.a[best] > self.a[i]
            };
            if !improves {
                return;
            }
            self.a.swap(i, best);
            if !best_is_grandchild {
                return;
            }
            // After a grandchild swap the intervening parent (an opposite-
            // level node) may now violate its own property.
            let parent = (best - 1) / 2;
            let parent_violated = if min {
                self.a[best] > self.a[parent]
            } else {
                self.a[best] < self.a[parent]
            };
            if parent_violated {
                self.a.swap(best, parent);
            }
            i = best;
        }
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

/// One alive-set entry as captured in a `parsched-snap/v2` document:
/// ordering key (offset space for running, literal remaining for queued)
/// plus the full [`Slot`] payload. The `hetero`/`nonunit` flags are stored
/// verbatim — they were computed against the reference curve at *insert*
/// time, and recomputing them on restore could diverge when the reference
/// itself was a later-admitted job's curve in the original run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SetEntrySnap {
    pub(crate) key: f64,
    pub(crate) release: Time,
    pub(crate) id: JobId,
    pub(crate) idx: usize,
    pub(crate) size: Work,
    pub(crate) hetero: bool,
    pub(crate) nonunit: bool,
}

/// Full [`SrptSet`] state for suspend/resume. The five running/queued sums
/// are captured bit-exact rather than recomputed on restore: they were
/// accumulated incrementally over the run's insert/forget sequence, and any
/// re-summation order would produce different low-order bits.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SetSnap {
    pub(crate) running: Vec<SetEntrySnap>,
    pub(crate) queued: Vec<SetEntrySnap>,
    pub(crate) drain: f64,
    pub(crate) s1: f64,
    pub(crate) sk: f64,
    pub(crate) key_sum: f64,
    pub(crate) q_frac: f64,
    pub(crate) q_rem_sum: f64,
    pub(crate) reference: Option<Curve>,
}

/// The alive set in SRPT order with an `O(1)` uniform-drain fast path.
#[derive(Debug, Default)]
pub(crate) struct SrptSet {
    /// Scheduled prefix: min-max heap over offset-space keys.
    running: MinMaxHeap,
    /// Queue: binary min-heap over literal remaining work.
    queued: BinaryHeap<Reverse<Entry>>,
    /// Scratch for ordered rebuilds (`drain_scan` / `maybe_rebase`);
    /// retained so rebuilds allocate nothing after warm-up.
    // lint:allow(L009) transient scratch for ordered views, empty between events; nothing to restore
    scratch: Vec<Entry>,
    /// Scratch for steady-state ordered *views*
    /// ([`SrptSet::for_each_running_ordered`]); kept separate from
    /// `scratch` because a view can be taken while a rebuild is pending.
    // lint:allow(L009) transient scratch for ordered views, empty between events; nothing to restore
    ordered: Vec<Entry>,
    /// Cumulative uniform drain applied to the running partition.
    drain: f64,
    /// `Σ 1/p_j` over running.
    s1: f64,
    /// `Σ key_j/p_j` over running (offset space).
    sk: f64,
    /// `Σ key_j` over running (offset space; total remaining = key_sum − k·D).
    key_sum: f64,
    /// `Σ rem_j/p_j` over queued.
    q_frac: f64,
    /// `Σ rem_j` over queued.
    q_rem_sum: f64,
    /// Running jobs whose curve differs from `reference`.
    // lint:allow(L009) derived partition statistic; rebuilt by rebuild_running during restore
    hetero_running: usize,
    /// Running jobs with `Γ(1) ≠ 1`.
    // lint:allow(L009) derived partition statistic; rebuilt by rebuild_running during restore
    nonunit_running: usize,
    /// Curve of the first job ever admitted (uniformity baseline).
    reference: Option<Curve>,
}

impl SrptSet {
    /// Clears all state for a fresh run while **retaining** every buffer
    /// (both heap arrays and the rebuild scratch) — the piece of
    /// [`crate::Engine::reset`]'s zero-allocation contract this structure
    /// owns.
    pub fn reset(&mut self) {
        self.running.clear();
        self.queued.clear();
        self.scratch.clear();
        self.ordered.clear();
        self.drain = 0.0;
        self.s1 = 0.0;
        self.sk = 0.0;
        self.key_sum = 0.0;
        self.q_frac = 0.0;
        self.q_rem_sum = 0.0;
        self.hetero_running = 0;
        self.nonunit_running = 0;
        self.reference = None;
    }

    /// Total alive jobs.
    pub fn len(&self) -> usize {
        self.running.len() + self.queued.len()
    }

    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Current cumulative drain offset `D`.
    pub fn drain_offset(&self) -> f64 {
        self.drain
    }

    /// `Σ 1/p_j` over the running prefix.
    pub fn running_inv_size_sum(&self) -> f64 {
        self.s1
    }

    /// `Σ key_j/p_j` over the running prefix (offset space); the running
    /// partition's fractional remaining work is `sk − D·s1`.
    pub fn running_key_frac_sum(&self) -> f64 {
        self.sk
    }

    /// `Σ rem_j/p_j` over queued jobs.
    pub fn queued_frac_sum(&self) -> f64 {
        self.q_frac
    }

    /// Total remaining work across both partitions, `O(1)`.
    pub fn total_remaining(&self) -> f64 {
        let running = self.key_sum - self.running.len() as f64 * self.drain;
        (running + self.q_rem_sum).max(0.0)
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
            .map(|e| (e.slot, (e.key.key - self.drain).max(0.0)))
    }

    /// The running prefix in SRPT order as `(slot, remaining)`.
    ///
    /// Materializes a sorted copy: ordered views are off the steady-state
    /// path (observers, snapshots, tests), and sorting by
    /// the same total order the old B-tree kept preserves every observable
    /// iteration sequence bit-for-bit.
    pub fn iter_running(&self) -> impl Iterator<Item = (Slot, f64)> + '_ {
        // lint:allow(L007) ordered views are off the steady-state path (module docs): they materialize a sorted copy for observers and tests
        let mut v: Vec<Entry> = self.running.entries().to_vec();
        v.sort_unstable();
        let drain = self.drain;
        v.into_iter()
            .map(move |e| (e.slot, (e.key.key - drain).max(0.0)))
    }

    /// Visits the running prefix in SRPT order without allocating: the
    /// sort happens in the retained `ordered` scratch, so once that buffer
    /// has grown to the high-water mark this is heap-free — the variant
    /// the engine's Scan interval uses on its steady-state path.
    ///
    /// The visit order is identical to [`SrptSet::iter_running`]: both
    /// `sort_unstable` the same entries by the same total `OrdKey` order,
    /// and keys are unique (ties broken by release then id), so unstable
    /// sorting cannot permute observably. Order matters: the engine
    /// accumulates per-job fractional flow in this sequence and float
    /// addition is not associative.
    pub fn for_each_running_ordered(&mut self, mut f: impl FnMut(Slot, f64)) {
        self.ordered.clear();
        self.ordered.extend_from_slice(self.running.entries());
        self.ordered.sort_unstable();
        let drain = self.drain;
        for e in &self.ordered {
            f(e.slot, (e.key.key - drain).max(0.0));
        }
    }

    /// Visits the queue in SRPT order without allocating once the
    /// retained `ordered` scratch has reached its high-water mark: the
    /// queue twin of [`SrptSet::for_each_running_ordered`], visiting in
    /// the order of [`SrptSet::iter_queued`] (same entries, same total
    /// order, unique keys).
    pub fn for_each_queued_ordered(&mut self, mut f: impl FnMut(Slot, f64)) {
        self.ordered.clear();
        self.ordered.extend(self.queued.iter().map(|r| r.0));
        self.ordered.sort_unstable();
        for e in &self.ordered {
            f(e.slot, e.key.key);
        }
    }

    /// Queued jobs in SRPT order as `(slot, remaining)` (sorted copy, see
    /// [`SrptSet::iter_running`]).
    pub fn iter_queued(&self) -> impl Iterator<Item = (Slot, f64)> + '_ {
        // lint:allow(L007) ordered views are off the steady-state path (module docs): they materialize a sorted copy for observers and tests
        let mut v: Vec<Entry> = Vec::with_capacity(self.queued.len());
        // lint:allow(L007) ordered views are off the steady-state path (module docs): they materialize a sorted copy for observers and tests
        v.extend(self.queued.iter().map(|r| r.0));
        v.sort_unstable();
        v.into_iter().map(|e| (e.slot, e.key.key))
    }

    /// The whole alive set in SRPT order as `(idx, remaining)`.
    pub fn iter_alive(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.iter_running()
            .chain(self.iter_queued())
            .map(|(s, rem)| (s.idx, rem))
    }

    fn flags_for(&mut self, curve: &Curve) -> (bool, bool) {
        let reference = self.reference.get_or_insert_with(|| curve.clone());
        let hetero = reference != curve;
        let nonunit = (curve.rate(1.0) - 1.0).abs() > 1e-12;
        (hetero, nonunit)
    }

    fn add_running(&mut self, key: OrdKey, slot: Slot) {
        self.s1 += 1.0 / slot.size;
        self.sk += key.key / slot.size;
        self.key_sum += key.key;
        self.hetero_running += usize::from(slot.hetero);
        self.nonunit_running += usize::from(slot.nonunit);
        self.running.push(Entry { key, slot });
    }

    fn settle_running(&mut self) {
        if self.running.is_empty() {
            // Kill accumulator drift and reset the offset for free whenever
            // the prefix empties.
            self.s1 = 0.0;
            self.sk = 0.0;
            self.key_sum = 0.0;
            self.drain = 0.0;
            debug_assert_eq!(self.hetero_running, 0);
            debug_assert_eq!(self.nonunit_running, 0);
        }
    }

    fn forget_running(&mut self, key: &OrdKey, slot: &Slot) {
        self.s1 -= 1.0 / slot.size;
        self.sk -= key.key / slot.size;
        self.key_sum -= key.key;
        self.hetero_running -= usize::from(slot.hetero);
        self.nonunit_running -= usize::from(slot.nonunit);
    }

    fn add_queued(&mut self, key: OrdKey, slot: Slot) {
        self.q_frac += key.key / slot.size;
        self.q_rem_sum += key.key;
        self.queued.push(Reverse(Entry { key, slot }));
    }

    fn forget_queued(&mut self, key: &OrdKey, slot: &Slot) {
        self.q_frac -= key.key / slot.size;
        self.q_rem_sum -= key.key;
        if self.queued.is_empty() {
            self.q_frac = 0.0;
            self.q_rem_sum = 0.0;
        }
    }

    /// Inserts a newly arrived job and returns where it landed. The caller
    /// follows up with [`SrptSet::rebalance`] once the batch is in.
    pub fn insert(&mut self, idx: usize, spec: &JobSpec, remaining: Work) -> Placement {
        let (hetero, nonunit) = self.flags_for(&spec.curve);
        let slot = Slot {
            idx,
            size: spec.size,
            hetero,
            nonunit,
        };
        let run_key = OrdKey {
            key: remaining + self.drain,
            release: spec.release,
            id: spec.id,
        };
        let belongs_in_prefix = self.running.peek_max().is_some_and(|max| run_key < max.key);
        if belongs_in_prefix {
            self.add_running(run_key, slot);
            Placement::Running { key: run_key.key }
        } else {
            let key = OrdKey {
                key: remaining,
                release: spec.release,
                id: spec.id,
            };
            self.add_queued(key, slot);
            Placement::Queued { remaining }
        }
    }

    /// Restores `running.len() == min(target, len())` by demoting the
    /// largest running jobs or promoting the smallest queued jobs. Reports
    /// every move so the engine can update its per-job records.
    pub fn rebalance(&mut self, target: usize, mut moved: impl FnMut(usize, Placement)) {
        let want = target.min(self.len());
        while self.running.len() > want {
            // lint:allow(L007) pop is guarded by the partition-size accounting just above; the heap is counted non-empty
            let Entry { key, slot } = self.running.pop_max().expect("nonempty");
            let remaining = (key.key - self.drain).max(0.0);
            self.forget_running(&key, &slot);
            self.settle_running();
            let qkey = OrdKey {
                key: remaining,
                release: key.release,
                id: key.id,
            };
            self.add_queued(qkey, slot);
            moved(slot.idx, Placement::Queued { remaining });
        }
        while self.running.len() < want {
            // lint:allow(L007) pop is guarded by the partition-size accounting just above; the heap is counted non-empty
            let Reverse(Entry { key, slot }) = self.queued.pop().expect("nonempty");
            self.forget_queued(&key, &slot);
            let rkey = OrdKey {
                key: key.key + self.drain,
                release: key.release,
                id: key.id,
            };
            self.add_running(rkey, slot);
            moved(slot.idx, Placement::Running { key: rkey.key });
        }
    }

    /// Applies a uniform drain of `amount = r·dt` to the running prefix in
    /// `O(1)`. Only valid when every running job drains at the same rate.
    pub fn advance_uniform(&mut self, amount: f64) {
        if !self.running.is_empty() {
            self.drain += amount;
        }
    }

    /// Pops the front running job (the imminent completion). Returns the
    /// slot and its materialized remaining work.
    pub fn pop_front_running(&mut self) -> Option<(Slot, f64)> {
        let Entry { key, slot } = self.running.pop_min()?;
        let remaining = (key.key - self.drain).max(0.0);
        self.forget_running(&key, &slot);
        self.settle_running();
        Some((slot, remaining))
    }

    /// Rebuilds the running partition through `update` (applied in SRPT
    /// order — the old B-tree's iteration order, so the floating-point sum
    /// accumulation and the `moved` callback sequence are unchanged),
    /// folding the drain offset to zero. Shared by [`SrptSet::drain_scan`]
    /// and [`SrptSet::maybe_rebase`].
    fn rebuild_running(
        &mut self,
        mut update: impl FnMut(usize, f64) -> f64,
        mut moved: impl FnMut(usize, Placement),
    ) {
        self.scratch.clear();
        self.running.drain_into(&mut self.scratch);
        let mut old = std::mem::take(&mut self.scratch);
        old.sort_unstable();
        self.s1 = 0.0;
        self.sk = 0.0;
        self.key_sum = 0.0;
        self.hetero_running = 0;
        self.nonunit_running = 0;
        let drain = std::mem::replace(&mut self.drain, 0.0);
        for Entry { key, slot } in old.drain(..) {
            let rem = update(slot.idx, (key.key - drain).max(0.0));
            let new_key = OrdKey {
                key: rem,
                release: key.release,
                id: key.id,
            };
            self.add_running(new_key, slot);
            moved(slot.idx, Placement::Running { key: rem });
        }
        self.scratch = old;
    }

    /// Drains each running job at its own rate for `dt` — the
    /// heterogeneous-prefix slow path. Rebuilds the running heap (the order
    /// may genuinely change), resets the offset to zero, and reports every
    /// job's new placement. `O(k log k)` in the prefix size.
    pub fn drain_scan(
        &mut self,
        dt: f64,
        rate_of: impl Fn(usize) -> f64,
        moved: impl FnMut(usize, Placement),
    ) {
        self.rebuild_running(|idx, rem| (rem - rate_of(idx) * dt).max(0.0), moved);
    }

    /// Folds the drain offset into the running keys when it has grown past
    /// [`REBASE_LIMIT`], keeping `ulp(key)` well under completion
    /// tolerances. Reports refreshed keys. No-op most of the time.
    pub fn maybe_rebase(&mut self, moved: impl FnMut(usize, Placement)) {
        if self.drain <= REBASE_LIMIT {
            return;
        }
        self.rebuild_running(|_, rem| rem, moved);
    }

    /// Captures the full set state for a snapshot. Both partitions are
    /// emitted in SRPT order, so two engines in the same logical state
    /// render byte-identical documents even when their heap arrays have
    /// different internal layouts (layout depends on push history, which
    /// is not observable — every read path sorts or pops by total order).
    pub(crate) fn snapshot_state(&self) -> SetSnap {
        fn conv(e: &Entry) -> SetEntrySnap {
            SetEntrySnap {
                key: e.key.key,
                release: e.key.release,
                id: e.key.id,
                idx: e.slot.idx,
                size: e.slot.size,
                hetero: e.slot.hetero,
                nonunit: e.slot.nonunit,
            }
        }
        let mut running: Vec<Entry> = self.running.entries().to_vec();
        running.sort_unstable();
        let mut queued: Vec<Entry> = self.queued.iter().map(|r| r.0).collect();
        queued.sort_unstable();
        SetSnap {
            running: running.iter().map(conv).collect(),
            queued: queued.iter().map(conv).collect(),
            drain: self.drain,
            s1: self.s1,
            sk: self.sk,
            key_sum: self.key_sum,
            q_frac: self.q_frac,
            q_rem_sum: self.q_rem_sum,
            reference: self.reference.clone(),
        }
    }

    /// Restores the state captured by [`SrptSet::snapshot_state`], retaining
    /// buffer capacity. Entries are re-pushed with their stored keys and
    /// flags; the uniformity counters are recounted from the per-entry flags
    /// and the running/queued sums are installed bit-exact.
    pub(crate) fn restore_state(&mut self, snap: &SetSnap) {
        self.reset();
        self.reference = snap.reference.clone();
        for e in &snap.running {
            self.hetero_running += usize::from(e.hetero);
            self.nonunit_running += usize::from(e.nonunit);
            self.running.push(Entry {
                key: OrdKey {
                    key: e.key,
                    release: e.release,
                    id: e.id,
                },
                slot: Slot {
                    idx: e.idx,
                    size: e.size,
                    hetero: e.hetero,
                    nonunit: e.nonunit,
                },
            });
        }
        for e in &snap.queued {
            self.queued.push(Reverse(Entry {
                key: OrdKey {
                    key: e.key,
                    release: e.release,
                    id: e.id,
                },
                slot: Slot {
                    idx: e.idx,
                    size: e.size,
                    hetero: e.hetero,
                    nonunit: e.nonunit,
                },
            }));
        }
        self.drain = snap.drain;
        self.s1 = snap.s1;
        self.sk = snap.sk;
        self.key_sum = snap.key_sum;
        self.q_frac = snap.q_frac;
        self.q_rem_sum = snap.q_rem_sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, release: Time, size: Work) -> JobSpec {
        JobSpec::new(JobId(id), release, size, Curve::Sequential)
    }

    fn remaining_in_order(set: &SrptSet) -> Vec<(usize, f64)> {
        set.iter_alive().collect()
    }

    #[test]
    fn insert_and_rebalance_partition_by_srpt_order() {
        let mut set = SrptSet::default();
        for (i, size) in [5.0, 1.0, 3.0].iter().enumerate() {
            set.insert(i, &spec(i as u64, 0.0, *size), *size);
        }
        set.rebalance(2, |_, _| {});
        assert_eq!(set.running_len(), 2);
        let order: Vec<usize> = set.iter_alive().map(|(idx, _)| idx).collect();
        assert_eq!(order, vec![1, 2, 0]); // remaining 1, 3, 5
        let running: Vec<usize> = set.iter_running().map(|(s, _)| s.idx).collect();
        assert_eq!(running, vec![1, 2]);
    }

    #[test]
    fn for_each_running_ordered_matches_iter_running_bitwise() {
        let mut set = SrptSet::default();
        let sizes = [5.0, 1.0, 3.0, 2.75, 4.5, 0.25, 7.0, 6.125];
        for (i, size) in sizes.iter().enumerate() {
            set.insert(i, &spec(i as u64, 0.1 * i as f64, *size), *size);
        }
        set.rebalance(5, |_, _| {});
        set.advance_uniform(0.4375); // non-trivial drain offset
        let via_iter: Vec<(usize, u64)> = set
            .iter_running()
            .map(|(s, rem)| (s.idx, rem.to_bits()))
            .collect();
        let mut via_visit = Vec::new();
        set.for_each_running_ordered(|s, rem| via_visit.push((s.idx, rem.to_bits())));
        assert_eq!(via_iter, via_visit);
        assert_eq!(via_visit.len(), 5);
    }

    #[test]
    fn for_each_queued_ordered_matches_iter_queued_bitwise() {
        let mut set = SrptSet::default();
        let sizes = [5.0, 1.0, 3.0, 2.75, 4.5, 0.25, 7.0, 6.125, 3.0];
        for (i, size) in sizes.iter().enumerate() {
            set.insert(i, &spec(i as u64, 0.1 * i as f64, *size), *size);
        }
        set.rebalance(3, |_, _| {});
        let via_iter: Vec<(usize, u64)> = set
            .iter_queued()
            .map(|(s, rem)| (s.idx, rem.to_bits()))
            .collect();
        let mut via_visit = Vec::new();
        set.for_each_queued_ordered(|s, rem| via_visit.push((s.idx, rem.to_bits())));
        assert_eq!(via_iter, via_visit);
        assert_eq!(via_visit.len(), 6);
    }

    #[test]
    fn uniform_advance_drains_only_the_prefix() {
        let mut set = SrptSet::default();
        set.insert(0, &spec(0, 0.0, 2.0), 2.0);
        set.insert(1, &spec(1, 0.0, 4.0), 4.0);
        set.rebalance(1, |_, _| {});
        set.advance_uniform(1.5);
        let rems = remaining_in_order(&set);
        assert!((rems[0].1 - 0.5).abs() < 1e-12); // running drained
        assert!((rems[1].1 - 4.0).abs() < 1e-12); // queued untouched
        assert!((set.total_remaining() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn pop_front_returns_smallest_and_resets_offset_when_empty() {
        let mut set = SrptSet::default();
        set.insert(0, &spec(0, 0.0, 2.0), 2.0);
        set.rebalance(1, |_, _| {});
        set.advance_uniform(2.0);
        let (slot, rem) = set.pop_front_running().unwrap();
        assert_eq!(slot.idx, 0);
        assert!(rem.abs() < 1e-12);
        assert_eq!(set.len(), 0);
        assert_eq!(set.drain_offset(), 0.0);
        assert_eq!(set.running_inv_size_sum(), 0.0);
    }

    #[test]
    fn rebalance_promotes_in_srpt_order_after_completion() {
        let mut set = SrptSet::default();
        for (i, size) in [1.0, 2.0, 3.0].iter().enumerate() {
            set.insert(i, &spec(i as u64, 0.0, *size), *size);
        }
        set.rebalance(2, |_, _| {});
        set.advance_uniform(1.0);
        set.pop_front_running().unwrap(); // job 0 done
        let mut promoted = vec![];
        set.rebalance(2, |idx, p| promoted.push((idx, p)));
        assert_eq!(promoted.len(), 1);
        assert_eq!(promoted[0].0, 2); // remaining 3.0 job joins the prefix
                                      // Job 1 drained 1.0 → remaining 1.0; job 2 still 3.0.
        let rems = remaining_in_order(&set);
        assert!((rems[0].1 - 1.0).abs() < 1e-12);
        assert!((rems[1].1 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ties_break_by_release_then_id() {
        let mut set = SrptSet::default();
        set.insert(0, &spec(9, 1.0, 2.0), 2.0);
        set.insert(1, &spec(3, 0.0, 2.0), 2.0);
        set.insert(2, &spec(5, 0.0, 2.0), 2.0);
        set.rebalance(3, |_, _| {});
        let order: Vec<usize> = set.iter_alive().map(|(idx, _)| idx).collect();
        assert_eq!(order, vec![1, 2, 0]); // (0.0, id 3), (0.0, id 5), (1.0, id 9)
    }

    #[test]
    fn uniformity_counters_track_membership() {
        let mut set = SrptSet::default();
        set.insert(0, &spec(0, 0.0, 2.0), 2.0); // reference: Sequential
        let mut par = spec(1, 0.0, 3.0);
        par.curve = Curve::FullyParallel;
        set.insert(1, &par, 3.0);
        set.rebalance(2, |_, _| {});
        assert!(!set.uniform_curves());
        assert!(set.unit_rate_at_one()); // both Γ(1) = 1
        set.rebalance(1, |_, _| {}); // demote the parallel job (larger)
        assert!(set.uniform_curves());
    }

    #[test]
    fn drain_scan_reorders_by_new_remaining() {
        let mut set = SrptSet::default();
        // Sequential job drains at rate(2) = 1; parallel at rate(2) = 2.
        set.insert(0, &spec(0, 0.0, 3.0), 3.0);
        let mut par = spec(1, 0.0, 3.5);
        par.curve = Curve::FullyParallel;
        set.insert(1, &par, 3.5);
        set.rebalance(2, |_, _| {});
        let rate = |idx: usize| if idx == 0 { 1.0 } else { 2.0 };
        set.drain_scan(1.5, rate, |_, _| {});
        // Remaining: job 0 → 1.5, job 1 → 0.5; order flips.
        let order = remaining_in_order(&set);
        assert_eq!(order[0].0, 1);
        assert!((order[0].1 - 0.5).abs() < 1e-12);
        assert!((order[1].1 - 1.5).abs() < 1e-12);
        assert_eq!(set.drain_offset(), 0.0);
    }

    #[test]
    fn rebase_folds_offset_without_changing_state() {
        let mut set = SrptSet::default();
        set.insert(0, &spec(0, 0.0, 3e6), 3e6);
        set.insert(1, &spec(1, 0.0, 4e6), 4e6);
        set.rebalance(2, |_, _| {});
        set.advance_uniform(2e6);
        let before: Vec<(usize, f64)> = remaining_in_order(&set);
        let total = set.total_remaining();
        let mut updates = 0;
        set.maybe_rebase(|_, _| updates += 1);
        assert_eq!(updates, 2);
        assert_eq!(set.drain_offset(), 0.0);
        let after: Vec<(usize, f64)> = remaining_in_order(&set);
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.0, a.0);
            assert!((b.1 - a.1).abs() < 1e-6 * b.1.max(1.0));
        }
        assert!((set.total_remaining() - total).abs() < 1e-6 * total.max(1.0));
    }

    #[test]
    fn fractional_sums_match_direct_computation() {
        let mut set = SrptSet::default();
        let sizes = [2.0, 5.0, 7.0, 11.0];
        for (i, size) in sizes.iter().enumerate() {
            set.insert(i, &spec(i as u64, 0.0, *size), *size);
        }
        set.rebalance(2, |_, _| {});
        set.advance_uniform(1.0);
        // Running: 2.0→1.0, 5.0→4.0. Queued: 7.0, 11.0.
        let run_frac = set.running_key_frac_sum() - set.drain_offset() * set.running_inv_size_sum();
        let expect_run = 1.0 / 2.0 + 4.0 / 5.0;
        assert!((run_frac - expect_run).abs() < 1e-12);
        let expect_q = 1.0 + 1.0; // 7/7 + 11/11
        assert!((set.queued_frac_sum() - expect_q).abs() < 1e-12);
        assert!((set.total_remaining() - (1.0 + 4.0 + 7.0 + 11.0)).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state_but_keeps_capacity() {
        let mut set = SrptSet::default();
        for i in 0..64usize {
            let size = 1.0 + i as f64;
            set.insert(i, &spec(i as u64, 0.0, size), size);
        }
        set.rebalance(8, |_, _| {});
        set.advance_uniform(0.25);
        set.reset();
        assert_eq!(set.len(), 0);
        assert_eq!(set.running_len(), 0);
        assert_eq!(set.drain_offset(), 0.0);
        assert_eq!(set.total_remaining(), 0.0);
        assert!(set.uniform_curves() && set.unit_rate_at_one());
        // The set is fully reusable after reset.
        set.insert(0, &spec(100, 0.0, 2.0), 2.0);
        set.rebalance(1, |_, _| {});
        assert_eq!(set.front_running().unwrap().0.idx, 0);
    }

    /// Min-max heap fuzz: interleaved push / pop-min / pop-max against a
    /// sorted-Vec model, checking both peeks before every mutation.
    #[test]
    fn min_max_heap_matches_sorted_model_under_churn() {
        let mut heap = MinMaxHeap::default();
        let mut model: Vec<OrdKey> = Vec::new();
        let mut rng: u64 = 0x1234_5678_9abc_def0;
        let mut next = |m: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % m
        };
        let slot = Slot {
            idx: 0,
            size: 1.0,
            hetero: false,
            nonunit: false,
        };
        for step in 0..4000 {
            // Peeks agree with the model.
            model.sort();
            assert_eq!(
                heap.peek_min().map(|e| e.key.id),
                model.first().map(|k| k.id)
            );
            assert_eq!(
                heap.peek_max().map(|e| e.key.id),
                model.last().map(|k| k.id)
            );
            match next(4) {
                0 | 1 => {
                    let key = OrdKey {
                        key: next(50) as f64 * 0.5,
                        release: 0.0,
                        id: JobId(step as u64),
                    };
                    heap.push(Entry { key, slot });
                    model.push(key);
                }
                2 => {
                    let got = heap.pop_min().map(|e| e.key.id);
                    let want = model.first().map(|k| k.id);
                    assert_eq!(got, want, "pop_min at step {step}");
                    if !model.is_empty() {
                        model.remove(0);
                    }
                }
                _ => {
                    let got = heap.pop_max().map(|e| e.key.id);
                    let want = model.last().map(|k| k.id);
                    assert_eq!(got, want, "pop_max at step {step}");
                    model.pop();
                }
            }
            assert_eq!(heap.len(), model.len());
        }
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
        let mut model: Vec<(usize, f64, f64, u64)> = Vec::new();
        let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = |m: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % m
        };
        let mut arena = 0usize;
        for step in 0..200 {
            match next(3) {
                0 => {
                    let size = 1.0 + next(16) as f64;
                    let release = f64::from(step);
                    set.insert(arena, &spec(arena as u64, release, size), size);
                    model.push((arena, size, release, arena as u64));
                    arena += 1;
                }
                1 => {
                    // Drain halfway to the front-running completion.
                    if let Some((_, rem)) = set.front_running() {
                        let amount = rem * 0.5;
                        let k = set.running_len();
                        set.advance_uniform(amount);
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
                        set.advance_uniform(rem);
                        let (slot, left) = set.pop_front_running().unwrap();
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
            set.rebalance(PREFIX, |_, _| {});
            sort_model(&mut model);
            let got: Vec<(usize, f64)> = set.iter_alive().collect();
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
            let expect_total: f64 = model.iter().map(|e| e.1).sum();
            assert!((set.total_remaining() - expect_total).abs() < 1e-9 * expect_total.max(1.0));
        }
    }

    #[test]
    fn equal_remaining_after_offset_bump_ties_by_release_then_id() {
        let mut set = SrptSet::default();
        // Job 0 (release 0) starts at 5 and drains to 2; job 1 (release 7)
        // then arrives with remaining exactly 2. The drained job keeps
        // priority through the earlier release despite identical remaining.
        set.insert(0, &spec(0, 0.0, 5.0), 5.0);
        set.rebalance(1, |_, _| {});
        set.advance_uniform(3.0);
        set.insert(1, &spec(1, 7.0, 2.0), 2.0);
        set.rebalance(2, |_, _| {});
        let order: Vec<(usize, f64)> = set.iter_alive().collect();
        assert_eq!(order[0].0, 0);
        assert_eq!(order[1].0, 1);
        assert!((order[0].1 - 2.0).abs() < 1e-12);
        assert!((order[1].1 - 2.0).abs() < 1e-12);
        // And the completion order honors the same tie-break.
        set.advance_uniform(2.0);
        assert_eq!(set.pop_front_running().unwrap().0.idx, 0);
        set.rebalance(2, |_, _| {});
        set.advance_uniform(2.0);
        assert_eq!(set.pop_front_running().unwrap().0.idx, 1);
    }

    #[test]
    fn insert_at_prefix_boundary_queues_then_promotes_in_order() {
        let mut set = SrptSet::default();
        set.insert(0, &spec(0, 0.0, 2.0), 2.0);
        set.insert(1, &spec(1, 0.0, 6.0), 6.0);
        set.rebalance(2, |_, _| {});
        // Remaining exactly equal to the largest running job: by the SRPT
        // tie-break (later release) it does NOT belong in the prefix.
        let p = set.insert(2, &spec(2, 1.0, 6.0), 6.0);
        assert_eq!(p, Placement::Queued { remaining: 6.0 });
        // Smaller than the front: belongs strictly inside the prefix.
        let p = set.insert(3, &spec(3, 1.0, 1.0), 1.0);
        assert!(matches!(p, Placement::Running { .. }));
        set.rebalance(2, |_, _| {});
        assert_eq!(set.running_len(), 2);
        let order: Vec<usize> = set.iter_alive().map(|(i, _)| i).collect();
        assert_eq!(order, vec![3, 0, 1, 2]);
    }

    #[test]
    fn front_completion_with_tied_pair_pops_one_at_a_time() {
        let mut set = SrptSet::default();
        set.insert(0, &spec(0, 0.0, 3.0), 3.0);
        set.insert(1, &spec(1, 0.0, 3.0), 3.0);
        set.rebalance(2, |_, _| {});
        set.advance_uniform(3.0); // both hit zero simultaneously
        let (first, r1) = set.pop_front_running().unwrap();
        let (second, r2) = set.pop_front_running().unwrap();
        assert_eq!((first.idx, second.idx), (0, 1)); // id tie-break
        assert!(r1.abs() < 1e-12 && r2.abs() < 1e-12);
        assert_eq!(set.len(), 0);
        assert_eq!(set.drain_offset(), 0.0);
        assert!(set.pop_front_running().is_none());
    }

    #[test]
    fn insert_during_drain_lands_in_correct_position() {
        let mut set = SrptSet::default();
        set.insert(0, &spec(0, 0.0, 4.0), 4.0);
        set.insert(1, &spec(1, 0.0, 10.0), 10.0);
        set.rebalance(2, |_, _| {});
        set.advance_uniform(3.0); // remaining: 1.0, 7.0
                                  // New arrival with remaining 2.0 belongs between them.
        let p = set.insert(2, &spec(2, 3.0, 2.0), 2.0);
        assert!(matches!(p, Placement::Running { .. }));
        set.rebalance(2, |_, _| {});
        let order: Vec<usize> = set.iter_alive().map(|(i, _)| i).collect();
        assert_eq!(order, vec![0, 2, 1]);
        assert_eq!(set.running_len(), 2);
    }
}
