//! Jobs drained at one common rate under one offset: the device behind
//! all three of the engine's `O(log n)` alive structures.
//!
//! Jobs served at one common rate `r` drain uniformly, so their order by
//! remaining work cannot change between events (the order-invariance
//! observation behind Intermediate-SRPT's incremental path), and one
//! cumulative drain offset `D` stands for all of them: each member is
//! keyed by `remaining + D`, its remaining work is `(key − D).max(0)`, and
//! an interval of length `dt` drains every member at once by `D += r·dt`.
//! Two sums over the members, `Σ1/p` and `Σkey/p`, give their fractional
//! remaining work `Σkey/p − D·Σ1/p` and the interval's fractional flow in
//! closed form:
//!
//! ```text
//! ∫ Σ p_j(τ)/p_j dτ = (Σkey/p − D·Σ1/p)·dt − (r·dt²/2)·Σ1/p
//! ```
//!
//! [`Drain`] holds `D` and the two sums. When the last member leaves, all
//! three are zeroed, which drops accumulated float residue and resets the
//! offset for free. The SRPT set keeps one for its running prefix, a
//! min-max heap ([`crate::srpt_set`]). [`DrainedGroup`] is a 2-ary
//! [`MinHeap`] of members under one [`Drain`], whose minimum is the
//! group's next completion: each level of the level stack
//! ([`crate::level_stack`], plus its curve tally) and each curve group of
//! the arrival suffix ([`crate::arrival_suffix`], plus its rate) is one.
//!
//! A group's heap layout depends only on its sequence of operations and on
//! keys and `(release, id)` tie-breaks, never on arena slots, and its sums
//! accumulate in that sequence. Snapshots therefore capture the heap array
//! verbatim with the offset and sums bit-exact ([`DrainedSnap`]), and
//! restore pushes the array back in its captured order, which rebuilds the
//! same array.

use crate::job::{JobSpec, Work};
use crate::snapshot::{in_range, SlotCheck};
use crate::srpt_set::{Entry, HeapEntrySnap, HeapTrack, MinHeap, Slot};

/// The drain offset `D` of jobs served at one common rate, with `Σ1/p`
/// and `Σkey/p` over them (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Drain {
    /// Cumulative drain applied to the members.
    pub(crate) offset: f64,
    /// `Σ 1/p_j` over members.
    pub(crate) s1: f64,
    /// `Σ key_j/p_j` over members (offset space).
    pub(crate) sk: f64,
}

impl Drain {
    /// The offset-space key of a member with `remaining` work.
    #[inline]
    pub(crate) fn key(&self, remaining: Work) -> f64 {
        remaining + self.offset
    }

    /// The remaining work of the member keyed `key`.
    #[inline]
    pub(crate) fn remaining(&self, key: f64) -> Work {
        (key - self.offset).max(0.0)
    }

    /// `Σ remaining_j/p_j` over members.
    #[inline]
    pub(crate) fn frac(&self) -> f64 {
        self.sk - self.offset * self.s1
    }

    /// Counts member `e` in the sums.
    #[inline]
    pub(crate) fn add(&mut self, e: &Entry) {
        self.s1 += 1.0 / e.size;
        self.sk += e.key / e.size;
    }

    /// Takes member `e` out of the sums. `emptied` says it was the last
    /// member, which zeroes the offset and both sums.
    #[inline]
    pub(crate) fn forget(&mut self, e: &Entry, emptied: bool) {
        self.s1 -= 1.0 / e.size;
        self.sk -= e.key / e.size;
        if emptied {
            *self = Self::default();
        }
    }

    /// The members' fractional flow over an interval of length `dt` at the
    /// common `rate`, in closed form, after which the members have drained
    /// by `rate·dt`. Without `members` the offset stays put (at zero).
    #[inline]
    pub(crate) fn integrate(&mut self, rate: f64, dt: f64, members: bool) -> f64 {
        let flow = (self.frac() * dt - rate * dt * dt / 2.0 * self.s1).max(0.0);
        if members {
            self.offset += rate * dt;
        }
        flow
    }

    /// Checks a captured drain of `part` against the domain the run keeps
    /// it in: the offset finite and non-negative, the sums finite.
    pub(crate) fn check(&self, part: &str) -> Result<(), String> {
        in_range(part, "drain", self.offset, true)?;
        in_range(part, "s1", self.s1, false)?;
        in_range(part, "sk", self.sk, false)
    }
}

/// A [`MinHeap`] of members keyed `remaining + D` under one [`Drain`]
/// (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct DrainedGroup {
    heap: MinHeap,
    drain: Drain,
}

/// A [`DrainedGroup`] as captured: the heap array verbatim, the offset and
/// the sums bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DrainedSnap {
    pub(crate) entries: Vec<HeapEntrySnap>,
    pub(crate) drain: Drain,
}

impl DrainedSnap {
    /// Checks a captured group of `part` before restore rebuilds it: its
    /// drain ([`Drain::check`]) and each entry ([`SlotCheck::entry`]).
    pub(crate) fn check(&self, part: &str, slots: &mut SlotCheck<'_>) -> Result<(), String> {
        self.drain.check(part)?;
        for e in &self.entries {
            slots.entry(part, e)?;
        }
        Ok(())
    }
}

impl DrainedGroup {
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The offset and sums.
    pub(crate) fn drain(&self) -> &Drain {
        &self.drain
    }

    /// Unordered view of the members.
    pub(crate) fn entries(&self) -> &[Entry] {
        self.heap.entries()
    }

    /// The member with the least remaining work: `(slot, remaining)`.
    pub(crate) fn front(&self) -> Option<(Slot, Work)> {
        self.heap
            .peek()
            .map(|e| (e.slot(), self.drain.remaining(e.key)))
    }

    /// Adds member `e`, keyed in this group's offset space, reporting its
    /// heap moves to `track`.
    pub(crate) fn add(&mut self, e: Entry, specs: &[JobSpec], track: &mut impl HeapTrack) {
        self.drain.add(&e);
        self.heap.push_tracked(e, specs, track);
    }

    /// Removes the member at heap position `at` (the front is 0),
    /// reporting heap moves to `track`: its entry and remaining work.
    pub(crate) fn remove(
        &mut self,
        at: usize,
        specs: &[JobSpec],
        track: &mut impl HeapTrack,
    ) -> Option<(Entry, Work)> {
        let e = self.heap.remove_tracked(at, specs, track)?;
        let remaining = self.drain.remaining(e.key);
        self.drain.forget(&e, self.heap.is_empty());
        Some((e, remaining))
    }

    /// The members' fractional flow over an interval of length `dt` at
    /// `rate`, after which they have drained by `rate·dt`.
    pub(crate) fn integrate(&mut self, rate: f64, dt: f64) -> f64 {
        self.drain.integrate(rate, dt, !self.heap.is_empty())
    }

    /// Folds the offset into the members' keys (remaining work unchanged
    /// up to rounding), restores the heap order reporting moves to
    /// `track`, and re-sums the members in array order.
    pub(crate) fn rebase(&mut self, specs: &[JobSpec], track: &mut impl HeapTrack) {
        let drain = self.drain;
        self.heap
            .rekey_tracked(|key| drain.remaining(key), specs, track);
        self.drain = Drain::default();
        for e in self.heap.entries() {
            self.drain.add(e);
        }
    }

    /// Empties the group, keeping its buffer.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.drain = Drain::default();
    }

    /// Captures the group, each entry's `(release, id)` read from its
    /// arena spec.
    pub(crate) fn snapshot(&self, specs: &[JobSpec]) -> DrainedSnap {
        let entries = self
            .heap
            .entries()
            .iter()
            .map(|e| {
                let spec = &specs[e.idx as usize];
                HeapEntrySnap {
                    key: e.key,
                    release: spec.release,
                    id: spec.id,
                    idx: e.idx as usize,
                    size: e.size,
                }
            })
            .collect();
        DrainedSnap {
            entries,
            drain: self.drain,
        }
    }

    /// Replaces the group with the captured one: the entries pushed back
    /// in their captured order, reporting moves to `track`, and the offset
    /// and sums installed verbatim. The caller has checked the group
    /// ([`DrainedSnap::check`]).
    pub(crate) fn restore(
        &mut self,
        snap: &DrainedSnap,
        specs: &[JobSpec],
        track: &mut impl HeapTrack,
    ) {
        self.heap.clear();
        for e in &snap.entries {
            self.heap
                .push_tracked(Entry::new(e.key, e.idx, e.size, false, false), specs, track);
        }
        self.drain = snap.drain;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use parsched_speedup::Curve;

    fn specs(sizes: &[Work]) -> Vec<JobSpec> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| JobSpec::new(JobId(i as u64), 0.0, size, Curve::Sequential))
            .collect()
    }

    fn filled(specs: &[JobSpec]) -> DrainedGroup {
        let mut group = DrainedGroup::default();
        for (i, s) in specs.iter().enumerate() {
            let key = group.drain().key(s.size);
            group.add(Entry::new(key, i, s.size, false, false), specs, &mut ());
        }
        group
    }

    /// The closed-form flow of a uniform interval equals the per-job
    /// integral `Σ (rem_j − r·dt/2)·dt/p_j` while no member runs dry, and
    /// the offset then stands for every member's drain.
    #[test]
    fn closed_form_flow_matches_per_job_integral() {
        let specs = specs(&[2.0, 5.0, 7.0]);
        let mut group = filled(&specs);
        let (rate, dt) = (0.75, 2.0);
        let want: f64 = specs
            .iter()
            .map(|s| (s.size - rate * dt / 2.0) * dt / s.size)
            .sum();
        let got = group.integrate(rate, dt);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        assert_eq!(group.drain().offset, rate * dt);
        let rems: Vec<Work> = group
            .entries()
            .iter()
            .map(|e| group.drain().remaining(e.key))
            .collect();
        assert!(rems.iter().all(|&r| r >= 0.5 - 1e-12));
        let frac: f64 = specs.iter().map(|s| (s.size - 1.5) / s.size).sum();
        assert!((group.drain().frac() - frac).abs() < 1e-12);
    }

    /// Members leave front first with their remaining work; the last one
    /// out zeroes the offset and sums, and an empty group's interval
    /// neither flows nor moves the offset.
    #[test]
    fn emptying_zeroes_the_offset_and_sums() {
        let specs = specs(&[3.0, 1.0]);
        let mut group = filled(&specs);
        group.integrate(1.0, 1.0);
        let (e, rem) = group.remove(0, &specs, &mut ()).expect("front");
        assert_eq!((e.idx, rem), (1, 0.0));
        assert_eq!(group.front().map(|(s, r)| (s.idx, r)), Some((0, 2.0)));
        group.remove(0, &specs, &mut ()).expect("last");
        assert_eq!(*group.drain(), Drain::default());
        assert_eq!(group.integrate(1.0, 1.0), 0.0);
        assert_eq!(group.drain().offset, 0.0);
    }

    /// Rebasing folds the offset into the keys without moving anyone's
    /// remaining work, and a snapshot restores to the same array and sums.
    #[test]
    fn rebase_and_snapshot_round_trip_keep_the_group() {
        let specs = specs(&[4e6, 3e6, 5e6, 2.5e6]);
        let mut group = filled(&specs);
        group.integrate(1.0, 2e6);
        let before: Vec<(u32, Work)> = group
            .entries()
            .iter()
            .map(|e| (e.idx, group.drain().remaining(e.key)))
            .collect();
        group.rebase(&specs, &mut ());
        assert_eq!(group.drain().offset, 0.0);
        for (idx, rem) in before {
            let e = group
                .entries()
                .iter()
                .find(|e| e.idx == idx)
                .expect("member");
            assert!((e.key - rem).abs() < 1e-6);
        }
        let snap = group.snapshot(&specs);
        let mut back = DrainedGroup::default();
        back.restore(&snap, &specs, &mut ());
        assert_eq!(back.snapshot(&specs), snap);
    }
}
