//! Jobs, instances, and the paper's size-class arithmetic.

use std::sync::Arc;

use parsched_speedup::Curve;
use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// Simulation time (continuous, seconds of an abstract clock).
pub type Time = f64;
/// Work volume (processor-seconds at rate 1).
pub type Work = f64;

/// Identifier of a job, unique within an [`Instance`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// A single task: release time, size (total work), and speed-up curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique job identifier.
    pub id: JobId,
    /// Release (arrival) time `r_j ≥ 0`.
    pub release: Time,
    /// Total work `p_j > 0`. The paper assumes `p_j ∈ [1, P]`.
    pub size: Work,
    /// Speed-up curve `Γ_j`.
    pub curve: Curve,
    /// Importance weight `w_j > 0` for the *weighted* flow objective
    /// `Σ w_j·F_j` — an extension beyond the paper (which studies the
    /// unweighted case, `w_j = 1`).
    #[serde(default = "default_weight")]
    pub weight: f64,
}

// Referenced only from the `#[serde(default)]` attribute above; the offline
// serde shim expands that attribute to nothing, so rustc can't see the use.
#[allow(dead_code)]
fn default_weight() -> f64 {
    1.0
}

impl JobSpec {
    /// Creates an unweighted job spec (`w_j = 1`, the paper's setting).
    pub fn new(id: JobId, release: Time, size: Work, curve: Curve) -> Self {
        Self {
            id,
            release,
            size,
            curve,
            weight: 1.0,
        }
    }

    /// Sets the importance weight (builder style).
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }
}

/// A static workload: a validated collection of [`JobSpec`]s sorted by
/// `(release, id)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Shared, so replaying the instance ([`crate::StaticSource`]) and
    /// cloning it never copy the jobs.
    jobs: Arc<Vec<JobSpec>>,
}

impl Instance {
    /// Builds an instance, validating every job and sorting by release time.
    ///
    /// Rejects: non-finite or negative releases, non-finite or non-positive
    /// sizes, duplicate ids, and invalid curves.
    pub fn new(mut jobs: Vec<JobSpec>) -> Result<Self, SimError> {
        let mut seen = std::collections::BTreeSet::new();
        for j in &jobs {
            if !j.release.is_finite() || j.release < 0.0 {
                return Err(SimError::BadInstance {
                    what: format!("job {} has invalid release {}", j.id, j.release),
                });
            }
            if !j.size.is_finite() || j.size <= 0.0 {
                return Err(SimError::BadInstance {
                    what: format!("job {} has invalid size {}", j.id, j.size),
                });
            }
            if j.curve.validate().is_err() {
                return Err(SimError::BadInstance {
                    what: format!("job {} has invalid curve {:?}", j.id, j.curve),
                });
            }
            if !j.weight.is_finite() || j.weight <= 0.0 {
                return Err(SimError::BadInstance {
                    what: format!("job {} has invalid weight {}", j.id, j.weight),
                });
            }
            if !seen.insert(j.id) {
                return Err(SimError::BadInstance {
                    what: format!("duplicate job id {}", j.id),
                });
            }
        }
        jobs.sort_by(|a, b| {
            a.release
                .partial_cmp(&b.release)
                .expect("releases are finite")
                .then(a.id.cmp(&b.id))
        });
        Ok(Self {
            jobs: Arc::new(jobs),
        })
    }

    /// Builds an instance from specs the engine already admitted.
    ///
    /// Admission enforces exactly the invariants [`Instance::new`] checks
    /// (finite release/size/weight, valid curve, unique ids), so this skips
    /// the per-job validation and the duplicate-id hash pass; the arena is
    /// in admission order, which for replayed instances is already
    /// `(release, id)` — the sort below is a no-op check in that case.
    pub(crate) fn from_admitted(mut jobs: Vec<JobSpec>) -> Self {
        let sorted = jobs
            .windows(2)
            // lint:allow(L007) windows(2) yields exactly two elements per item
            .all(|w| (w[0].release, w[0].id) <= (w[1].release, w[1].id));
        if !sorted {
            jobs.sort_by(|a, b| {
                a.release
                    .partial_cmp(&b.release)
                    // lint:allow(L007) comparator on admission-validated finite releases; cannot fail at runtime
                    .expect("releases are finite")
                    .then(a.id.cmp(&b.id))
            });
        }
        Self {
            // lint:allow(L007) run finalization, outside the event loop: the spec vector transfers to the outcome, and its shared handle is one small allocation per finished run
            jobs: Arc::new(jobs),
        }
    }

    /// Convenience constructor: jobs `(release, size)` all sharing one curve,
    /// with ids assigned in order.
    pub fn from_sizes(jobs: &[(Time, Work)], curve: Curve) -> Result<Self, SimError> {
        Self::new(
            jobs.iter()
                .enumerate()
                .map(|(i, &(r, p))| JobSpec::new(JobId(i as u64), r, p, curve.clone()))
                .collect(),
        )
    }

    /// The jobs, sorted by `(release, id)`.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// The job storage itself, shared with the caller.
    pub(crate) fn shared_jobs(&self) -> Arc<Vec<JobSpec>> {
        Arc::clone(&self.jobs)
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the instance has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Smallest job size (`∞` if empty).
    pub fn p_min(&self) -> Work {
        self.jobs
            .iter()
            .map(|j| j.size)
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest job size (`0` if empty).
    pub fn p_max(&self) -> Work {
        self.jobs.iter().map(|j| j.size).fold(0.0, f64::max)
    }

    /// The paper's parameter `P`: the max/min size ratio (`1` if empty).
    ///
    /// The paper normalizes sizes to `[1, P]`; instances here may use any
    /// positive sizes, and `size_ratio` is the scale-free `P`.
    pub fn size_ratio(&self) -> f64 {
        if self.jobs.is_empty() {
            1.0
        } else {
            self.p_max() / self.p_min()
        }
    }

    /// Total work volume of the instance.
    pub fn total_work(&self) -> Work {
        crate::kahan::NeumaierSum::total(self.jobs.iter().map(|j| j.size))
    }

    /// Latest release time (`0` if empty).
    pub fn last_release(&self) -> Time {
        self.jobs.last().map_or(0.0, |j| j.release)
    }

    /// Merges another instance into this one, reassigning the other's ids to
    /// stay unique. Returns the sorted union.
    pub fn merged_with(&self, other: &Instance) -> Result<Instance, SimError> {
        let next_id = self.jobs.iter().map(|j| j.id.0 + 1).max().unwrap_or(0);
        let mut all = self.jobs.to_vec();
        all.extend(other.jobs.iter().enumerate().map(|(i, j)| JobSpec {
            id: JobId(next_id + i as u64),
            ..j.clone()
        }));
        Instance::new(all)
    }
}

/// The paper's size class of a remaining length: class `k` holds lengths in
/// `[2^k, 2^{k+1})` for `k ≥ 0`, and the special class `-1` holds lengths in
/// `(0, 1)` (§2.2).
pub fn class_index(remaining: Work) -> i32 {
    debug_assert!(remaining > 0.0, "class of non-positive remaining work");
    if remaining < 1.0 {
        -1
    } else {
        remaining.log2().floor() as i32
    }
}

/// `k_max + 1 = ⌊log₂ P⌋ + 1`: the number of non-negative job classes for
/// sizes in `[1, P]` (§2.2 defines `k_max = ⌊log P⌋`).
pub fn num_classes(p: f64) -> usize {
    debug_assert!(p >= 1.0);
    p.log2().floor() as usize + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, r: f64, p: f64) -> JobSpec {
        JobSpec::new(JobId(id), r, p, Curve::power(0.5))
    }

    #[test]
    fn instance_sorts_by_release_then_id() {
        let inst = Instance::new(vec![
            spec(2, 5.0, 1.0),
            spec(1, 0.0, 2.0),
            spec(0, 5.0, 3.0),
        ])
        .unwrap();
        let ids: Vec<u64> = inst.jobs().iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![1, 0, 2]);
    }

    #[test]
    fn instance_rejects_bad_jobs() {
        assert!(Instance::new(vec![spec(0, -1.0, 1.0)]).is_err());
        assert!(Instance::new(vec![spec(0, 0.0, 0.0)]).is_err());
        assert!(Instance::new(vec![spec(0, 0.0, -2.0)]).is_err());
        assert!(Instance::new(vec![spec(0, f64::NAN, 1.0)]).is_err());
        assert!(Instance::new(vec![spec(0, 0.0, f64::INFINITY)]).is_err());
        assert!(Instance::new(vec![spec(0, 0.0, 1.0), spec(0, 1.0, 1.0)]).is_err());
        // Invalid curve caught too.
        let bad = JobSpec::new(JobId(0), 0.0, 1.0, Curve::Power { alpha: 9.0 });
        assert!(Instance::new(vec![bad]).is_err());
    }

    #[test]
    fn summary_statistics() {
        let inst = Instance::new(vec![
            spec(0, 0.0, 1.0),
            spec(1, 2.0, 8.0),
            spec(2, 1.0, 4.0),
        ])
        .unwrap();
        assert_eq!(inst.len(), 3);
        assert_eq!(inst.p_min(), 1.0);
        assert_eq!(inst.p_max(), 8.0);
        assert_eq!(inst.size_ratio(), 8.0);
        assert_eq!(inst.total_work(), 13.0);
        assert_eq!(inst.last_release(), 2.0);
    }

    #[test]
    fn empty_instance_statistics_are_neutral() {
        let inst = Instance::new(vec![]).unwrap();
        assert!(inst.is_empty());
        assert_eq!(inst.size_ratio(), 1.0);
        assert_eq!(inst.total_work(), 0.0);
        assert_eq!(inst.last_release(), 0.0);
    }

    #[test]
    fn from_sizes_assigns_sequential_ids() {
        let inst = Instance::from_sizes(&[(0.0, 2.0), (1.0, 3.0)], Curve::Sequential).unwrap();
        assert_eq!(inst.jobs()[0].id, JobId(0));
        assert_eq!(inst.jobs()[1].id, JobId(1));
        assert_eq!(inst.jobs()[1].curve, Curve::Sequential);
    }

    #[test]
    fn merged_with_keeps_ids_unique() {
        let a = Instance::from_sizes(&[(0.0, 1.0), (1.0, 2.0)], Curve::Sequential).unwrap();
        let b = Instance::from_sizes(&[(0.5, 3.0)], Curve::FullyParallel).unwrap();
        let merged = a.merged_with(&b).unwrap();
        assert_eq!(merged.len(), 3);
        let mut ids: Vec<u64> = merged.jobs().iter().map(|j| j.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn class_index_matches_paper_definition() {
        assert_eq!(class_index(0.5), -1);
        assert_eq!(class_index(0.999), -1);
        assert_eq!(class_index(1.0), 0);
        assert_eq!(class_index(1.999), 0);
        assert_eq!(class_index(2.0), 1);
        assert_eq!(class_index(3.999), 1);
        assert_eq!(class_index(4.0), 2);
        assert_eq!(class_index(1024.0), 10);
    }

    #[test]
    fn num_classes_matches_kmax() {
        assert_eq!(num_classes(1.0), 1); // k_max = 0
        assert_eq!(num_classes(2.0), 2); // k_max = 1
        assert_eq!(num_classes(3.0), 2);
        assert_eq!(num_classes(1024.0), 11);
    }
}
