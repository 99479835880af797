//! Deterministic parallel parameter sweeps.
//!
//! Every experiment is a grid of independent simulation runs; this module
//! fans them out over a bounded work-stealing [`Pool`] and commits results
//! **in input order**, so sweep output is byte-identical to the serial
//! path regardless of scheduling. (rayon is not in the approved offline
//! crate set; atomics, `std::sync::mpsc` and `std::thread` are all these
//! embarrassingly parallel sweeps need.)
//!
//! # Threads
//!
//! A [`Pool`] of `jobs` workers owns up to `jobs − 1` helper threads,
//! spawned by the first call that needs them and kept until the pool is
//! dropped; the calling thread runs as worker 0. Between calls a helper
//! blocks on its channel, so an idle pool costs no CPU. The fleet maps
//! once per round and the adversary miner once per generation, so the
//! hundreds of calls a session makes wake the same threads instead of
//! spawning and joining a fresh set each time (docs/PERF.md §13).
//!
//! Each call packs its work — the item slots, the steal ranges, `init`,
//! `f` and the per-worker results — into one `Arc` that the caller and
//! the helpers share. That is why [`Pool::map_with`] asks for `'static`
//! items, results and closures: a helper outlives the call's stack frame,
//! and the crate stays `forbid(unsafe_code)`.
//!
//! A panic in `f` or `init` is caught on the worker that raised it and
//! re-raised on the caller once every worker has stopped; the helpers
//! keep serving later calls. A call that finds the helpers busy (a `map`
//! nested inside `f`, or a concurrent call from another thread) runs
//! serially on its own thread, so the pool cannot deadlock on itself.
//!
//! # Ordering guarantee
//!
//! [`Pool::map_with`] applies `f` to each item exactly once and places the
//! result at that item's input index. Which *worker* runs an item (and in
//! what order) is scheduling-dependent, but since items are independent
//! and results are committed by index, the returned `Vec` — and therefore
//! every experiment table built from it — is identical to
//! `items.into_iter().map(...)`. Worker-local state handed out by `init`
//! (for example recycled [`EngineBuffers`]) must not leak into results;
//! the engine's buffer-reuse contract is audited separately
//! (`tests/engine_zero_alloc.rs`).
//!
//! # Work stealing
//!
//! Items are pre-partitioned into one contiguous range per worker, packed
//! into an `AtomicU64` (`lo` in the high half, `hi` in the low half).
//! Owners pop from the front of their range (cache-friendly, mostly input
//! order); a worker whose range runs dry steals single items from the
//! *back* of a victim's range via the same compare-and-swap, so skewed
//! per-item costs cannot idle a core while work remains. Since every index
//! is claimed by exactly one successful CAS, item hand-off needs no
//! locking in principle; the per-item `Mutex<Option<T>>` below is an
//! uncontended formality that keeps the crate `forbid(unsafe_code)`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};
use std::thread::JoinHandle;

use parsched_sim::{
    simulate_streaming_audited, ArrivalSource, AuditLevel, Engine, EngineBuffers, EngineConfig,
    Instance, NullObserver, Policy, RunOutcome, SimError, StaticSource, StreamingOutcome,
};

/// Process-wide worker-count override for [`Pool::current`] (0 = pick
/// automatically from `available_parallelism`). Set once at startup by
/// `parsched sweep --jobs N`; library callers normally leave it alone.
static SWEEP_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count used by [`Pool::current`] (and therefore by
/// [`parallel_map`] and every experiment sweep). `0` restores automatic
/// sizing; `1` forces the serial path, which is how the determinism tests
/// produce their reference output.
pub fn set_sweep_jobs(jobs: usize) {
    SWEEP_JOBS.store(jobs, Ordering::Relaxed);
}

/// The current [`set_sweep_jobs`] override (0 = automatic).
pub fn sweep_jobs() -> usize {
    SWEEP_JOBS.load(Ordering::Relaxed)
}

/// A bounded work-stealing pool for deterministic sweeps.
///
/// The pool owns its helper threads (see the module docs): build one per
/// session and pass it by reference to every call. Dropping it closes the
/// helpers' channels and joins them.
pub struct Pool {
    jobs: usize,
    crew: Mutex<Crew>,
}

/// The helper threads, and the channel on which each reports that it has
/// finished its share of a call.
struct Crew {
    helpers: Vec<Helper>,
    done_tx: Sender<std::thread::Result<()>>,
    done_rx: Receiver<std::thread::Result<()>>,
}

/// One helper thread: worker `w` of every call it joins, where `w` is its
/// position in [`Crew::helpers`] plus one.
struct Helper {
    work: Sender<Arc<dyn Work>>,
    thread: JoinHandle<()>,
}

/// One call's share of work for worker `w`, as a helper runs it.
trait Work: Send + Sync {
    fn run(&self, w: usize);
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("jobs", &self.jobs).finish()
    }
}

impl Pool {
    /// A pool with a fixed worker count (`0` = automatic: one worker per
    /// available core, capped by the item count at each call). No thread
    /// is spawned until a call needs one.
    pub fn new(jobs: usize) -> Self {
        let (done_tx, done_rx) = channel();
        Pool {
            jobs,
            crew: Mutex::new(Crew {
                helpers: Vec::new(),
                done_tx,
                done_rx,
            }),
        }
    }

    /// A pool sized by [`set_sweep_jobs`] (automatic by default).
    pub fn current() -> Self {
        Pool::new(sweep_jobs())
    }

    /// The worker count a call mapping `n` items would use.
    pub fn workers_for(&self, n: usize) -> usize {
        let base = if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        };
        base.min(n).max(1)
    }

    /// Maps `f` over `items`, preserving input order.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        self.map_with(|| (), items, move |(), item| f(item))
    }

    /// Maps `f` over `items` with per-worker state, preserving input
    /// order.
    ///
    /// `init` runs once on each worker that joins the call (and once on
    /// the caller for the serial path); the state it returns is threaded
    /// through every item that worker processes. This is how sweep workers
    /// own one set of recycled [`EngineBuffers`] across a whole grid — see
    /// [`simulate_audited_reusing`].
    ///
    /// Results are committed by input index once every worker has
    /// stopped, so the output is identical to the serial `map` whatever
    /// the interleaving; a panic in `f` or `init` propagates after all
    /// workers stop.
    pub fn map_with<S, T, R, I, F>(&self, init: I, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        I: Fn() -> S + Send + Sync + 'static,
        F: Fn(&mut S, T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers_for(n);
        // Busy helpers mean this call is nested in `f` or races another
        // caller: it runs serially rather than wait on itself.
        let mut crew = match (workers > 1).then(|| self.crew.try_lock()) {
            Some(Ok(crew)) => crew,
            Some(Err(TryLockError::Poisoned(p))) => p.into_inner(),
            Some(Err(TryLockError::WouldBlock)) | None => return serial(&init, items, &f),
        };
        let helpers = crew.hire(workers - 1);
        if helpers == 0 {
            return serial(&init, items, &f);
        }
        assert!(n < u32::MAX as usize, "sweep too large for packed ranges");
        let call = Arc::new(Call::new(items, helpers + 1, init, f));
        let mut joined = 0;
        for helper in &crew.helpers[..helpers] {
            let work: Arc<dyn Work> = call.clone();
            joined += usize::from(helper.work.send(work).is_ok());
        }
        // A helper that never joins leaves its range to the others'
        // stealing, so every item is still claimed exactly once.
        let mut panic = catch_unwind(AssertUnwindSafe(|| call.run(0))).err();
        for _ in 0..joined {
            // `crew` holds a sender, so the channel cannot disconnect.
            if let Ok(Err(payload)) = crew.done_rx.recv() {
                panic.get_or_insert(payload);
            }
        }
        drop(crew);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        call.merge(n)
    }
}

impl Crew {
    /// Spawns helpers until there are `want`, and returns how many this
    /// call may use (fewer only if the OS refused a thread).
    fn hire(&mut self, want: usize) -> usize {
        while self.helpers.len() < want {
            let w = self.helpers.len() + 1;
            let (work, inbox) = channel::<Arc<dyn Work>>();
            let done = self.done_tx.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("sweep-{w}"))
                .spawn(move || serve(w, &inbox, &done));
            match spawned {
                Ok(thread) => self.helpers.push(Helper { work, thread }),
                Err(_) => break,
            }
        }
        want.min(self.helpers.len())
    }
}

/// A helper's life: run worker `w`'s share of each call it is sent, and
/// report back (with the panic payload, if the share panicked) only after
/// dropping its handle on the call, so the caller then holds the last.
fn serve(w: usize, inbox: &Receiver<Arc<dyn Work>>, done: &Sender<std::thread::Result<()>>) {
    while let Ok(work) = inbox.recv() {
        let result = catch_unwind(AssertUnwindSafe(|| work.run(w)));
        drop(work);
        if done.send(result).is_err() {
            break;
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let crew = self.crew.get_mut().unwrap_or_else(PoisonError::into_inner);
        for Helper { work, thread } in crew.helpers.drain(..) {
            // Closing the channel ends the helper's loop.
            drop(work);
            // A helper catches every panic of the work it runs.
            let _ = thread.join();
        }
    }
}

/// The single-worker path: one state, items in order, on this thread.
fn serial<S, T, R>(init: impl Fn() -> S, items: Vec<T>, f: impl Fn(&mut S, T) -> R) -> Vec<R> {
    let mut state = init();
    items.into_iter().map(|item| f(&mut state, item)).collect()
}

/// Everything one call's workers share.
struct Call<T, R, I, F> {
    /// Each item parks in a slot until the worker that won its index
    /// claims it; the winning CAS is the unique claim, so each lock is
    /// uncontended (see the module notes on `forbid(unsafe_code)`).
    slots: Vec<Mutex<Option<T>>>,
    /// One packed range per worker; see [`pack`].
    ranges: Vec<AtomicU64>,
    init: I,
    f: F,
    /// Each worker's `(index, result)` pairs, stored when it stops.
    results: Vec<Mutex<Vec<(usize, R)>>>,
}

impl<T, R, I, F> Call<T, R, I, F> {
    fn new(items: Vec<T>, workers: usize, init: I, f: F) -> Self {
        let n = items.len();
        Call {
            slots: items
                .into_iter()
                .map(|item| Mutex::new(Some(item)))
                .collect(),
            // Contiguous initial partition: worker `w` owns
            // [w·n/W, (w+1)·n/W).
            ranges: (0..workers)
                .map(|w| AtomicU64::new(pack(w * n / workers, (w + 1) * n / workers)))
                .collect(),
            init,
            f,
            results: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// The results in input order; call once every worker has stopped.
    fn merge(&self, n: usize) -> Vec<R> {
        let mut merged: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for out in &self.results {
            let out = std::mem::take(&mut *out.lock().unwrap_or_else(PoisonError::into_inner));
            for (i, r) in out {
                debug_assert!(merged[i].is_none(), "index {i} produced twice");
                merged[i] = Some(r);
            }
        }
        merged
            .into_iter()
            .map(|r| r.expect("every index was processed"))
            .collect()
    }
}

impl<S, T, R, I, F> Work for Call<T, R, I, F>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Send + Sync,
    F: Fn(&mut S, T) -> R + Send + Sync,
{
    fn run(&self, w: usize) {
        let mut state = (self.init)();
        let mut out: Vec<(usize, R)> = Vec::new();
        loop {
            let idx = take_front(&self.ranges[w]).or_else(|| steal(&self.ranges, w));
            let Some(i) = idx else { break };
            let item = self.slots[i]
                .lock()
                .expect("slot lock")
                .take()
                .expect("index claimed exactly once");
            out.push((i, (self.f)(&mut state, item)));
        }
        *self.results[w]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = out;
    }
}

/// Packs a half-open index range into one atomic word (`lo` high, `hi`
/// low) so owner pops and thief steals race through a single CAS.
fn pack(lo: usize, hi: usize) -> u64 {
    ((lo as u64) << 32) | hi as u64
}

fn unpack(v: u64) -> (usize, usize) {
    ((v >> 32) as usize, (v & 0xffff_ffff) as usize)
}

/// Owner side: claim the front index of `r`, or `None` if the range is
/// empty.
fn take_front(r: &AtomicU64) -> Option<usize> {
    let mut cur = r.load(Ordering::Acquire);
    loop {
        let (lo, hi) = unpack(cur);
        if lo >= hi {
            return None;
        }
        match r.compare_exchange_weak(cur, pack(lo + 1, hi), Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return Some(lo),
            Err(seen) => cur = seen,
        }
    }
}

/// Thief side: claim the back index of `r`, or `None` if the range is
/// empty.
fn steal_back(r: &AtomicU64) -> Option<usize> {
    let mut cur = r.load(Ordering::Acquire);
    loop {
        let (lo, hi) = unpack(cur);
        if lo >= hi {
            return None;
        }
        match r.compare_exchange_weak(cur, pack(lo, hi - 1), Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return Some(hi - 1),
            Err(seen) => cur = seen,
        }
    }
}

/// Scan the other workers' ranges (round-robin from `w + 1`) and steal one
/// item from the first non-empty one. Items are never re-queued, so one
/// full scan that finds every range empty means the sweep is drained.
fn steal(ranges: &[AtomicU64], w: usize) -> Option<usize> {
    let k = ranges.len();
    (1..k).find_map(|off| steal_back(&ranges[(w + off) % k]))
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Delegates to [`Pool::current`] — up to one worker per available core
/// (capped by the item count), unless overridden by [`set_sweep_jobs`].
/// That pool lives for this one call, so its helpers are spawned and
/// joined here; code that maps many times should keep one [`Pool`].
///
/// ```
/// let squares = parsched_analysis::parallel_map(vec![1, 2, 3], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    Pool::current().map(items, f)
}

/// One audited in-memory run on donated [`EngineBuffers`]; returns the
/// outcome (or error) together with buffers ready for the next run.
///
/// This is the sweep workers' inner loop: a worker created by
/// [`Pool::map_with`] with `EngineBuffers::new` as `init` recycles one
/// set of engine allocations across its whole share of the grid, keeping
/// the steady state of a sweep allocation-free (see `docs/PERF.md` §6).
/// On error the buffers died with the engine, so a fresh (empty) set is
/// returned — error paths are rare and not performance-relevant.
pub fn simulate_audited_reusing(
    bufs: EngineBuffers,
    instance: &Instance,
    policy: &mut dyn Policy,
    m: f64,
    audit: AuditLevel,
) -> (Result<RunOutcome, SimError>, EngineBuffers) {
    let mut source = StaticSource::new(instance);
    let mut obs = NullObserver;
    let engine = Engine::with_buffers(
        EngineConfig::new(m).with_audit(audit),
        policy,
        &mut source,
        &mut obs,
        bufs,
    );
    match engine.run_reusing() {
        Ok((outcome, bufs)) => (Ok(outcome), bufs),
        Err(e) => (Err(e), EngineBuffers::new()),
    }
}

/// Sweeps streaming simulations over a parameter grid in parallel,
/// preserving input order.
///
/// `make` maps each grid point to a boxed `(source, policy, m)` triple —
/// sources and policies are stateful, so each run gets fresh ones. Every
/// run uses the engine's memory-bounded streaming path
/// ([`parsched_sim::simulate_streaming_audited`]), so the sweep's resident
/// footprint is `workers × O(peak alive)` rather than `workers × O(n)` —
/// the difference between feasible and not for multi-million-job grids.
///
/// ```
/// use parsched_analysis::streaming_sweep;
/// use parsched_sim::{AuditLevel, EquiSplit};
/// use parsched_workloads::{GreedyTrap, TrapStreamSource};
///
/// let outcomes = streaming_sweep(vec![4usize, 8], AuditLevel::Final, |&m| {
///     let trap = GreedyTrap::new(m, 0.5).with_stream_duration(8.0);
///     (Box::new(TrapStreamSource::new(trap)) as _,
///      Box::new(EquiSplit::new()) as _,
///      m as f64)
/// });
/// assert!(outcomes.iter().all(|o| o.as_ref().unwrap().audit.as_ref().unwrap().final_checked));
/// ```
pub fn streaming_sweep<T, F>(
    points: Vec<T>,
    audit: AuditLevel,
    make: F,
) -> Vec<Result<StreamingOutcome, SimError>>
where
    T: Send + 'static,
    F: Fn(&T) -> (Box<dyn ArrivalSource + Send>, Box<dyn Policy + Send>, f64)
        + Send
        + Sync
        + 'static,
{
    parallel_map(points, move |p| {
        let (mut source, mut policy, m) = make(&p);
        simulate_streaming_audited(source.as_mut(), policy.as_mut(), m, audit)
    })
}

/// The Cartesian product of two parameter slices, row-major — the common
/// shape of a two-axis sweep grid.
pub fn grid2<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for x in a {
        for y in b {
            out.push((x.clone(), y.clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(items, |x| x * 2);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64);
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&counter);
        let out = parallel_map((0..257).collect::<Vec<_>>(), move |x| {
            seen.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_fast_path() {
        assert_eq!(parallel_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn pool_output_matches_serial_bit_for_bit() {
        // Float results compared by bits: the pool must be invisible in
        // the output no matter the worker count.
        let items: Vec<f64> = (0..533).map(|i| 0.1 + f64::from(i) * 0.37).collect();
        let f = |x: f64| (x.sin() * x.sqrt()).ln_1p();
        let reference: Vec<u64> = Pool::new(1)
            .map(items.clone(), f)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for jobs in [2, 3, 4, 8] {
            let got: Vec<u64> = Pool::new(jobs)
                .map(items.clone(), f)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn map_with_initializes_one_state_per_worker() {
        let inits = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&inits);
        let pool = Pool::new(3);
        let out = pool.map_with(
            move || {
                counted.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            (0..100).collect::<Vec<usize>>(),
            |seen, x| {
                *seen += 1;
                x + *seen - *seen // result independent of worker state
            },
        );
        assert_eq!(out, (0..100).collect::<Vec<usize>>());
        let created = inits.load(Ordering::Relaxed);
        assert!(
            (1..=3).contains(&created),
            "expected ≤ 3 worker states, got {created}"
        );
    }

    #[test]
    fn stealing_balances_skewed_costs() {
        // Front-loaded costs: with contiguous partitioning the first
        // worker owns all the slow items; stealing keeps the others busy.
        // The test asserts correctness (exactly-once, in order) — wall
        // clock on 1-core CI says nothing.
        let items: Vec<u64> = (0..64).collect();
        let out = Pool::new(4).map(items, |x| {
            if x < 16 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            x * x
        });
        assert_eq!(out, (0..64).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn set_sweep_jobs_overrides_current_pool() {
        // Serialized via the global: restore before returning.
        let before = sweep_jobs();
        set_sweep_jobs(1);
        assert_eq!(Pool::current().workers_for(100), 1);
        set_sweep_jobs(5);
        assert_eq!(Pool::current().workers_for(100), 5);
        assert_eq!(Pool::current().workers_for(3), 3);
        set_sweep_jobs(before);
    }

    #[test]
    fn simulate_audited_reusing_matches_fresh_runs() {
        use parsched::PolicyKind;
        use parsched_sim::simulate_audited;
        use parsched_workloads::random::{AlphaDist, PoissonWorkload, SizeDist};
        let sizes = SizeDist::LogUniform { p: 16.0 };
        let inst = PoissonWorkload {
            n: 400,
            rate: PoissonWorkload::rate_for_load(0.9, 4.0, &sizes),
            sizes,
            alphas: AlphaDist::Fixed(0.5),
            seed: 77,
        }
        .generate()
        .expect("workload");
        let mut bufs = EngineBuffers::new();
        for _ in 0..3 {
            let mut policy = PolicyKind::IntermediateSrpt.build();
            let (out, next) =
                simulate_audited_reusing(bufs, &inst, policy.as_mut(), 4.0, AuditLevel::Final);
            bufs = next;
            let reused = out.expect("reusing run");
            let fresh = simulate_audited(
                &inst,
                PolicyKind::IntermediateSrpt.build().as_mut(),
                4.0,
                AuditLevel::Final,
            )
            .expect("fresh run");
            assert_eq!(
                reused.metrics.total_flow.to_bits(),
                fresh.metrics.total_flow.to_bits()
            );
            assert_eq!(reused.metrics.events, fresh.metrics.events);
        }
    }

    #[test]
    fn actually_uses_multiple_threads_for_blocking_work() {
        // 8 tasks that each sleep 20ms: serial would take ≥160ms.
        let start = std::time::Instant::now();
        parallel_map((0..8).collect::<Vec<_>>(), |_| {
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        let elapsed = start.elapsed();
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        if workers >= 4 {
            assert!(
                elapsed < std::time::Duration::from_millis(150),
                "took {elapsed:?} on {workers} workers"
            );
        }
    }

    #[test]
    fn streaming_sweep_matches_in_memory_runs_in_order() {
        use parsched_sim::{simulate, EquiSplit};
        use parsched_workloads::{GreedyTrap, TrapStreamSource};
        let ms = vec![4usize, 8, 16];
        let outcomes = streaming_sweep(ms.clone(), AuditLevel::Final, |&m| {
            let trap = GreedyTrap::new(m, 0.5).with_stream_duration(4.0);
            (
                Box::new(TrapStreamSource::new(trap)) as _,
                Box::new(EquiSplit::new()) as _,
                m as f64,
            )
        });
        assert_eq!(outcomes.len(), ms.len());
        for (&m, st) in ms.iter().zip(&outcomes) {
            let st = st.as_ref().expect("sweep run succeeds");
            let trap = GreedyTrap::new(m, 0.5).with_stream_duration(4.0);
            let mem = simulate(&trap.instance().unwrap(), &mut EquiSplit::new(), m as f64).unwrap();
            assert_eq!(mem.metrics, st.metrics, "m={m}");
            assert!(st.audit.as_ref().is_some_and(|a| a.final_checked));
        }
    }

    /// Maps `k` items, each of which waits until all `k` have started, so
    /// the call completes only once `k` workers run at the same time; a
    /// worker that never joins fails the call instead of hanging it.
    /// Then each item runs `then` on its index. Returns the thread that
    /// ran each item.
    fn rendezvous(
        pool: &Pool,
        k: usize,
        then: impl Fn(usize) + Send + Sync + 'static,
    ) -> Vec<ThreadId> {
        let started = Arc::new(AtomicUsize::new(0));
        pool.map((0..k).collect(), move |i| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(20);
            while started.load(Ordering::SeqCst) < k {
                assert!(Instant::now() < deadline, "only some workers joined");
                std::thread::sleep(Duration::from_micros(50));
            }
            then(i);
            std::thread::current().id()
        })
    }

    fn helper_count(pool: &Pool) -> usize {
        pool.crew.lock().expect("crew").helpers.len()
    }

    #[test]
    fn helpers_persist_across_calls() {
        let pool = Pool::new(2);
        let caller = std::thread::current().id();
        let first = rendezvous(&pool, 2, |_| {});
        let helper = *first.iter().find(|&&t| t != caller).expect("a helper ran");
        for call in 0..100 {
            let mut ids = rendezvous(&pool, 2, |_| {});
            ids.sort_by_key(|&t| t != caller);
            assert_eq!(ids, vec![caller, helper], "call {call}");
        }
        assert_eq!(helper_count(&pool), 1);
    }

    #[test]
    fn one_worker_never_spawns() {
        let caller = std::thread::current().id();
        let pool = Pool::new(1);
        for _ in 0..10 {
            let ids = pool.map((0..50).collect(), |_: u32| std::thread::current().id());
            assert!(ids.iter().all(|&t| t == caller));
        }
        assert_eq!(helper_count(&pool), 0);
        // A single item needs one worker whatever the pool's size.
        let pool = Pool::new(4);
        assert_eq!(pool.map(vec![5], |x: u32| x + 1), vec![6]);
        assert_eq!(helper_count(&pool), 0);
    }

    #[test]
    fn a_panic_reaches_the_caller_and_the_pool_keeps_serving() {
        let pool = Pool::new(2);
        let caller = std::thread::current().id();
        let helper = rendezvous(&pool, 2, |_| {})
            .into_iter()
            .find(|&t| t != caller)
            .expect("a helper ran");
        // Item 0 runs on the caller and item 1 on the helper: both wait
        // for each other, and each worker starts at the front of its own
        // range.
        for bad in [0, 1] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                rendezvous(&pool, 2, move |i| {
                    assert_ne!(i, bad, "item {i} fails on purpose")
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains(&format!("item {bad} fails")), "{msg}");
            let items: Vec<u64> = (0..300).collect();
            let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
            assert_eq!(pool.map(items, |x| x * 3 + 1), expect);
            assert!(rendezvous(&pool, 2, |_| {}).contains(&helper));
        }
        assert_eq!(helper_count(&pool), 1);
    }

    #[test]
    fn nested_and_concurrent_calls_fall_back_to_serial() {
        let expect: Vec<u64> = (0..40u64).map(|x| (0..x).map(|y| y * y).sum()).collect();
        let pool = Arc::new(Pool::new(2));
        let inner = Arc::clone(&pool);
        let nested = pool.map((0..40).collect(), move |x: u64| {
            inner.map((0..x).collect(), |y| y * y).iter().sum::<u64>()
        });
        assert_eq!(nested, expect);
        // Two threads sharing one pool: whichever finds the helpers busy
        // maps on its own thread, and both get the serial answer.
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    (0..20)
                        .map(|_| pool.map((0..40).collect(), |x: u64| x * x))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let squares: Vec<u64> = (0..40).map(|x| x * x).collect();
        for caller in callers {
            for out in caller.join().expect("caller thread") {
                assert_eq!(out, squares);
            }
        }
    }

    #[test]
    fn dropping_the_pool_joins_its_helpers() {
        // Each helper that runs an item arms a thread-local guard; its
        // destructor runs when the helper thread exits.
        static ARMED: AtomicUsize = AtomicUsize::new(0);
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct ExitGuard;
        impl Drop for ExitGuard {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static GUARD: std::cell::RefCell<Option<ExitGuard>> =
                const { std::cell::RefCell::new(None) };
        }
        let pool = Pool::new(3);
        let caller = std::thread::current().id();
        rendezvous(&pool, 3, move |_| {
            if std::thread::current().id() != caller {
                GUARD.with(|g| *g.borrow_mut() = Some(ExitGuard));
                ARMED.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(ARMED.load(Ordering::SeqCst), 2);
        assert_eq!(EXITED.load(Ordering::SeqCst), 0);
        assert_eq!(helper_count(&pool), 2);
        drop(pool);
        assert_eq!(
            EXITED.load(Ordering::SeqCst),
            ARMED.load(Ordering::SeqCst),
            "every armed helper exited before drop returned"
        );
    }

    #[test]
    fn grid2_is_row_major() {
        let g = grid2(&[1, 2], &["a", "b", "c"]);
        assert_eq!(g.len(), 6);
        assert_eq!(g[0], (1, "a"));
        assert_eq!(g[2], (1, "c"));
        assert_eq!(g[3], (2, "a"));
    }
}
