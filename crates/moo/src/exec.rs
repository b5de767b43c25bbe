//! Persistent execution: a long-lived worker pool behind every
//! [`EvalBackend`], with a deterministic index-stealing splitter.
//!
//! The batched-evaluation design of this workspace used to re-spawn scoped
//! OS threads (`std::thread::scope`) for every offspring batch. Thread
//! creation costs on the order of ten microseconds per worker, which is
//! negligible against an expensive oracle but *dominates* cheap ones — a
//! sparse steady-state residual over the 608-reaction Geobacter model takes
//! single-digit microseconds per candidate, so the old strategy could make
//! `Threads(n)` slower than `Serial` on exactly the workloads parallelism
//! should help most.
//!
//! An [`Executor`] fixes this by keeping the workers alive: threads are
//! spawned once, parked on a channel, and fed lane jobs batch after batch
//! for the lifetime of the run. Serial mode ([`Executor::serial`]; also what
//! the `Threads(0)` / `Threads(1)` backends short-circuit to, without
//! constructing any pool) evaluates on the calling thread.
//!
//! # Work stealing
//!
//! Fixed contiguous chunks leave lanes idle whenever per-candidate cost
//! varies — exactly the ODE steady-state workload the leaf-redesign oracle
//! produces, where one candidate can integrate 100× longer than its
//! neighbour. The splitter therefore publishes work as *per-slot indices*:
//! each lane starts with a contiguous index range, the owner pops small
//! blocks from the **front** of its own range, and a lane that runs dry
//! steals a block from the **tail** of another lane's remaining range
//! (largest-half-first, round-robin victim scan). Claimed runs are always
//! contiguous sub-slices of the batch, so batched-oracle overrides still
//! amortize within a run.
//!
//! # Determinism
//!
//! Executors preserve batch order and never touch any RNG. Results commit
//! *by slot*: every claimed run `[start, end)` stores its outputs keyed by
//! `start`, and the caller splices the runs back together in index order.
//! Because [`MultiObjectiveProblem::evaluate_batch`] overrides are required
//! to be pure per candidate, the output is bit-identical to a serial run for
//! any lane count and **any interleaving of steals** — the schedule decides
//! only *who* computes a slot, never *what* the slot contains (enforced by
//! `tests/determinism.rs` and the proptests below).
//!
//! # Sharing
//!
//! Executors are shared as `Arc<Executor>`: an archipelago breeds all of
//! its islands and evaluates all of their offspring on one executor, and
//! the `pathway` CLI builds a single pool for a whole `run`/`resume`
//! invocation (`--threads`). Cloning an optimizer clones the `Arc`, so
//! clones share the same workers.
//!
//! # Example
//!
//! ```
//! use pathway_moo::exec::Executor;
//! use pathway_moo::{problems::Schaffer, EvalBackend};
//!
//! let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
//! let pool = Executor::new(EvalBackend::Threads(2));
//! let serial = Executor::serial();
//! // One pool, many batches — and always bit-identical to serial.
//! for _ in 0..3 {
//!     assert_eq!(
//!         pool.evaluate_batch(&Schaffer, &xs),
//!         serial.evaluate_batch(&Schaffer, &xs)
//!     );
//! }
//! ```

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::engine::telemetry::{duration_us, MetricsRegistry};
use crate::{EvalBackend, Individual, MultiObjectiveProblem};

/// A unit of work shipped to a pool worker: the closure plus its enqueue
/// timestamp, so the worker can attribute real enqueue→dequeue latency to
/// the queue-wait histogram at the moment it picks the job up.
struct Job {
    enqueued: Instant,
    run: Box<dyn FnOnce() + Send + 'static>,
}

/// Histogram bucket bounds (µs) for time a lane job waits in the pool queue.
const QUEUE_WAIT_BOUNDS_US: [f64; 10] = [
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
];

/// Histogram bucket bounds (µs) for per-run (claimed block) execution time.
const CHUNK_BOUNDS_US: [f64; 11] = [
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 25000.0, 50000.0, 100000.0,
];

/// Most items a single claim (owner pop or steal) may take. Small enough
/// that a skewed tail can be redistributed, large enough that batched
/// oracles still amortize within a run. It equals the tile width of the
/// Geobacter oracle's fused CSR kernel (`pathway_linalg::RESIDUAL_TILE`),
/// so a full claimed run is exactly one tile.
const CLAIM_BLOCK: usize = 8;

/// A point-in-time load snapshot of an [`Executor`] (see
/// [`Executor::stats`]).
///
/// The gauges are updated with relaxed atomics on the submit/execute path,
/// so a snapshot is advisory — a health signal for dashboards and the
/// `pathway serve` `status` command, not a synchronization primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Configured degree of parallelism (the caller lane included); matches
    /// [`Executor::workers`].
    pub workers: usize,
    /// Lane jobs submitted to the pool's queue but not yet picked up by a
    /// worker. Always 0 in serial mode.
    pub queued_chunks: usize,
    /// Lanes currently executing, the caller lane included. Always
    /// 0 in serial mode (serial evaluation is not instrumented).
    pub active_workers: usize,
}

/// A persistent evaluation executor: either the calling thread
/// (serial mode) or a long-lived pool of parked worker threads.
///
/// Construction from an [`EvalBackend`] is the usual entry point
/// ([`Executor::new`] / [`Executor::shared`]); `Threads(0)` and `Threads(1)`
/// short-circuit to serial mode without constructing a pool, since a
/// one-worker pool could only ever evaluate the same slots the calling
/// thread would.
///
/// Dropping the last handle to a pooled executor shuts the workers down and
/// joins them.
pub struct Executor {
    mode: Mode,
    /// Telemetry sink, attachable after construction (see
    /// [`Executor::set_metrics`]). A `OnceLock` shared into the worker
    /// threads at spawn time: the pool outlives any particular registry
    /// decision, so workers capture the cell, not a registry.
    metrics: Arc<OnceLock<MetricsRegistry>>,
}

enum Mode {
    Serial,
    Pool(WorkerPool),
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.mode {
            Mode::Serial => f.write_str("Executor::Serial"),
            Mode::Pool(pool) => write!(f, "Executor::Pool({}-way)", pool.workers),
        }
    }
}

impl Default for Executor {
    /// The serial executor.
    fn default() -> Self {
        Executor::serial()
    }
}

impl Executor {
    /// An executor that evaluates on the calling thread.
    pub fn serial() -> Self {
        Executor {
            mode: Mode::Serial,
            metrics: Arc::new(OnceLock::new()),
        }
    }

    /// Builds the executor an [`EvalBackend`] describes:
    /// [`EvalBackend::Serial`], `Threads(0)` and `Threads(1)` become the
    /// (pool-free) serial executor, `Threads(n ≥ 2)` spawns a persistent
    /// pool of `n` workers.
    pub fn new(backend: EvalBackend) -> Self {
        match backend {
            EvalBackend::Serial | EvalBackend::Threads(0) | EvalBackend::Threads(1) => {
                Executor::serial()
            }
            EvalBackend::Threads(workers) => {
                let metrics = Arc::new(OnceLock::new());
                Executor {
                    mode: Mode::Pool(WorkerPool::new(workers, Arc::clone(&metrics))),
                    metrics,
                }
            }
        }
    }

    /// Attaches a telemetry registry. Callable on a shared `Arc<Executor>`
    /// at any point after construction; the first call wins and later
    /// calls are ignored (the worker threads captured the cell at spawn
    /// time). Purely observational — splitting, batch order and results
    /// are bit-identical with and without a registry attached.
    pub fn set_metrics(&self, registry: MetricsRegistry) {
        let _ = self.metrics.set(registry);
    }

    /// The attached telemetry registry, if any.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.get()
    }

    /// Like [`Executor::new`], wrapped for sharing between optimizers (e.g.
    /// one pool across all islands of an archipelago).
    pub fn shared(backend: EvalBackend) -> Arc<Self> {
        Arc::new(Self::new(backend))
    }

    /// Degree of parallelism: how many lanes a batch is split across (1 in
    /// serial mode). A pooled executor runs one lane on the calling thread
    /// and the rest on its `workers() - 1` spawned threads.
    pub fn workers(&self) -> usize {
        match &self.mode {
            Mode::Serial => 1,
            Mode::Pool(pool) => pool.workers,
        }
    }

    /// `true` when this executor owns a worker pool.
    pub fn is_pooled(&self) -> bool {
        matches!(self.mode, Mode::Pool(_))
    }

    /// A point-in-time load snapshot: configured lanes, lane jobs waiting in
    /// the queue, lanes currently executing. Safe to call from any
    /// thread at any time — this is the observability hook the `pathway
    /// serve` `status` command surfaces as executor health.
    pub fn stats(&self) -> ExecutorStats {
        match &self.mode {
            Mode::Serial => ExecutorStats {
                workers: 1,
                queued_chunks: 0,
                active_workers: 0,
            },
            Mode::Pool(pool) => ExecutorStats {
                workers: pool.workers,
                queued_chunks: pool.gauges.queued.load(Ordering::Relaxed),
                active_workers: pool.gauges.active.load(Ordering::Relaxed),
            },
        }
    }

    /// Applies `f` to contiguous runs of `items` claimed through the
    /// index-stealing splitter and returns the outputs spliced back into
    /// input order. `f` must produce **exactly one output per input item**
    /// (debug-asserted) and be pure per item; under that contract the result
    /// is identical to `f(items)` regardless of lane count or steal
    /// interleaving. Serial mode applies `f` to the whole slice at once.
    ///
    /// A panic inside `f` is propagated to the caller after every
    /// in-flight lane of this call has finished; the pool itself survives
    /// and can run further batches.
    ///
    /// Items need not be candidates: the archipelago passes its islands,
    /// one item each, so on a pool the islands breed on separate lanes. It
    /// evaluates their offspring only after this call returns.
    ///
    /// Do not call this from inside a job running *on the same pool*
    /// (i.e. from within `f`): the outer job would occupy a worker while
    /// blocking on the inner call's completion, which can deadlock a
    /// saturated pool. Calling from ordinary threads — including several
    /// at once — is fine.
    pub fn map_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> Vec<R> + Sync,
    {
        match &self.mode {
            Mode::Serial => f(items),
            Mode::Pool(pool) => {
                let lanes = pool.workers.min(items.len());
                if lanes <= 1 {
                    return f(items);
                }
                pool.run_lanes(items, lanes, &f)
            }
        }
    }

    /// Evaluates a batch of decision vectors, returning
    /// `(objectives, constraint_violation)` per candidate in batch order.
    ///
    /// [`MultiObjectiveProblem::prepare_batch`] is called exactly once with
    /// the *whole* batch before any run is evaluated (the hook a stateful
    /// oracle would need to stay deterministic under splitting), then each
    /// claimed run goes through
    /// [`MultiObjectiveProblem::evaluate_batch`], so batched-oracle
    /// overrides amortize under the serial and the pooled mode alike.
    pub fn evaluate_batch<P: MultiObjectiveProblem>(
        &self,
        problem: &P,
        xs: &[Vec<f64>],
    ) -> Vec<(Vec<f64>, f64)> {
        let metrics = self.metrics.get();
        if let Some(metrics) = metrics {
            metrics.add("exec.batches", 1);
            metrics.add("exec.candidates", xs.len() as u64);
        }
        {
            let _span = metrics.map(|m| m.phase("prepare_batch"));
            problem.prepare_batch(xs);
        }
        let _span = metrics.map(|m| m.phase("eval"));
        self.map_chunks(xs, |chunk| problem.evaluate_batch(chunk))
    }

    /// Evaluates a batch of decision vectors into [`Individual`]s (rank and
    /// crowding left unassigned), preserving batch order.
    pub fn evaluate_individuals<P: MultiObjectiveProblem>(
        &self,
        problem: &P,
        variables: Vec<Vec<f64>>,
    ) -> Vec<Individual> {
        let evaluated = self.evaluate_batch(problem, &variables);
        variables
            .into_iter()
            .zip(evaluated)
            .map(|(x, (objectives, violation))| {
                Individual::from_evaluated(x, objectives, violation)
            })
            .collect()
    }
}

// -------------------------------------------------- the stealing splitter --

/// One lane's remaining index range, packed `lo << 32 | hi` so a claim is a
/// single CAS. The owner pops blocks from `lo` (the front); thieves lower
/// `hi` (the tail). `lo >= hi` means drained.
struct LaneRange(AtomicU64);

fn pack(lo: usize, hi: usize) -> u64 {
    debug_assert!(hi <= u32::MAX as usize, "batches are far below 2^32 items");
    ((lo as u64) << 32) | hi as u64
}

fn unpack(value: u64) -> (usize, usize) {
    (
        (value >> 32) as usize,
        (value & u64::from(u32::MAX)) as usize,
    )
}

impl LaneRange {
    fn new(lo: usize, hi: usize) -> Self {
        LaneRange(AtomicU64::new(pack(lo, hi)))
    }

    /// The owner's claim: pop up to [`CLAIM_BLOCK`] items from the front.
    fn pop_front(&self) -> Option<(usize, usize)> {
        let mut current = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(current);
            if lo >= hi {
                return None;
            }
            let take = CLAIM_BLOCK.min(hi - lo);
            match self.0.compare_exchange_weak(
                current,
                pack(lo + take, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((lo, lo + take)),
                Err(seen) => current = seen,
            }
        }
    }

    /// A thief's claim: take up to half the remaining range (capped at
    /// [`CLAIM_BLOCK`]) off the tail.
    fn steal_tail(&self) -> Option<(usize, usize)> {
        let mut current = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(current);
            if lo >= hi {
                return None;
            }
            let take = ((hi - lo).div_ceil(2)).min(CLAIM_BLOCK);
            match self.0.compare_exchange_weak(
                current,
                pack(lo, hi - take),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((hi - take, hi)),
                Err(seen) => current = seen,
            }
        }
    }
}

/// Per-batch splitter counters, accumulated with relaxed atomics by the
/// lanes and flushed to the registry once by the caller after the barrier.
#[derive(Default)]
struct SplitterCounters {
    /// Contiguous runs claimed (owner pops and steals alike).
    runs: AtomicU64,
    /// Runs executed by the caller lane (lane 0).
    inline_runs: AtomicU64,
    /// Successful tail steals.
    steals: AtomicU64,
    /// Lanes that finished the batch without claiming a single run.
    idle_lanes: AtomicU64,
}

// ------------------------------------------------------------- the pool --

/// Completion tracking for one `run_lanes` call: a countdown of outstanding
/// lane jobs plus the first panic payload any of them produced.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new(jobs: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining: jobs,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Marks one job finished, recording its panic payload if it had one.
    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut state = self.state.lock().expect("latch lock poisoned");
        state.remaining -= 1;
        if state.panic.is_none() {
            state.panic = panic;
        }
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every job completed; returns the first panic payload.
    fn wait(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut state = self.state.lock().expect("latch lock poisoned");
        while state.remaining > 0 {
            state = self.done.wait(state).expect("latch lock poisoned");
        }
        state.panic.take()
    }
}

/// Long-lived worker threads parked on a shared job channel.
///
/// An *n*-way pool spawns only `n - 1` OS threads: `run_lanes` always
/// drives one lane on the calling thread (which would otherwise idle at
/// the barrier), so the caller is the n-th lane and a spawned n-th worker
/// could never receive work from a single caller.
struct WorkerPool {
    /// `Some` until shutdown; dropping it is what makes the workers exit.
    sender: Option<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    /// Configured parallelism (caller lane included), not thread count.
    workers: usize,
    /// Live load gauges behind [`Executor::stats`].
    gauges: Arc<PoolGauges>,
    /// The owning executor's telemetry cell (workers hold their own clone).
    metrics: Arc<OnceLock<MetricsRegistry>>,
}

/// Relaxed-atomic load gauges shared between the pool handle, its workers,
/// and any thread taking an [`ExecutorStats`] snapshot.
#[derive(Debug, Default)]
struct PoolGauges {
    queued: AtomicUsize,
    active: AtomicUsize,
}

impl WorkerPool {
    fn new(workers: usize, metrics: Arc<OnceLock<MetricsRegistry>>) -> Self {
        debug_assert!(workers >= 2, "one-worker pools short-circuit to serial");
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let gauges = Arc::new(PoolGauges::default());
        let handles = (0..workers - 1)
            .map(|index| {
                let receiver = Arc::clone(&receiver);
                let gauges = Arc::clone(&gauges);
                let metrics = Arc::clone(&metrics);
                // Lane 0 is the caller lane (see `run_lanes`); spawned
                // workers are lanes 1..workers.
                let lane_busy = format!("exec.lane{:02}.busy_us", index + 1);
                std::thread::Builder::new()
                    .name(format!("pathway-exec-{index}"))
                    .spawn(move || loop {
                        // The lock guards only the `recv` hand-off, not job
                        // execution: it is released the moment a job (or the
                        // hang-up) arrives.
                        let message = {
                            let guard = receiver.lock().expect("pool receiver lock poisoned");
                            guard.recv()
                        };
                        match message {
                            // Jobs carry their own panic containment (see
                            // `run_lanes`); the extra catch keeps a worker
                            // alive even if that invariant is ever broken.
                            Ok(job) => {
                                gauges.queued.fetch_sub(1, Ordering::Relaxed);
                                gauges.active.fetch_add(1, Ordering::Relaxed);
                                // The message carries its enqueue timestamp:
                                // this is the real enqueue→dequeue latency,
                                // measured before the job runs a single
                                // instruction.
                                if let Some(registry) = metrics.get() {
                                    registry.observe_duration(
                                        "exec.queue_wait_us",
                                        &QUEUE_WAIT_BOUNDS_US,
                                        job.enqueued.elapsed(),
                                    );
                                }
                                let started = Instant::now();
                                // The job leaves the `active` gauge itself,
                                // before it releases the submitting caller.
                                let _ = panic::catch_unwind(AssertUnwindSafe(job.run));
                                if let Some(registry) = metrics.get() {
                                    registry.add(&lane_busy, duration_us(started.elapsed()));
                                }
                            }
                            Err(mpsc::RecvError) => break,
                        }
                    })
                    .expect("spawning a pool worker thread failed")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            handles,
            workers,
            gauges,
            metrics,
        }
    }

    /// Runs `f` over `items` with `lanes` cooperating lanes: lanes `1..`
    /// are shipped to the pool, lane `0` runs on the calling thread (the
    /// caller would otherwise idle-wait), and the call blocks until all
    /// lanes completed. Each lane pops blocks off the front of its own
    /// index range and steals from the tails of others once drained;
    /// results commit by slot, so the spliced output is independent of the
    /// steal schedule. Panics from any lane are re-raised here after the
    /// barrier.
    fn run_lanes<T, R, F>(&self, items: &[T], lanes: usize, f: &F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> Vec<R> + Sync,
    {
        debug_assert!(lanes >= 2 && lanes <= items.len());
        let chunk_size = items.len().div_ceil(lanes);
        let ranges: Vec<LaneRange> = (0..lanes)
            .map(|lane| {
                let lo = (lane * chunk_size).min(items.len());
                let hi = ((lane + 1) * chunk_size).min(items.len());
                LaneRange::new(lo, hi)
            })
            .collect();
        // Completed runs as (start slot, outputs); disjoint and covering,
        // so sorting by start reproduces input order exactly.
        let runs: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(lanes * 2));
        let counters = SplitterCounters::default();
        let latch = Latch::new(lanes - 1);
        let metrics = self.metrics.get();

        // One lane's drain loop: own front first, then steal round-robin.
        let work_lane = |lane: usize| {
            let mut claimed_any = false;
            loop {
                let claim = ranges[lane].pop_front().or_else(|| {
                    (1..lanes).find_map(|offset| {
                        let victim = (lane + offset) % lanes;
                        let stolen = ranges[victim].steal_tail();
                        if stolen.is_some() {
                            counters.steals.fetch_add(1, Ordering::Relaxed);
                        }
                        stolen
                    })
                });
                let Some((start, end)) = claim else { break };
                claimed_any = true;
                counters.runs.fetch_add(1, Ordering::Relaxed);
                if lane == 0 {
                    counters.inline_runs.fetch_add(1, Ordering::Relaxed);
                }
                let run_started = Instant::now();
                let values = f(&items[start..end]);
                debug_assert_eq!(
                    values.len(),
                    end - start,
                    "map_chunks requires exactly one output per input item"
                );
                if let Some(registry) = metrics {
                    registry.observe_duration(
                        "exec.chunk_us",
                        &CHUNK_BOUNDS_US,
                        run_started.elapsed(),
                    );
                }
                runs.lock()
                    .expect("run sink poisoned")
                    .push((start, values));
            }
            if !claimed_any {
                counters.idle_lanes.fetch_add(1, Ordering::Relaxed);
            }
        };

        let sender = self
            .sender
            .as_ref()
            .expect("the pool is only shut down on drop");
        let gauges = &self.gauges;
        for lane in 1..lanes {
            let work_lane = &work_lane;
            let latch = &latch;
            // The worker entered `active` when it picked the job up; leave it
            // before counting the latch down, so the pool reads idle as soon
            // as the batch returns.
            let job = move || {
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| work_lane(lane)));
                gauges.active.fetch_sub(1, Ordering::Relaxed);
                latch.complete(outcome.err());
            };
            let boxed: Box<dyn FnOnce() + Send + '_> = Box::new(job);
            // SAFETY: the job borrows `work_lane` (which itself borrows
            // `items`, `ranges`, `runs`, `counters`, `f`) and `latch`, all
            // of which live on this stack frame. The lifetime is erased to
            // ship the job through the pool's 'static channel, and the
            // erasure is sound because this function does not return (and
            // never unwinds past the borrows) until `latch.wait()` below has
            // observed every submitted job's completion — including the
            // panic path, which counts the latch down before unwinding is
            // contained by `catch_unwind`.
            let run: Box<dyn FnOnce() + Send + 'static> = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(
                    boxed,
                )
            };
            self.gauges.queued.fetch_add(1, Ordering::Relaxed);
            let job = Job {
                enqueued: Instant::now(),
                run,
            };
            if let Err(mpsc::SendError(job)) = sender.send(job) {
                // Unreachable while `self` is alive, but losing a job would
                // deadlock the latch — run it here instead.
                self.gauges.queued.fetch_sub(1, Ordering::Relaxed);
                self.gauges.active.fetch_add(1, Ordering::Relaxed);
                (job.run)();
            }
        }
        // The calling thread is lane 0: it drains work instead of idling
        // until the pool finishes.
        self.gauges.active.fetch_add(1, Ordering::Relaxed);
        let inline_started = Instant::now();
        let inline_panic = panic::catch_unwind(AssertUnwindSafe(|| work_lane(0))).err();
        if let Some(registry) = metrics {
            registry.add("exec.lane00.busy_us", duration_us(inline_started.elapsed()));
        }
        self.gauges.active.fetch_sub(1, Ordering::Relaxed);
        // Always reach the barrier before unwinding anything: the workers
        // still hold borrows into this frame until the latch drains.
        let pool_panic = latch.wait();
        if let Some(registry) = metrics {
            registry.add("exec.chunks", counters.runs.load(Ordering::Relaxed));
            registry.add(
                "exec.inline_chunks",
                counters.inline_runs.load(Ordering::Relaxed),
            );
            registry.add("exec.steal_count", counters.steals.load(Ordering::Relaxed));
            registry.add(
                "exec.idle_lane_turns",
                counters.idle_lanes.load(Ordering::Relaxed),
            );
        }
        if let Some(payload) = inline_panic {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = pool_panic {
            panic::resume_unwind(payload);
        }
        let mut runs = runs.into_inner().expect("run sink poisoned");
        runs.sort_unstable_by_key(|(start, _)| *start);
        let mut out: Vec<R> = Vec::with_capacity(items.len());
        for (start, values) in runs {
            debug_assert_eq!(out.len(), start, "claimed runs must tile the batch");
            out.extend(values);
        }
        debug_assert_eq!(out.len(), items.len());
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Hang up the channel, then join: each worker exits its recv loop
        // once the queue drains.
        drop(self.sender.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{BinhKorn, Schaffer};
    use proptest::prelude::*;

    fn candidates(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![-5.0 + i as f64 * 0.37]).collect()
    }

    /// Deterministic busy-work so tests can skew per-item cost without
    /// sleeping; returns a value derived from the spin to defeat the
    /// optimizer.
    fn burn(iters: u64) -> f64 {
        let mut acc = 0.0f64;
        for i in 0..iters {
            acc += std::hint::black_box((i as f64).sqrt());
        }
        acc
    }

    #[test]
    fn backend_construction_short_circuits_degenerate_pools() {
        assert!(!Executor::new(EvalBackend::Serial).is_pooled());
        assert!(!Executor::new(EvalBackend::Threads(0)).is_pooled());
        assert!(!Executor::new(EvalBackend::Threads(1)).is_pooled());
        let pool = Executor::new(EvalBackend::Threads(3));
        assert!(pool.is_pooled());
        assert_eq!(pool.workers(), 3);
        assert_eq!(Executor::serial().workers(), 1);
    }

    #[test]
    fn pool_matches_serial_across_many_batches() {
        let pool = Executor::new(EvalBackend::Threads(4));
        let serial = Executor::serial();
        for batch_len in [0, 1, 2, 3, 7, 13, 50] {
            let xs = candidates(batch_len);
            assert_eq!(
                pool.evaluate_batch(&Schaffer, &xs),
                serial.evaluate_batch(&Schaffer, &xs),
                "batch of {batch_len} diverged"
            );
        }
    }

    #[test]
    fn constraint_violations_survive_the_pool() {
        let xs: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![i as f64 * 0.6, 3.0 - i as f64 * 0.3])
            .collect();
        let pool = Executor::new(EvalBackend::Threads(3));
        let pooled = pool.evaluate_batch(&BinhKorn, &xs);
        assert_eq!(pooled, Executor::serial().evaluate_batch(&BinhKorn, &xs));
        assert!(pooled.iter().any(|(_, v)| *v > 0.0));
    }

    #[test]
    fn map_chunks_preserves_order() {
        let pool = Executor::new(EvalBackend::Threads(3));
        let items: Vec<usize> = (0..100).collect();
        let doubled = pool.map_chunks(&items, |chunk| {
            chunk.iter().map(|v| v * 2).collect::<Vec<_>>()
        });
        assert_eq!(doubled, (0..100).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn lane_range_claims_are_disjoint_and_exhaustive() {
        let range = LaneRange::new(3, 20);
        let mut popped = Vec::new();
        // Interleave owner pops and tail steals; every item must be claimed
        // exactly once.
        while let Some((lo, hi)) = range.pop_front() {
            popped.push((lo, hi));
            if let Some((lo, hi)) = range.steal_tail() {
                popped.push((lo, hi));
            }
        }
        let mut claimed: Vec<usize> = popped.iter().flat_map(|&(lo, hi)| lo..hi).collect();
        claimed.sort_unstable();
        assert_eq!(claimed, (3..20).collect::<Vec<_>>());
        assert!(popped.iter().all(|&(lo, hi)| hi - lo <= CLAIM_BLOCK));
    }

    #[test]
    fn evaluate_individuals_preserves_order_and_variables() {
        let xs = candidates(6);
        let pool = Executor::new(EvalBackend::Threads(2));
        let individuals = pool.evaluate_individuals(&Schaffer, xs.clone());
        assert_eq!(individuals.len(), xs.len());
        for (individual, x) in individuals.iter().zip(&xs) {
            assert_eq!(&individual.variables, x);
            assert_eq!(individual.objectives, Schaffer.evaluate(x));
        }
    }

    #[test]
    fn a_panicking_chunk_propagates_and_the_pool_survives() {
        let pool = Executor::new(EvalBackend::Threads(2));
        let items: Vec<usize> = (0..16).collect();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_chunks(&items, |chunk| {
                if chunk.contains(&12) {
                    panic!("oracle exploded");
                }
                chunk.to_vec()
            })
        }));
        assert!(outcome.is_err(), "the chunk panic must reach the caller");
        // The pool is still serviceable afterwards.
        let squares = pool.map_chunks(&items, |chunk| {
            chunk.iter().map(|v| v * v).collect::<Vec<_>>()
        });
        assert_eq!(squares.len(), items.len());
    }

    #[test]
    fn stats_report_configuration_and_return_to_idle() {
        let serial = Executor::serial();
        assert_eq!(
            serial.stats(),
            ExecutorStats {
                workers: 1,
                queued_chunks: 0,
                active_workers: 0
            }
        );

        let pool = Executor::new(EvalBackend::Threads(3));
        assert_eq!(pool.stats().workers, 3);
        assert_eq!(pool.stats().queued_chunks, 0);
        assert_eq!(pool.stats().active_workers, 0);

        // While a batch is in flight, at least the caller lane is active
        // (the closure runs *inside* map_chunks).
        let items: Vec<usize> = (0..64).collect();
        let seen_active = AtomicUsize::new(0);
        pool.map_chunks(&items, |chunk| {
            seen_active.fetch_max(pool.stats().active_workers, Ordering::Relaxed);
            chunk.to_vec()
        });
        assert!(seen_active.load(Ordering::Relaxed) >= 1);

        // Idle again once the batch completed.
        let after = pool.stats();
        assert_eq!(after.queued_chunks, 0);
        assert_eq!(after.active_workers, 0);
    }

    #[test]
    fn metrics_record_batches_without_changing_results() {
        let pool = Executor::new(EvalBackend::Threads(3));
        pool.set_metrics(MetricsRegistry::new());
        let xs = candidates(30);
        let pooled = pool.evaluate_batch(&Schaffer, &xs);
        assert_eq!(pooled, Executor::serial().evaluate_batch(&Schaffer, &xs));

        let snapshot = pool.metrics().expect("registry attached").snapshot();
        assert_eq!(snapshot.counter("exec.batches"), Some(1));
        assert_eq!(snapshot.counter("exec.candidates"), Some(30));
        // Every claimed run takes at most CLAIM_BLOCK items, so 30 items
        // produce at least ceil(30 / 8) = 4 runs; how they distribute over
        // lanes (and how many steals happen) depends on timing.
        let runs = snapshot.counter("exec.chunks").expect("runs recorded");
        assert!(
            runs >= 4,
            "30 items must take at least 4 claims, saw {runs}"
        );
        assert!(snapshot.counter("exec.inline_chunks").is_some());
        assert!(snapshot.counter("exec.steal_count").is_some());
        assert!(snapshot.counter("exec.idle_lane_turns").is_some());
        assert_eq!(snapshot.counter("phase.prepare_batch.calls"), Some(1));
        assert_eq!(snapshot.counter("phase.eval.calls"), Some(1));
        // Exactly the two spawned lane jobs wait in the queue.
        let waits = snapshot
            .histogram("exec.queue_wait_us")
            .expect("lane jobs record their queue wait");
        assert_eq!(waits.count, 2);
        let chunk_times = snapshot
            .histogram("exec.chunk_us")
            .expect("runs record their execution time");
        assert_eq!(chunk_times.count, runs);
        assert!(snapshot.counter("exec.lane00.busy_us").is_some());

        // A second registry is ignored: the first attachment wins.
        pool.set_metrics(MetricsRegistry::new());
        pool.evaluate_batch(&Schaffer, &xs);
        let again = pool.metrics().expect("registry attached").snapshot();
        assert_eq!(again.counter("exec.batches"), Some(2));
    }

    #[test]
    fn skewed_costs_trigger_steals_and_no_lane_starves() {
        // All the expensive items sit in lane 0's initial range: under
        // fixed chunking the other lanes would finish their cheap thirds
        // and idle while lane 0 grinds alone. With tail stealing they must
        // come back for lane 0's tail.
        let pool = Executor::new(EvalBackend::Threads(3));
        pool.set_metrics(MetricsRegistry::new());
        let items: Vec<u64> = (0..96).map(|i| if i < 32 { 400_000 } else { 10 }).collect();
        let expected: Vec<f64> = items.iter().map(|&iters| burn(iters)).collect();
        let spun = pool.map_chunks(&items, |chunk| {
            chunk.iter().map(|&iters| burn(iters)).collect::<Vec<_>>()
        });
        assert_eq!(spun, expected, "stealing must not change any slot");
        let snapshot = pool.metrics().expect("registry attached").snapshot();
        let steals = snapshot.counter("exec.steal_count").unwrap_or(0);
        assert!(
            steals >= 1,
            "cheap lanes must steal from the loaded lane's tail, saw {steals} steals"
        );
    }

    proptest! {
        /// Any batch shape, lane count and (cost-skew-induced) steal
        /// interleaving yields slot-exact results equal to serial.
        #[test]
        fn prop_stealing_is_slot_exact(
            len in 0usize..120,
            workers in 2usize..6,
            seed in 0u64..1000,
        ) {
            let pool = Executor::new(EvalBackend::Threads(workers));
            let items: Vec<u64> = (0..len as u64)
                // Pseudo-random per-item cost skew: some items ~30µs of
                // spin, most near-free, pattern varies with the seed.
                .map(|i| if (i * 2654435761 + seed) % 7 == 0 { 20_000 } else { 50 })
                .collect();
            let expected: Vec<(u64, f64)> =
                items.iter().map(|&iters| (iters, burn(iters))).collect();
            let pooled = pool.map_chunks(&items, |chunk| {
                chunk.iter().map(|&iters| (iters, burn(iters))).collect::<Vec<_>>()
            });
            prop_assert_eq!(pooled, expected);
        }
    }

    #[test]
    fn debug_formats_name_the_mode() {
        assert_eq!(format!("{:?}", Executor::serial()), "Executor::Serial");
        let pool = Executor::new(EvalBackend::Threads(2));
        assert_eq!(format!("{pool:?}"), "Executor::Pool(2-way)");
    }
}
