//! The job scheduler: many concurrent studies as cooperative step-driven
//! actors on one shared [`Executor`].
//!
//! # Why actors instead of worker threads
//!
//! The obvious daemon shape — one blocking thread per job, each calling
//! `Driver::run` — composes badly with the shared evaluation pool: a job
//! thread that blocked inside the pool while other jobs' chunks saturate it
//! is exactly the nested-submission deadlock `Executor::map_chunks`
//! documents. The scheduler dissolves the problem structurally: **no thread
//! ever blocks for a job's lifetime**. Every job is a parked
//! [`Job`] whose driver owns its problem (the owned form of
//! [`pathway_core::spec_driver`]), and the scheduler thread advances them
//! round-robin, one [`Job::step`] per turn. Each step
//! submits its evaluation chunks to the shared pool from the scheduler
//! thread — the ordinary caller-participates path — so the pool's workers
//! only ever see leaf chunk closures, never a whole study. Fairness falls
//! out of the same structure: with turns interleaved generation-by-
//! generation, a 100-generation study cannot starve a 5-generation one,
//! and any number of concurrent jobs make progress on any number of
//! workers (including one).
//!
//! # Durability
//!
//! Every job lives under `<data-dir>/jobs/<id>/`:
//!
//! ```text
//! job.spec       canonical run-spec text (written atomically at submit)
//! checkpoints/   a CheckpointStore, saved at the spec's checkpoint_every
//! front.front    final front, pathway-front v1 (atomic; presence = completed)
//! cancelled      marker file (presence = cancelled)
//! failed         marker file holding the failure message
//! ```
//!
//! [`Scheduler::open`] rebuilds the whole job table from this layout, so a
//! `kill -9` loses at most the generations since each job's last
//! checkpoint boundary — and the engine's bit-identical resume guarantee
//! makes the replayed generations indistinguishable from never having been
//! interrupted.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathway_core::{sweep::render_front, validate_spec_against_problem, AnyProblem, Job};
use pathway_moo::engine::store::atomic_write;
use pathway_moo::engine::telemetry::duration_us;
use pathway_moo::engine::{
    CheckpointStore, GenerationReport, MetricsRegistry, RunCheckpoint, RunSpec, SweepSpec,
};
use pathway_moo::{Executor, Optimizer};

use crate::wire::{JobState, JobSummary};

/// Buckets for per-job turn latency (`serve.turn_us`): one generation of
/// one job, from sub-millisecond benchmarks to multi-second oracles.
const TURN_BOUNDS_US: [f64; 10] = [
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 50000.0, 250000.0, 1000000.0,
];

/// Buckets for scheduler-loop lag (`serve.loop_lag_us`): the gap between
/// consecutive turns spent draining commands and channel-parking.
const LAG_BOUNDS_US: [f64; 8] = [
    10.0, 50.0, 100.0, 500.0, 1000.0, 10000.0, 100000.0, 1000000.0,
];

/// Environment variable throttling the scheduler (milliseconds slept after
/// every job step). Exists for tests that need a window to observe — or
/// kill — a mid-flight daemon; unset or `0` in normal operation.
pub const STEP_SLEEP_ENV: &str = "PATHWAY_SERVE_STEP_SLEEP_MS";

/// One parked study: its job plus what the daemon reports about it.
struct JobSlot {
    id: String,
    spec: RunSpec,
    dir: PathBuf,
    problem_name: String,
    optimizer_kind: String,
    state: JobState,
    error: Option<String>,
    /// `Some` while running; dropped on completion/cancellation/failure.
    job: Option<Job<AnyProblem>>,
    /// One report stream per attached `watch` client; a stream whose
    /// receiver hung up is pruned at the next report.
    watchers: Vec<Sender<GenerationReport>>,
    generation: usize,
    evaluations: usize,
    front_size: usize,
}

impl JobSlot {
    fn summary(&self) -> JobSummary {
        JobSummary {
            id: self.id.clone(),
            state: self.state,
            error: self.error.clone(),
            problem: self.problem_name.clone(),
            optimizer: self.optimizer_kind.clone(),
            spec_hash: format!("{:#018x}", self.spec.content_hash()),
            generation: self.generation,
            max_generations: self.spec.stopping.max_generations,
            evaluations: self.evaluations,
            front_size: self.front_size,
            watchers: self.watchers.len(),
        }
    }
}

/// A command shipped from a connection thread to the scheduler thread.
///
/// Replies go back through per-command channels; a dropped reply receiver
/// (client hung up mid-command) is ignored.
pub enum Command {
    /// Register every job a spec document describes.
    Submit {
        /// Run-spec or sweep-spec text.
        text: String,
        /// Summaries of the registered jobs, or why registration failed.
        reply: Sender<Result<Vec<JobSummary>, String>>,
    },
    /// Snapshot every job.
    Status {
        /// All jobs in submission order.
        reply: Sender<Vec<JobSummary>>,
    },
    /// Attach a telemetry stream to a job.
    Watch {
        /// Job id.
        job: String,
        /// The job at attach time plus the report stream (closed already
        /// for terminal jobs).
        reply: Sender<Result<(JobSummary, Receiver<GenerationReport>), String>>,
    },
    /// Cancel a job.
    Cancel {
        /// Job id.
        job: String,
        /// The job after cancellation.
        reply: Sender<Result<JobSummary, String>>,
    },
    /// Fetch a job's front rendering.
    FetchFront {
        /// Job id.
        job: String,
        /// The job plus its `pathway-front v1` text.
        reply: Sender<Result<(JobSummary, String), String>>,
    },
    /// Checkpoint every running job, then stop the scheduler loop.
    Shutdown {
        /// Acknowledged once every running job is checkpointed.
        reply: Sender<()>,
        /// Signalled (or dropped) by the connection thread once the
        /// acknowledgement has been written to the client socket. The
        /// scheduler delays its exit — and with it process teardown —
        /// until then, so the reply can't lose a race with the daemon's
        /// death and strand the client on a closed connection.
        written: Receiver<()>,
    },
}

/// The scheduler: owns the job table and the scheduling loop.
///
/// Connection threads talk to a running scheduler through [`Command`]s
/// ([`Scheduler::run`]); tests drive it synchronously through
/// [`Scheduler::turn`] and the direct command methods — both paths share
/// the same implementation.
pub struct Scheduler {
    data_dir: PathBuf,
    executor: Arc<Executor>,
    jobs: Vec<JobSlot>,
    /// Round-robin position for the next turn.
    cursor: usize,
    /// Next job number (one past the highest ever used).
    next_job: usize,
    /// Test-only throttle; see [`STEP_SLEEP_ENV`].
    step_sleep: Duration,
    /// Daemon-wide telemetry: job drivers, the shared executor, and the
    /// scheduler loop itself all record here; `metrics` requests snapshot
    /// it live.
    metrics: MetricsRegistry,
    /// When the previous [`Scheduler::turn`] finished stepping a job;
    /// the gap to the next turn is `serve.loop_lag_us`.
    last_turn_ended: Option<Instant>,
}

impl Scheduler {
    /// Opens (or creates) a daemon data directory and restores every job
    /// recorded in it: completed/cancelled/failed jobs come back as
    /// terminal rows, in-flight jobs resume from their latest checkpoint —
    /// bit-identically, per the engine's resume guarantee — or from
    /// scratch if none was written yet.
    ///
    /// # Errors
    ///
    /// A message when the data directory cannot be created or scanned. A
    /// *single job* failing to restore does not fail the open; the job is
    /// surfaced as [`JobState::Failed`] instead.
    pub fn open(data_dir: impl Into<PathBuf>, executor: Arc<Executor>) -> Result<Self, String> {
        let data_dir = data_dir.into();
        let jobs_dir = data_dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir)
            .map_err(|err| format!("cannot create {}: {err}", jobs_dir.display()))?;
        let step_sleep = std::env::var(STEP_SLEEP_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(Duration::ZERO);
        let metrics = MetricsRegistry::new();
        // First-wins: a fresh daemon executor adopts this registry; an
        // executor that already reports elsewhere keeps doing so.
        executor.set_metrics(metrics.clone());
        let mut scheduler = Scheduler {
            data_dir,
            executor,
            jobs: Vec::new(),
            cursor: 0,
            next_job: 1,
            step_sleep,
            metrics,
            last_turn_ended: None,
        };
        scheduler.restore(&jobs_dir)?;
        Ok(scheduler)
    }

    /// The daemon-wide telemetry registry. Clone it before spawning the
    /// scheduler loop; snapshots taken from other threads merge every
    /// shard live.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn jobs_dir(&self) -> PathBuf {
        self.data_dir.join("jobs")
    }

    /// Rebuilds the job table from the on-disk layout.
    fn restore(&mut self, jobs_dir: &Path) -> Result<(), String> {
        let mut names: Vec<String> = std::fs::read_dir(jobs_dir)
            .map_err(|err| format!("cannot scan {}: {err}", jobs_dir.display()))?
            .filter_map(|entry| entry.ok())
            .filter(|entry| entry.path().is_dir())
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|name| parse_job_number(name).is_some())
            .collect();
        // Submission order == id order; restart must preserve both the
        // round-robin order and the id counter.
        names.sort();
        for name in names {
            let number = parse_job_number(&name).expect("filtered above");
            self.next_job = self.next_job.max(number + 1);
            let dir = jobs_dir.join(&name);
            match self.restore_job(&name, &dir) {
                Ok(slot) => self.jobs.push(slot),
                Err(message) => {
                    // A damaged job directory must not take the daemon (and
                    // every other tenant's studies) down with it.
                    eprintln!("serve: job {name} failed to restore: {message}");
                    self.jobs.push(failed_slot(&name, &dir, message));
                }
            }
        }
        Ok(())
    }

    fn restore_job(&self, id: &str, dir: &Path) -> Result<JobSlot, String> {
        let spec_path = dir.join("job.spec");
        let spec_text = std::fs::read_to_string(&spec_path)
            .map_err(|err| format!("cannot read {}: {err}", spec_path.display()))?;
        let spec = RunSpec::from_text(&spec_text).map_err(|err| format!("job.spec: {err}"))?;
        let store = CheckpointStore::create(dir.join("checkpoints"), &spec)
            .map_err(|err| format!("checkpoint store: {err}"))?;
        let mut slot = running_slot(id, dir, spec);

        // Terminal states are recorded as marker files.
        if let Ok(message) = std::fs::read_to_string(dir.join("failed")) {
            slot.state = JobState::Failed;
            slot.error = Some(message.trim_end().to_string());
            return Ok(slot);
        }
        let latest = store
            .latest_matching(&slot.spec)
            .map_err(|err| format!("{}: {err}", store.dir().display()))?;
        if let Some(stored) = &latest {
            // Stats for terminal jobs come from the last checkpoint.
            slot.generation = stored.generation();
            slot.evaluations = stored.evaluations();
        }
        if dir.join("cancelled").exists() {
            slot.state = JobState::Cancelled;
            return Ok(slot);
        }
        if dir.join("front.front").exists() {
            slot.state = JobState::Completed;
            slot.front_size = front_file_size(&dir.join("front.front"));
            return Ok(slot);
        }

        // Still in flight: reopen the job, resuming if possible.
        let problem = AnyProblem::from_spec(&slot.spec.problem).map_err(|err| err.to_string())?;
        let checkpoint = latest.map(|stored| stored.checkpoint);
        let job = self.open_job(&slot.spec, store, problem, checkpoint)?;
        slot.generation = job.generation();
        slot.job = Some(job);
        Ok(slot)
    }

    /// Builds a job on the shared executor and the daemon-wide registry —
    /// fresh for a submission, from the newest checkpoint on restore.
    fn open_job(
        &self,
        spec: &RunSpec,
        store: CheckpointStore,
        problem: AnyProblem,
        checkpoint: Option<RunCheckpoint>,
    ) -> Result<Job<AnyProblem>, String> {
        let executor = Some(Arc::clone(&self.executor));
        let job = Job::open(spec, store, problem, executor, checkpoint)
            .map_err(|err| format!("cannot resume: {err}"))?;
        Ok(job.with_metrics(self.metrics.clone()))
    }

    /// Registers every job a submitted document describes: one job for a
    /// run spec, one per cell for a sweep spec. Validation and problem
    /// construction happen before anything touches disk, so a rejected
    /// submission leaves no trace.
    ///
    /// # Errors
    ///
    /// A message when the text parses as neither document kind, a spec
    /// does not validate, or the job directory cannot be written.
    pub fn submit_text(&mut self, text: &str) -> Result<Vec<JobSummary>, String> {
        let specs: Vec<RunSpec> = if pathway_moo::engine::is_sweep_text(text) {
            let sweep = SweepSpec::from_text(text).map_err(|err| err.to_string())?;
            sweep.cells().iter().map(|cell| cell.spec.clone()).collect()
        } else {
            vec![RunSpec::from_text(text).map_err(|err| err.to_string())?]
        };
        let mut summaries = Vec::with_capacity(specs.len());
        for spec in specs {
            summaries.push(self.register(spec)?);
        }
        Ok(summaries)
    }

    fn register(&mut self, spec: RunSpec) -> Result<JobSummary, String> {
        // Build and validate first — a bad spec must not burn a job id or
        // leave a half-written directory.
        let problem = AnyProblem::from_spec(&spec.problem).map_err(|err| err.to_string())?;
        validate_spec_against_problem(&spec, &problem).map_err(|err| err.to_string())?;

        let id = format!("job-{:04}", self.next_job);
        let dir = self.jobs_dir().join(&id);
        let store = CheckpointStore::create(dir.join("checkpoints"), &spec)
            .map_err(|err| format!("{id}: checkpoint store: {err}"))?;
        // The durable submission record. Atomic write: restart scanning
        // never sees a torn spec.
        atomic_write(&dir.join("job.spec"), spec.to_text().as_bytes())
            .map_err(|err| format!("{id}: job.spec: {err}"))?;

        let job = self.open_job(&spec, store, problem, None)?;
        self.next_job += 1;
        let mut slot = running_slot(&id, &dir, spec);
        slot.job = Some(job);
        let summary = slot.summary();
        self.jobs.push(slot);
        Ok(summary)
    }

    /// Summaries of every job, in submission order.
    pub fn status(&self) -> Vec<JobSummary> {
        self.jobs.iter().map(JobSlot::summary).collect()
    }

    fn find(&mut self, job: &str) -> Result<usize, String> {
        self.jobs
            .iter()
            .position(|slot| slot.id == job)
            .ok_or_else(|| format!("no such job '{job}'"))
    }

    /// Attaches a telemetry stream to a job. For jobs already in a
    /// terminal state the returned receiver is closed, so a consumer sees
    /// an immediately-ending stream rather than an error.
    ///
    /// # Errors
    ///
    /// A message when the job does not exist.
    pub fn watch(&mut self, job: &str) -> Result<(JobSummary, Receiver<GenerationReport>), String> {
        let index = self.find(job)?;
        let (sender, receiver) = std::sync::mpsc::channel();
        let slot = &mut self.jobs[index];
        if slot.state == JobState::Running {
            slot.watchers.push(sender);
        }
        // Terminal job: the sender drops here, closing the channel.
        Ok((slot.summary(), receiver))
    }

    /// Cancels a running job: checkpoints its current state (for
    /// forensics), records its oracle counters, marks it terminal on disk,
    /// and drops its driver and watchers. Cancelling a terminal job is a
    /// harmless no-op.
    ///
    /// # Errors
    ///
    /// A message when the job does not exist.
    pub fn cancel(&mut self, job: &str) -> Result<JobSummary, String> {
        let index = self.find(job)?;
        let slot = &mut self.jobs[index];
        if slot.state == JobState::Running {
            if let Some(job) = &slot.job {
                let _ = job.save();
                job.driver().problem().record_oracle_metrics(&self.metrics);
            }
            let _ = atomic_write(&slot.dir.join("cancelled"), b"");
            slot.state = JobState::Cancelled;
            slot.job = None;
            slot.watchers.clear();
        }
        Ok(slot.summary())
    }

    /// A job's front in the `pathway-front v1` rendering.
    ///
    /// Completed jobs return the bytes of their durable `front.front` file
    /// — byte-identical to what `pathway run --front-out` writes for the
    /// same spec. Running jobs return a live snapshot of the current
    /// front.
    ///
    /// # Errors
    ///
    /// A message when the job does not exist, is cancelled/failed, or its
    /// front file cannot be read.
    pub fn fetch_front(&mut self, job: &str) -> Result<(JobSummary, String), String> {
        let index = self.find(job)?;
        let slot = &self.jobs[index];
        let front = match slot.state {
            JobState::Completed => {
                let path = slot.dir.join("front.front");
                std::fs::read_to_string(&path)
                    .map_err(|err| format!("cannot read {}: {err}", path.display()))?
            }
            JobState::Running => {
                let job = slot.job.as_ref().ok_or("job has no driver")?;
                render_front(&job.driver().front())
            }
            JobState::Cancelled => return Err(format!("job '{job}' was cancelled")),
            JobState::Failed => {
                return Err(format!(
                    "job '{job}' failed: {}",
                    slot.error.as_deref().unwrap_or("unknown error")
                ))
            }
        };
        Ok((self.jobs[index].summary(), front))
    }

    /// Advances the next runnable job by exactly one generation and
    /// returns `true`, or returns `false` when no job is runnable.
    ///
    /// This is the scheduling quantum: calling it in a loop interleaves
    /// all running jobs fairly (round-robin, one generation each), which
    /// is what the fairness tests drive directly.
    pub fn turn(&mut self) -> bool {
        let count = self.jobs.len();
        if count == 0 {
            return false;
        }
        let runnable = self
            .jobs
            .iter()
            .filter(|slot| slot.state == JobState::Running)
            .count();
        self.metrics
            .set_gauge("serve.jobs_runnable", runnable as f64);
        for offset in 0..count {
            let index = (self.cursor + offset) % count;
            if self.jobs[index].state == JobState::Running {
                self.cursor = (index + 1) % count;
                if let Some(ended) = self.last_turn_ended {
                    self.metrics.observe(
                        "serve.loop_lag_us",
                        &LAG_BOUNDS_US,
                        duration_us(ended.elapsed()) as f64,
                    );
                }
                let started = Instant::now();
                self.step_job(index);
                self.metrics.observe(
                    "serve.turn_us",
                    &TURN_BOUNDS_US,
                    duration_us(started.elapsed()) as f64,
                );
                self.last_turn_ended = Some(Instant::now());
                if !self.step_sleep.is_zero() {
                    std::thread::sleep(self.step_sleep);
                }
                return true;
            }
        }
        false
    }

    /// One generation of one job, with panic containment and checkpoint /
    /// completion bookkeeping.
    fn step_job(&mut self, index: usize) {
        let slot = &mut self.jobs[index];
        let Some(job) = slot.job.as_mut() else {
            slot.state = JobState::Failed;
            slot.error = Some("internal: running job without a driver".to_string());
            return;
        };
        if job.is_done() {
            self.complete(index);
            return;
        }
        // A panicking oracle fails its own job, never the daemon. The
        // driver may be mid-generation when it unwinds, so it is dropped
        // with the job.
        let report = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.step())) {
            Ok((report, Ok(()))) => report,
            Ok((_, Err(err))) => {
                // Durability is the contract; a job that cannot persist is
                // failed loudly rather than silently running volatile.
                self.fail(index, format!("checkpoint write failed: {err}"));
                return;
            }
            Err(payload) => {
                let message = format!("step panicked: {}", panic_message(&payload));
                self.fail(index, message);
                return;
            }
        };

        slot.generation = report.generation;
        slot.evaluations = report.evaluations;
        slot.front_size = report.front_size;
        // A watch client that hung up is dropped here, so it costs no
        // further clones; the run itself never notices.
        slot.watchers
            .retain(|watcher| watcher.send(report.clone()).is_ok());
        if job.is_done() {
            self.complete(index);
        }
    }

    /// Finishes a job: oracle counters, final checkpoint, durable front
    /// file, terminal state. Watchers drop here, which ends their streams.
    fn complete(&mut self, index: usize) {
        let slot = &mut self.jobs[index];
        let Some(job) = slot.job.take() else {
            return;
        };
        let driver = job.driver();
        // Oracle counters accumulate on the problem; dump them into the
        // registry once, now that the job's evaluation is over.
        driver.problem().record_oracle_metrics(&self.metrics);
        let front = driver.front();
        slot.generation = driver.generation();
        slot.evaluations = driver.optimizer().evaluations();
        slot.front_size = front.len();
        if let Err(err) = job.save() {
            let message = format!("final checkpoint write failed: {err}");
            self.fail(index, message);
            return;
        }
        // `front.front` doubles as the completion marker, so it must land
        // atomically *after* the final checkpoint is durable.
        if let Err(err) = atomic_write(
            &slot.dir.join("front.front"),
            render_front(&front).as_bytes(),
        ) {
            let message = format!("front write failed: {err}");
            self.fail(index, message);
            return;
        }
        slot.state = JobState::Completed;
        slot.watchers.clear();
    }

    /// Marks a job failed: terminal state in memory and on disk, driver
    /// and watchers dropped.
    fn fail(&mut self, index: usize, message: String) {
        let slot = &mut self.jobs[index];
        eprintln!("serve: job {} failed: {message}", slot.id);
        let _ = atomic_write(&slot.dir.join("failed"), message.as_bytes());
        slot.state = JobState::Failed;
        slot.error = Some(message);
        slot.job = None;
        slot.watchers.clear();
    }

    /// Handles one command; returns `true` when it was [`Command::Shutdown`].
    fn handle(&mut self, command: Command) -> bool {
        match command {
            Command::Submit { text, reply } => {
                let _ = reply.send(self.submit_text(&text));
            }
            Command::Status { reply } => {
                let _ = reply.send(self.status());
            }
            Command::Watch { job, reply } => {
                let _ = reply.send(self.watch(&job));
            }
            Command::Cancel { job, reply } => {
                let _ = reply.send(self.cancel(&job));
            }
            Command::FetchFront { job, reply } => {
                let _ = reply.send(self.fetch_front(&job));
            }
            Command::Shutdown { reply, written } => {
                // Clean shutdown loses nothing: every running job is
                // checkpointed at its current generation.
                for slot in &self.jobs {
                    if slot.state == JobState::Running {
                        if let Some(job) = &slot.job {
                            let _ = job.save();
                        }
                    }
                }
                let _ = reply.send(());
                // Hold the loop (and therefore the process) open until the
                // reply has reached the socket; a connection thread that
                // died drops its sender and unblocks this immediately. The
                // timeout is a backstop against a wedged client write.
                let _ = written.recv_timeout(Duration::from_secs(5));
                return true;
            }
        }
        false
    }

    /// The scheduler loop: drain pending commands, advance one job one
    /// generation, repeat; block on the command channel while no job is
    /// runnable. Returns after [`Command::Shutdown`] or once every command
    /// sender is gone.
    pub fn run(mut self, commands: Receiver<Command>) {
        loop {
            // Commands between turns: clients never wait behind more than
            // one generation step of any job.
            loop {
                match commands.try_recv() {
                    Ok(command) => {
                        if self.handle(command) {
                            return;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }
            if !self.turn() {
                // Nothing runnable: park on the channel instead of
                // spinning. The timeout re-checks runnability so a
                // freshly-submitted job starts promptly even under command
                // bursts.
                match commands.recv_timeout(Duration::from_millis(100)) {
                    Ok(command) => {
                        if self.handle(command) {
                            return;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        }
    }
}

/// `job-0042` → `Some(42)`.
fn parse_job_number(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("job-")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// A running slot with no job yet and zeroed stats.
fn running_slot(id: &str, dir: &Path, spec: RunSpec) -> JobSlot {
    JobSlot {
        id: id.to_string(),
        problem_name: spec.problem.name.clone(),
        optimizer_kind: spec.optimizer.kind().to_string(),
        spec,
        dir: dir.to_path_buf(),
        state: JobState::Running,
        error: None,
        job: None,
        watchers: Vec::new(),
        generation: 0,
        evaluations: 0,
        front_size: 0,
    }
}

/// A terminal slot for a job directory that could not be restored.
fn failed_slot(id: &str, dir: &Path, message: String) -> JobSlot {
    JobSlot {
        problem_name: "?".to_string(),
        optimizer_kind: "?".to_string(),
        state: JobState::Failed,
        error: Some(message),
        ..running_slot(id, dir, RunSpec::default())
    }
}

/// Lines in a `pathway-front v1` file minus the header.
fn front_file_size(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .map(|text| text.lines().count().saturating_sub(1))
        .unwrap_or(0)
}

/// Best-effort rendering of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
