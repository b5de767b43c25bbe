//! One durable run: a spec, its checkpoint store and its driver.
//!
//! `pathway run`/`resume`, every sweep cell and every daemon job are a
//! [`Job`]: opened fresh or from a checkpoint, advanced one
//! [`step`](Job::step) at a time with a save at every `checkpoint_every`
//! multiple, and finished with a final save. Each step hands back the
//! generation's report and the outcome of its save, whose policy is the
//! caller's — the CLI warns and retries, a sweep stops with the error, the
//! daemon fails the job. Front files are the caller's business too.
//!
//! # Example
//!
//! ```
//! use pathway_core::{AnyProblem, Job};
//! use pathway_moo::engine::{CheckpointStore, RunSpec};
//!
//! let spec = RunSpec::from_text(
//!     "pathway-spec v1\n[problem]\nname = schaffer\n[optimizer]\nkind = nsga2\n\
//!      population = 12\n[run]\ncheckpoint_every = 4\n[stop]\nmax_generations = 10\n",
//! )
//! .unwrap();
//! let dir = std::env::temp_dir().join(format!("pathway-job-doc-{}", std::process::id()));
//! let store = CheckpointStore::create(&dir, &spec).unwrap();
//! let resume_from = store.latest_matching(&spec).unwrap().map(|stored| stored.checkpoint);
//! let problem = AnyProblem::from_spec(&spec.problem).unwrap();
//! let mut job = Job::open(&spec, store, &problem, None, resume_from).unwrap();
//! while !job.is_done() {
//!     let (report, saved) = job.step(); // saves gen-4 and gen-8
//!     saved.unwrap();
//!     assert!(report.front_size > 0);
//! }
//! job.save().unwrap(); // the final gen-10
//! assert!(!job.driver().front().is_empty());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use pathway_moo::engine::{
    AnyOptimizer, CheckpointError, CheckpointStore, Driver, EngineError, GenerationReport,
    MetricsRegistry, RunCheckpoint, RunSpec,
};
use pathway_moo::exec::Executor;
use pathway_moo::MultiObjectiveProblem;

use crate::registry::spec_driver;

/// A run spec, the [`CheckpointStore`] it persists into, and the
/// [`Driver`] advancing it.
pub struct Job<P: MultiObjectiveProblem> {
    spec: RunSpec,
    store: CheckpointStore,
    driver: Driver<P, AnyOptimizer>,
    metrics: Option<MetricsRegistry>,
}

impl<P: MultiObjectiveProblem> Job<P> {
    /// Opens a job over `store`: fresh when `checkpoint` is `None`,
    /// otherwise continuing it bit-identically. The driver comes from
    /// [`spec_driver`], with the same `problem` and `executor` rules.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when the checkpoint does not fit the spec's
    /// optimizer.
    pub fn open(
        spec: &RunSpec,
        store: CheckpointStore,
        problem: P,
        executor: Option<Arc<Executor>>,
        checkpoint: Option<RunCheckpoint>,
    ) -> Result<Self, EngineError> {
        Ok(Job {
            spec: spec.clone(),
            store,
            driver: spec_driver(spec, problem, executor, checkpoint)?,
            metrics: None,
        })
    }

    /// Attaches a telemetry registry to the driver (see
    /// [`Driver::with_metrics`]); every save then records a
    /// `phase.checkpoint_write.*` span.
    #[must_use]
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.driver = self.driver.with_metrics(registry.clone());
        self.metrics = Some(registry);
        self
    }

    /// The driver, for the front, the generation and evaluation counts and
    /// the problem.
    pub fn driver(&self) -> &Driver<P, AnyOptimizer> {
        &self.driver
    }

    /// Generations completed so far.
    pub fn generation(&self) -> usize {
        self.driver.generation()
    }

    /// `true` once the spec's stopping rule fires.
    pub fn is_done(&self) -> bool {
        self.driver.should_stop()
    }

    /// Runs exactly one generation (see [`Driver::step`]) and returns its
    /// report, with the outcome of the checkpoint saved when the generation
    /// ends on a `checkpoint_every` boundary (`Ok` when none was due).
    ///
    /// A failed save leaves the job usable: the generation ran
    /// ([`Job::generation`] says how far) and the next boundary saves
    /// again.
    #[must_use = "the boundary save may have failed"]
    pub fn step(&mut self) -> (GenerationReport, Result<(), CheckpointError>) {
        let report = self.driver.step();
        let every = self.spec.checkpoint_every;
        let saved = if every > 0 && report.generation.is_multiple_of(every) {
            self.save().map(drop)
        } else {
            Ok(())
        };
        (report, saved)
    }

    /// Writes a checkpoint of the current state — the final one of a
    /// finished run, or one taken on interruption — and returns its path.
    ///
    /// # Errors
    ///
    /// The store's write error.
    pub fn save(&self) -> Result<PathBuf, CheckpointError> {
        let _span = self.metrics.as_ref().map(|m| m.phase("checkpoint_write"));
        self.store.save(&self.driver.checkpoint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnyProblem;

    const SPEC: &str = "pathway-spec v1\n\n\
                        [problem]\nname = schaffer\n\n\
                        [optimizer]\nkind = nsga2\npopulation = 12\n\n\
                        [run]\nseed = 3\ncheckpoint_every = 4\nreference_point = 25, 25\n\n\
                        [stop]\nmax_generations = 14\n";

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pathway-job-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn stored_generations(store: &CheckpointStore) -> Vec<usize> {
        let mut generations: Vec<usize> = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|entry| CheckpointStore::generation_of(&entry.unwrap().path()))
            .collect();
        generations.sort_unstable();
        generations
    }

    /// Steps `job` `generations` times, panicking on a failed save.
    fn step_times(job: &mut Job<&AnyProblem>, generations: usize) {
        for _ in 0..generations {
            job.step().1.unwrap();
        }
    }

    #[test]
    fn boundaries_and_resume_match_an_uninterrupted_run() {
        let spec = RunSpec::from_text(SPEC).unwrap();
        let problem = AnyProblem::from_spec(&spec.problem).unwrap();
        let mut unsplit_driver = spec_driver(&spec, &problem, None, None).unwrap();
        let unsplit = unsplit_driver.run();

        let dir = temp_dir("resume");
        let store = CheckpointStore::create(&dir, &spec).unwrap();
        let mut job = Job::open(&spec, store.clone(), &problem, None, None).unwrap();
        step_times(&mut job, 6);
        assert_eq!(job.generation(), 6);
        assert_eq!(stored_generations(&store), vec![4]);
        drop(job);

        let stored = store.latest_matching(&spec).unwrap().expect("gen-4 saved");
        assert_eq!(stored.generation(), 4);
        let mut job = Job::open(
            &spec,
            store.clone(),
            &problem,
            None,
            Some(stored.checkpoint),
        )
        .expect("same spec");
        while !job.is_done() {
            step_times(&mut job, 1);
        }
        job.save().unwrap();
        assert_eq!(job.driver().front(), unsplit);
        assert_eq!(job.driver().checkpoint(), unsplit_driver.checkpoint());
        assert_eq!(stored_generations(&store), vec![4, 8, 12, 14]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_save_is_returned_and_the_job_carries_on() {
        let spec = RunSpec::from_text(SPEC).unwrap();
        let problem = AnyProblem::from_spec(&spec.problem).unwrap();
        let unsplit = spec_driver(&spec, &problem, None, None).unwrap().run();

        let dir = temp_dir("failed-save");
        let store = CheckpointStore::create(&dir, &spec).unwrap();
        let mut job = Job::open(&spec, store, &problem, None, None).unwrap();
        step_times(&mut job, 4);
        std::fs::remove_dir_all(&dir).unwrap();
        step_times(&mut job, 3);
        let (report, saved) = job.step();
        assert_eq!(report.generation, 8);
        assert!(saved.is_err());
        assert_eq!(job.generation(), 8);

        std::fs::create_dir_all(&dir).unwrap();
        step_times(&mut job, 4);
        assert!(dir.join("gen-12.ckpt").exists());
        while !job.is_done() {
            step_times(&mut job, 1);
        }
        job.save().unwrap();
        assert_eq!(job.driver().front(), unsplit);
        std::fs::remove_dir_all(&dir).ok();
    }
}
