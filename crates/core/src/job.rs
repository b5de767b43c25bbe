//! One durable run: a spec, its checkpoint store and its driver.
//!
//! `pathway run`/`resume`, every sweep cell and every daemon job are a
//! [`Job`]: opened fresh or from a checkpoint, advanced boundary by
//! boundary with a save at every `checkpoint_every` multiple, and finished
//! with a final save. Every save outcome goes back to the caller, whose
//! policy it is — the CLI warns and retries, a sweep stops with the error,
//! the daemon fails the job. Front files are the caller's business too.
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
//!     job.advance(usize::MAX).unwrap(); // saves gen-4 and gen-8
//! }
//! job.save().unwrap(); // the final gen-10
//! assert!(!job.driver().front().is_empty());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use pathway_moo::engine::{
    AnyOptimizer, CheckpointError, CheckpointStore, Driver, EngineError, GenerationReport,
    MetricsRegistry, Observer, RunCheckpoint, RunSpec,
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

    /// Attaches an observer to the driver (see [`Driver::with_observer`]).
    #[must_use]
    pub fn with_observer<O: Observer + 'static>(mut self, observer: O) -> Self {
        self.driver = self.driver.with_observer(observer);
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

    /// Runs until the next `checkpoint_every` boundary, the stopping rule,
    /// or `limit` generations, whichever comes first, and returns how many
    /// generations ran. Saves a checkpoint when it stops on a boundary.
    ///
    /// # Errors
    ///
    /// The boundary save's error. The generations ran regardless
    /// ([`Job::generation`] says how far) and the job stays usable: the
    /// next boundary saves again.
    pub fn advance(&mut self, limit: usize) -> Result<usize, CheckpointError> {
        let every = self.spec.checkpoint_every;
        let mut budget = limit;
        if every > 0 {
            budget = budget.min(every - self.driver.generation() % every);
        }
        let ran = self.driver.run_for(budget);
        if ran > 0 {
            self.save_at_boundary()?;
        }
        Ok(ran)
    }

    /// Runs exactly one generation and returns its report, saving a
    /// checkpoint when it ends on a `checkpoint_every` boundary.
    ///
    /// # Errors
    ///
    /// As [`Job::advance`]: the generation ran, the save failed.
    pub fn step(&mut self) -> Result<GenerationReport, CheckpointError> {
        let report = self.driver.step();
        self.save_at_boundary()?;
        Ok(report)
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

    fn save_at_boundary(&self) -> Result<(), CheckpointError> {
        let every = self.spec.checkpoint_every;
        if every > 0 && self.driver.generation().is_multiple_of(every) {
            self.save()?;
        }
        Ok(())
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

    #[test]
    fn boundaries_and_resume_match_an_uninterrupted_run() {
        let spec = RunSpec::from_text(SPEC).unwrap();
        let problem = AnyProblem::from_spec(&spec.problem).unwrap();
        let unsplit = spec_driver(&spec, &problem, None, None).unwrap().run();

        let dir = temp_dir("resume");
        let store = CheckpointStore::create(&dir, &spec).unwrap();
        let mut job = Job::open(&spec, store.clone(), &problem, None, None).unwrap();
        // A limit of 6 crosses the gen-4 boundary: the job stops there, then
        // runs on to the 6-generation limit.
        assert_eq!(job.advance(6).unwrap(), 4);
        assert_eq!(job.advance(2).unwrap(), 2);
        assert_eq!(job.generation(), 6);
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
            job.advance(usize::MAX).unwrap();
        }
        job.save().unwrap();
        assert_eq!(job.driver().front(), unsplit);
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
        assert_eq!(job.advance(usize::MAX).unwrap(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(job.advance(usize::MAX).is_err());
        assert_eq!(job.generation(), 8);

        std::fs::create_dir_all(&dir).unwrap();
        let report = job.step().unwrap();
        assert_eq!(report.generation, 9);
        assert_eq!(job.advance(usize::MAX).unwrap(), 3);
        assert!(dir.join("gen-12.ckpt").exists());
        while !job.is_done() {
            job.advance(usize::MAX).unwrap();
        }
        job.save().unwrap();
        assert_eq!(job.driver().front(), unsplit);
        std::fs::remove_dir_all(&dir).ok();
    }
}
