//! Per-generation telemetry for [`crate::engine::Driver`] runs.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What the driver learned from one completed generation.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationReport {
    /// 1-based index of the completed generation.
    pub generation: usize,
    /// Cumulative candidate evaluations spent so far (across the whole run,
    /// including initialization).
    pub evaluations: usize,
    /// Size of the current non-dominated front.
    pub front_size: usize,
    /// Hypervolume of the current front against the driver's reference
    /// point. NaN when no hypervolume could be computed (empty front or more
    /// than three objectives).
    pub hypervolume: f64,
    /// Wall-clock time this generation's step took. Telemetry only — it
    /// never influences the search and is not part of any checkpoint.
    pub wall_clock: Duration,
}

/// A callback the driver notifies after every generation.
///
/// Observers are telemetry sinks: they receive each [`GenerationReport`] in
/// order but cannot influence the run (use
/// [`crate::engine::StoppingRule`]s to end it). They are intentionally not
/// part of [`crate::engine::RunCheckpoint`]s — re-attach them after
/// [`crate::engine::Driver::resume`]. `Send` is required so a driver with
/// observers attached can run on a worker thread while a consumer (e.g. the
/// `pathway` CLI draining a [`ChannelObserver`]) renders the telemetry
/// elsewhere.
pub trait Observer: Send {
    /// Called once after each completed generation, in generation order.
    fn on_generation(&mut self, report: &GenerationReport);
}

/// Logs a one-line summary of every `every`-th generation to stderr.
#[derive(Debug, Clone)]
pub struct LogObserver {
    every: usize,
}

impl LogObserver {
    /// Logs every `every`-th generation (and generation 1). An `every` of
    /// zero is treated as 1.
    pub fn new(every: usize) -> Self {
        LogObserver {
            every: every.max(1),
        }
    }
}

impl Default for LogObserver {
    /// Logs every generation.
    fn default() -> Self {
        LogObserver::new(1)
    }
}

impl Observer for LogObserver {
    fn on_generation(&mut self, report: &GenerationReport) {
        if report.generation == 1 || report.generation.is_multiple_of(self.every) {
            eprintln!(
                "[gen {:>5}] evals {:>8}  front {:>4}  hv {:.6e}  ({:.1?})",
                report.generation,
                report.evaluations,
                report.front_size,
                report.hypervolume,
                report.wall_clock
            );
        }
    }
}

/// Collects every [`GenerationReport`] of a run.
///
/// The observer is a cheap handle around shared storage, so keep a clone and
/// read the collected history back after the driver finishes:
///
/// ```
/// use pathway_moo::engine::{Driver, HistoryObserver, StoppingRule};
/// use pathway_moo::{Nsga2, Nsga2Spec, problems::Schaffer};
///
/// let history = HistoryObserver::new();
/// let spec = Nsga2Spec { population: 16, ..Default::default() };
/// let mut driver = Driver::new(Nsga2::new(spec, 1), &Schaffer)
///     .with_observer(history.clone())
///     .with_stopping(StoppingRule::MaxGenerations(5));
/// driver.run();
/// assert_eq!(history.reports().len(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistoryObserver {
    reports: Arc<Mutex<Vec<GenerationReport>>>,
}

impl HistoryObserver {
    /// Creates an empty history.
    pub fn new() -> Self {
        HistoryObserver::default()
    }

    /// The reports collected so far, oldest first.
    pub fn reports(&self) -> Vec<GenerationReport> {
        self.reports
            .lock()
            .expect("history observer lock is never poisoned")
            .clone()
    }

    /// Number of reports collected so far.
    pub fn len(&self) -> usize {
        self.reports
            .lock()
            .expect("history observer lock is never poisoned")
            .len()
    }

    /// `true` if no generation has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Observer for HistoryObserver {
    fn on_generation(&mut self, report: &GenerationReport) {
        self.reports
            .lock()
            .expect("history observer lock is never poisoned")
            .push(report.clone());
    }
}

/// Streams every [`GenerationReport`] into an [`std::sync::mpsc`] channel.
///
/// This is the asynchronous observer sink: the driver (typically running on
/// a worker thread) stays decoupled from whoever renders the telemetry — a
/// CLI progress printer, a dashboard, a log shipper — which drains the
/// [`Receiver`] at its own pace. The channel is unbounded, so the driver
/// never blocks on a slow consumer, and a dropped receiver is tolerated:
/// reports are then silently discarded, because telemetry must never be able
/// to kill a run.
///
/// # Example
///
/// ```
/// use pathway_moo::engine::{ChannelObserver, Driver, StoppingRule};
/// use pathway_moo::{Nsga2, Nsga2Spec, problems::Schaffer};
///
/// let (observer, reports) = ChannelObserver::channel();
/// let spec = Nsga2Spec { population: 16, ..Default::default() };
/// std::thread::scope(|scope| {
///     scope.spawn(move || {
///         Driver::new(Nsga2::new(spec, 1), &Schaffer)
///             .with_observer(observer)
///             .with_stopping(StoppingRule::MaxGenerations(5))
///             .run();
///         // Dropping the driver (and with it the observer) closes the
///         // channel, ending the consumer's iteration below.
///     });
///     assert_eq!(reports.iter().count(), 5);
/// });
/// ```
#[derive(Debug)]
pub struct ChannelObserver {
    sender: Sender<GenerationReport>,
    disconnected: bool,
}

impl ChannelObserver {
    /// Creates a connected observer/receiver pair.
    pub fn channel() -> (Self, Receiver<GenerationReport>) {
        let (sender, receiver) = std::sync::mpsc::channel();
        (
            ChannelObserver {
                sender,
                disconnected: false,
            },
            receiver,
        )
    }

    /// `true` once a send has failed because the receiver was dropped.
    ///
    /// The observer itself keeps working (reports are discarded), but
    /// long-lived hosts — e.g. the `pathway serve` scheduler, which attaches
    /// one observer per `watch` client — use this to prune dead sinks
    /// instead of cloning reports for them forever.
    pub fn is_disconnected(&self) -> bool {
        self.disconnected
    }
}

impl Observer for ChannelObserver {
    fn on_generation(&mut self, report: &GenerationReport) {
        // A hung-up receiver is fine: the run outlives its telemetry sinks.
        // After the first failed send, skip even the report clone.
        if self.disconnected {
            return;
        }
        if self.sender.send(report.clone()).is_err() {
            self.disconnected = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(generation: usize) -> GenerationReport {
        GenerationReport {
            generation,
            evaluations: generation * 10,
            front_size: 4,
            hypervolume: 1.0,
            wall_clock: Duration::from_millis(1),
        }
    }

    #[test]
    fn history_handles_share_storage() {
        let history = HistoryObserver::new();
        let mut handle = history.clone();
        assert!(history.is_empty());
        handle.on_generation(&report(1));
        handle.on_generation(&report(2));
        assert_eq!(history.len(), 2);
        assert_eq!(history.reports()[1].generation, 2);
    }

    #[test]
    fn channel_observer_streams_reports_and_survives_a_dropped_receiver() {
        let (mut observer, receiver) = ChannelObserver::channel();
        observer.on_generation(&report(1));
        observer.on_generation(&report(2));
        assert_eq!(receiver.try_iter().count(), 2);
        assert!(!observer.is_disconnected());
        drop(receiver);
        // Telemetry must never kill the run: sends to a hung-up channel are
        // swallowed, and the hangup is latched for hosts that prune sinks.
        observer.on_generation(&report(3));
        assert!(observer.is_disconnected());
        observer.on_generation(&report(4));
        assert!(observer.is_disconnected());
    }

    #[test]
    fn driver_finishes_a_full_run_after_its_watcher_hangs_up() {
        // Regression for the serve scheduler's watch path: a client that
        // disconnects (drops its Receiver) before — or during — a run must
        // neither panic nor wedge the driver, and must not change the
        // trajectory.
        use crate::engine::{Driver, StoppingRule};
        use crate::problems::Schaffer;
        use crate::{Nsga2, Nsga2Spec};

        let spec = Nsga2Spec {
            population: 16,
            ..Default::default()
        };
        let stop = StoppingRule::MaxGenerations(6);

        let (observer, receiver) = ChannelObserver::channel();
        drop(receiver); // client hung up before the run even started
        let mut watched = Driver::new(Nsga2::new(spec, 7), &Schaffer)
            .with_observer(observer)
            .with_stopping(stop.clone());
        let watched_front = watched.run();
        assert_eq!(watched.generation(), 6);

        let mut unwatched = Driver::new(Nsga2::new(spec, 7), &Schaffer).with_stopping(stop);
        let unwatched_front = unwatched.run();
        assert_eq!(watched_front, unwatched_front);
    }

    #[test]
    fn log_observer_accepts_reports() {
        let mut log = LogObserver::new(0);
        log.on_generation(&report(1));
        let mut sparse = LogObserver::new(100);
        sparse.on_generation(&report(50)); // silently skipped
    }
}
