//! Serve-crate integration tests: scheduler fairness, kill-and-restore
//! durability, and a full in-process TCP round-trip.

use std::path::PathBuf;
use std::sync::Arc;

use pathway_moo::{EvalBackend, Executor};
use pathway_serve::{Client, JobState, Scheduler, ServeConfig, Server};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pathway-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(seed: u64, max_generations: usize, checkpoint_every: usize) -> String {
    format!(
        "pathway-spec v1\n\n\
         [problem]\nname = schaffer\n\n\
         [optimizer]\nkind = nsga2\npopulation = 16\n\n\
         [run]\nseed = {seed}\ncheckpoint_every = {checkpoint_every}\nreference_point = 25, 25\n\n\
         [stop]\nmax_generations = {max_generations}\n"
    )
}

/// The fairness contract: three jobs on a *serial* executor (one lane, so
/// concurrent jobs > worker threads) advance in lockstep, one generation
/// per turn, regardless of how long each job's budget is.
#[test]
fn round_robin_interleaves_jobs_fairly_on_one_lane() {
    let dir = temp_dir("fair");
    let mut scheduler = Scheduler::open(&dir, Arc::new(Executor::serial())).expect("open");
    scheduler.submit_text(&spec(1, 40, 0)).expect("submit long");
    scheduler.submit_text(&spec(2, 3, 0)).expect("submit short");
    scheduler.submit_text(&spec(3, 40, 0)).expect("submit long");

    // One round of turns: every job moves exactly one generation.
    for _ in 0..3 {
        assert!(scheduler.turn(), "a job should be runnable");
    }
    let after_one_round = scheduler.status();
    assert_eq!(after_one_round.len(), 3);
    for job in &after_one_round {
        assert_eq!(
            job.generation, 1,
            "{} should have exactly one generation after one round",
            job.id
        );
    }

    // Two more rounds: the short job (3 generations) completes and drops
    // out of the rotation; the long jobs keep advancing evenly.
    for _ in 0..6 {
        scheduler.turn();
    }
    let status = scheduler.status();
    assert_eq!(status[1].state, JobState::Completed);
    assert_eq!(status[1].generation, 3);
    assert_eq!(status[0].generation, status[2].generation);
    assert!(status[0].generation >= 3, "long jobs kept making progress");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The durability contract at the scheduler level: drop a scheduler
/// mid-flight (no shutdown checkpoint — the moral equivalent of `kill
/// -9`), reopen the same data dir, and the resumed job's final front is
/// byte-identical to an uninterrupted run of the same spec.
#[test]
fn reopened_scheduler_resumes_and_matches_an_uninterrupted_run() {
    let interrupted = temp_dir("resume-a");
    let pristine = temp_dir("resume-b");
    let text = spec(7, 8, 2);

    // Uninterrupted baseline.
    let mut baseline = Scheduler::open(&pristine, Arc::new(Executor::serial())).expect("open");
    let id = baseline.submit_text(&text).expect("submit")[0].id.clone();
    while baseline.turn() {}
    let (summary, want_front) = baseline.fetch_front(&id).expect("baseline front");
    assert_eq!(summary.state, JobState::Completed);

    // Interrupted run: 5 of 8 generations (last checkpoint at 4), then
    // the scheduler is dropped with the job mid-flight.
    let mut first = Scheduler::open(&interrupted, Arc::new(Executor::serial())).expect("open");
    let id = first.submit_text(&text).expect("submit")[0].id.clone();
    for _ in 0..5 {
        assert!(first.turn());
    }
    assert_eq!(first.status()[0].generation, 5);
    drop(first);

    // Restart: the job comes back running from generation 4 and finishes
    // with exactly the baseline's front bytes.
    let mut second = Scheduler::open(&interrupted, Arc::new(Executor::serial())).expect("reopen");
    let restored = second.status();
    assert_eq!(restored.len(), 1);
    assert_eq!(restored[0].state, JobState::Running);
    assert_eq!(
        restored[0].generation, 4,
        "resume starts at the last checkpoint boundary"
    );
    while second.turn() {}
    let (summary, got_front) = second.fetch_front(&id).expect("resumed front");
    assert_eq!(summary.state, JobState::Completed);
    assert_eq!(summary.generation, 8);
    assert_eq!(
        got_front, want_front,
        "kill + resume must be invisible in the final front"
    );

    let _ = std::fs::remove_dir_all(&interrupted);
    let _ = std::fs::remove_dir_all(&pristine);
}

/// Watch streams are telemetry only: a client that hangs up, before the
/// run or in the middle of it, is pruned at the next report, the clients
/// still attached see every generation, and the job completes with the
/// same front as an unwatched run.
#[test]
fn a_watcher_that_hangs_up_is_pruned_and_the_front_is_unchanged() {
    let watched_dir = temp_dir("watch-drop-a");
    let unwatched_dir = temp_dir("watch-drop-b");
    let text = spec(11, 8, 4);

    let mut unwatched =
        Scheduler::open(&unwatched_dir, Arc::new(Executor::serial())).expect("open");
    let id = unwatched.submit_text(&text).expect("submit")[0].id.clone();
    while unwatched.turn() {}
    let (_, want_front) = unwatched.fetch_front(&id).expect("unwatched front");

    let mut scheduler = Scheduler::open(&watched_dir, Arc::new(Executor::serial())).expect("open");
    let id = scheduler.submit_text(&text).expect("submit")[0].id.clone();
    let (_, staying) = scheduler.watch(&id).expect("watch");
    let (_, early) = scheduler.watch(&id).expect("watch");
    let (summary, leaving) = scheduler.watch(&id).expect("watch");
    assert_eq!(summary.watchers, 3);
    drop(early); // hung up before the first generation
    assert!(scheduler.turn());
    assert_eq!(scheduler.status()[0].watchers, 2);

    assert!(scheduler.turn());
    assert!(scheduler.turn());
    let seen: Vec<usize> = leaving.try_iter().map(|report| report.generation).collect();
    assert_eq!(seen, vec![1, 2, 3]);
    drop(leaving); // hung up mid-run
    assert!(scheduler.turn());
    assert_eq!(
        scheduler.status()[0].watchers,
        1,
        "the hung-up watcher is pruned at the next report"
    );

    while scheduler.turn() {}
    let (summary, got_front) = scheduler.fetch_front(&id).expect("watched front");
    assert_eq!(summary.state, JobState::Completed);
    assert_eq!(summary.generation, 8);
    assert_eq!(got_front, want_front, "watchers must not change the front");
    // The stream closes when the job completes.
    let generations: Vec<usize> = staying.iter().map(|report| report.generation).collect();
    assert_eq!(generations, (1..=8).collect::<Vec<_>>());

    let _ = std::fs::remove_dir_all(&watched_dir);
    let _ = std::fs::remove_dir_all(&unwatched_dir);
}

/// Cancel and error paths at the scheduler level.
#[test]
fn cancel_is_terminal_and_unknown_jobs_are_reported() {
    let dir = temp_dir("cancel");
    let mut scheduler = Scheduler::open(&dir, Arc::new(Executor::serial())).expect("open");
    let id = scheduler.submit_text(&spec(1, 40, 0)).expect("submit")[0]
        .id
        .clone();
    scheduler.turn();

    let cancelled = scheduler.cancel(&id).expect("cancel");
    assert_eq!(cancelled.state, JobState::Cancelled);
    // Cancel is idempotent, a cancelled front is an error, and the job no
    // longer takes turns.
    assert_eq!(
        scheduler.cancel(&id).expect("re-cancel").state,
        JobState::Cancelled
    );
    assert!(scheduler.fetch_front(&id).is_err());
    assert!(!scheduler.turn(), "no runnable job remains");
    assert!(scheduler.cancel("job-9999").is_err());
    assert!(scheduler.submit_text("not a spec").is_err());

    let _ = std::fs::remove_dir_all(&dir);
}

/// The full TCP path: submit over a socket, watch telemetry to the end,
/// check status and executor health, fetch the front, shut down cleanly.
#[test]
fn tcp_round_trip_submits_watches_and_fetches() {
    let dir = temp_dir("tcp");
    std::fs::create_dir_all(&dir).expect("data dir");
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        executor: Arc::new(Executor::new(EvalBackend::Threads(2))),
        quiet: true,
    })
    .expect("start server");
    let addr = server.addr().to_string();
    assert_eq!(
        pathway_serve::read_endpoint(&dir).expect("endpoint file"),
        addr
    );

    let mut client = Client::connect(&addr).expect("connect");
    let pong = client.ping().expect("ping");
    assert_eq!(pong.server, "pathway-serve");
    assert_eq!(pong.version, 1);

    let jobs = client.submit(&spec(11, 6, 2)).expect("submit");
    assert_eq!(jobs.len(), 1);
    let id = jobs[0].id.clone();

    // Watch from a second connection while the submitting connection
    // stays usable; generations arrive in order and the stream ends in a
    // terminal state.
    let mut watcher = Client::connect(&addr).expect("connect watcher");
    let mut seen = Vec::new();
    let mut evaluation_counts = Vec::new();
    let end = watcher
        .watch(&id, |event| {
            seen.push(event.generation);
            evaluation_counts.push(event.evaluations);
        })
        .expect("watch");
    assert!(seen.windows(2).all(|w| w[0] < w[1]), "ordered: {seen:?}");
    assert!(
        evaluation_counts.windows(2).all(|w| w[0] < w[1]),
        "evaluations are cumulative: {evaluation_counts:?}"
    );
    assert_eq!(end.state, JobState::Completed);

    let status = client.status().expect("status");
    assert!(status.executor.workers >= 2);
    assert_eq!(status.jobs.len(), 1);
    assert_eq!(status.jobs[0].state, JobState::Completed);
    assert_eq!(status.jobs[0].generation, 6);

    // The live telemetry snapshot is a schema-valid pathway-profile
    // document (the client checks it on receipt) with the daemon's job
    // totals.
    let check = client.metrics().expect("metrics");
    assert_eq!(check.source, "serve");
    assert_eq!(check.generations, 6);
    assert!(
        check.phases.iter().any(|phase| phase.name == "generation"),
        "driver phases flow into the daemon registry: {:?}",
        check.phases
    );
    assert!(
        check
            .phases
            .iter()
            .any(|phase| phase.name == "checkpoint_write"),
        "checkpoint writes are phased: {:?}",
        check.phases
    );

    let (summary, front) = client.fetch_front(&id).expect("fetch front");
    assert_eq!(summary.state, JobState::Completed);
    assert!(front.starts_with("pathway-front v1"));
    assert!(front.lines().count() > 1, "front has points");

    // Unknown jobs fail with a server-side message, and the connection
    // survives to serve the next request.
    assert!(client.fetch_front("job-9999").is_err());
    client.shutdown().expect("shutdown");
    server.join();

    let _ = std::fs::remove_dir_all(&dir);
}

/// A sweep document expands into one job per cell, all sharing the
/// executor.
#[test]
fn sweep_submission_registers_one_job_per_cell() {
    let dir = temp_dir("sweep");
    let mut scheduler = Scheduler::open(&dir, Arc::new(Executor::serial())).expect("open");
    let sweep = "pathway-sweep v1\n\n\
                 [sweep]\nrun.seed = 1 | 2 | 3\n\n\
                 [problem]\nname = schaffer\n\n\
                 [optimizer]\nkind = nsga2\npopulation = 16\n\n\
                 [run]\nseed = 1\n\n\
                 [stop]\nmax_generations = 2\n";
    let jobs = scheduler.submit_text(sweep).expect("submit sweep");
    assert_eq!(jobs.len(), 3);
    while scheduler.turn() {}
    assert!(scheduler
        .status()
        .iter()
        .all(|job| job.state == JobState::Completed));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The oracle's counters reach the daemon's registry: a finished
/// `leaf-design-ode` job records its `ode.*` work once, as `pathway run
/// --profile-out` and sweeps do.
#[test]
fn a_finished_job_records_its_oracle_counters() {
    let dir = temp_dir("oracle-counters");
    let mut scheduler = Scheduler::open(&dir, Arc::new(Executor::serial())).expect("open");
    let spec = "pathway-spec v1\n\n\
                [problem]\nname = leaf-design-ode\nera = present\nexport = low\n\n\
                [optimizer]\nkind = nsga2\npopulation = 8\n\n\
                [run]\nseed = 3\ncheckpoint_every = 0\n\n\
                [stop]\nmax_generations = 2\n";
    scheduler.submit_text(spec).expect("submit");
    while scheduler.turn() {}
    assert_eq!(scheduler.status()[0].state, JobState::Completed);
    let steps = scheduler.metrics().snapshot().counter("ode.steps");
    assert!(
        steps.is_some_and(|steps| steps > 0),
        "ode.steps = {steps:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
