//! `pathway` — the command-line front-end for declarative run specs.
//!
//! Runs are *data* here: a [`RunSpec`] text file fully describes problem,
//! optimizer, seed, stopping rules and checkpoint cadence, so anything the
//! engine can do is launchable without recompiling:
//!
//! ```text
//! pathway run examples/quickstart.spec          # execute a spec end-to-end
//! pathway resume checkpoints/gen-50.ckpt        # continue a run, bit-identically
//! pathway sweep examples/benchmarks.sweep       # expand a grid, run every cell
//! pathway ledger-check BENCH_sweep.json         # validate a sweep ledger
//! pathway profile-check BENCH_profile.json      # validate a telemetry profile
//! pathway profile-diff old.json new.json        # per-phase perf deltas + gate
//! pathway inspect examples/quickstart.spec      # validate + show canonical form
//! pathway inspect checkpoints/gen-50.ckpt       # show checkpoint header + spec
//! pathway list-problems                         # the problem registry
//! pathway serve studies/                        # multi-tenant study daemon
//! pathway submit spec.spec --data-dir studies/  # schedule a job on the daemon
//! ```
//!
//! The `serve` family (`serve`, `submit`, `status`, `metrics`, `watch`,
//! `cancel`, `fetch-front`, `shutdown`) fronts the [`pathway_serve`] daemon: many
//! concurrent studies on one shared evaluation pool, durable under
//! `kill -9`, with per-generation telemetry streamed to any number of
//! watchers. Client commands find the daemon via `--addr <host:port>` or
//! `--data-dir <dir>` (which reads the address the daemon recorded in
//! `<dir>/endpoint`).
//!
//! `run` steps its [`Job`] one generation at a time, prints a progress line
//! from the report each step returns, writes durable checkpoints every
//! `checkpoint_every` generations plus one at the end, and `resume`
//! continues any of them to a final front that is bit-identical to the
//! uninterrupted run — rejecting, by spec content hash, checkpoints that
//! belong to a different spec. `sweep` scales the same guarantees to a
//! whole grid of runs sharing one persistent evaluation pool, with an
//! append-only results ledger that lets a killed sweep resume only its
//! incomplete cells.
//!
//! Arguments arrive as [`OsString`]s and stay that way until their meaning
//! is known: path-valued flags convert to [`PathBuf`] losslessly (non-UTF-8
//! file names work), numeric flags demand valid UTF-8 digits and fail
//! loudly instead of parsing a lossily converted string.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathway_core::jsonlite::JsonValue;
use pathway_core::obs::{
    check_phase_balance, check_profile_regression, diff_profiles, write_profile_file, Profile,
};
use pathway_core::sweep::{run_sweep, write_front_file, LedgerDocument, SweepEvent, SweepReport};
use pathway_core::{validate_spec_against_problem, AnyProblem, Job, PROBLEM_CATALOG};
use pathway_moo::engine::store::atomic_write;
use pathway_moo::engine::telemetry::duration_us;
use pathway_moo::engine::{
    is_sweep_text, CheckpointStore, GenerationReport, MetricsRegistry, RunSpec, StoredCheckpoint,
    SweepSpec,
};
use pathway_moo::exec::Executor;
use pathway_moo::{EvalBackend, ExecutorStats, Individual, Optimizer};
use pathway_serve::{read_endpoint, Client, GenerationEvent, JobSummary, ServeConfig, Server};

const USAGE: &str = "\
pathway — declarative driver for robust-pathway-design runs

USAGE:
    pathway run <spec-file> [OPTIONS]       execute a run spec end-to-end
    pathway resume <checkpoint> [OPTIONS]   continue a checkpointed run
    pathway sweep <sweep-file> [OPTIONS]    expand a grid spec, run every cell,
                                            record results in a durable ledger
    pathway ledger-check <BENCH_sweep.json> validate a sweep ledger's schema
    pathway profile-check <profile.json>    validate a telemetry profile's
                                            schema and phase-timing balance
    pathway profile-diff <old.json> <new.json> [--threshold <ratio>]
                                            per-phase cost deltas between two
                                            profiles (normalized per
                                            evaluation); exits non-zero when a
                                            gated phase regresses past the
                                            threshold (default 4.0)
    pathway inspect <file>                  describe a spec, sweep or checkpoint
    pathway list-problems                   show the problem registry

    pathway serve <data-dir> [OPTIONS]      run the study daemon: concurrent
                                            jobs on one shared pool, durable
                                            under kill -9
    pathway submit <spec-file> [TARGET]     schedule a run or sweep on a daemon
    pathway status [TARGET]                 daemon jobs + executor health
    pathway metrics [TARGET]                live daemon telemetry snapshot as a
                                            pathway-profile document
                                            (--out <file> writes it)
    pathway watch <job> [TARGET]            stream a job's telemetry
    pathway cancel <job> [TARGET]           cancel a job
    pathway fetch-front <job> [TARGET]      fetch a job's front (--out <file>)
    pathway shutdown [TARGET]               checkpoint all jobs, stop the daemon

OPTIONS (run / resume):
    --checkpoint-dir <dir>   where checkpoints are written
                             (default: '<spec>.checkpoints' next to the spec,
                              or the checkpoint's own directory on resume)
    --stop-after <n>         stop (with a final checkpoint) once <n> total
                             generations are done — simulates interruption
    --threads <n>            evaluate on one persistent pool of <n> worker
                             threads for the whole invocation, overriding the
                             spec's backend (0 or 1 = serial); results are
                             bit-identical either way, only wall-clock changes
    --front-out <file>       write the final front, bit-exactly, to <file>
    --profile-out <file>     write a pathway-profile telemetry document
                             (phase timings, oracle + executor counters) when
                             the run finishes; telemetry is off otherwise and
                             never changes results either way
    --spec <file>            (resume) verify the checkpoint against this spec
    --quiet                  no per-generation progress output

OPTIONS (sweep):
    --out-dir <dir>          sweep output root — holds ledger.md,
                             BENCH_sweep.json, per-cell checkpoints and fronts
                             (default: '<sweep>.results' next to the sweep);
                             a running sweep locks it, and a second sweep
                             into the same directory fails at once
    --stop-after <n>         stop once <n> generations have run across the
                             grid in this invocation; re-running the same
                             sweep resumes only its incomplete cells
    --profile-out <file>     as above, aggregated across every cell
    --threads <n> / --quiet  as above

OPTIONS (serve):
    --listen <addr>          bind address (default 127.0.0.1:7757; port 0
                             picks a free port); the bound address is
                             recorded in <data-dir>/endpoint
    --threads <n>            shared evaluation pool width for all jobs
                             (0 or 1 = serial; default serial)
    --quiet                  no startup line

TARGET (daemon client commands):
    --addr <host:port>       daemon address, explicitly
    --data-dir <dir>         read the address from <dir>/endpoint
                             (exactly one of the two is required)
    --out <file>             (fetch-front) write the front to <file>
                             bit-exactly instead of stdout

SPEC KEYS ([run] section) controlling checkpoint retention:
    checkpoint_keep_last = <k>    keep only the newest <k> checkpoints
    checkpoint_keep_every = <m>   additionally keep every generation
                                  divisible by <m>
                             (default: unset — every checkpoint is kept)
";

fn main() -> ExitCode {
    // args_os, not args: the latter panics outright on non-UTF-8 argv
    // entries, which are legal on every Unix.
    let args: Vec<OsString> = std::env::args_os().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

enum CliError {
    /// Bad invocation: print usage, exit 2.
    Usage(String),
    /// The command itself failed: print the message, exit 1.
    Failed(String),
}

impl CliError {
    fn failed(message: impl std::fmt::Display) -> Self {
        CliError::Failed(message.to_string())
    }
}

fn dispatch(args: &[OsString]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("no command given".to_string()));
    };
    match command.to_str() {
        Some("run") => command_run(&args[1..]),
        Some("resume") => command_resume(&args[1..]),
        Some("sweep") => command_sweep(&args[1..]),
        Some("ledger-check") => command_ledger_check(&args[1..]),
        Some("profile-check") => command_profile_check(&args[1..]),
        Some("profile-diff") => command_profile_diff(&args[1..]),
        Some("inspect") => command_inspect(&args[1..]),
        Some("list-problems") => command_list_problems(&args[1..]),
        Some("serve") => command_serve(&args[1..]),
        Some("submit") => command_submit(&args[1..]),
        Some("status") => command_status(&args[1..]),
        Some("metrics") => command_metrics(&args[1..]),
        Some("watch") => command_watch(&args[1..]),
        Some("cancel") => command_cancel(&args[1..]),
        Some("fetch-front") => command_fetch_front(&args[1..]),
        Some("shutdown") => command_shutdown(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            Ok(())
        }
        _ => Err(CliError::Usage(format!(
            "unknown command '{}'",
            command.to_string_lossy()
        ))),
    }
}

/// Parsed `run` / `resume` / `sweep` options.
struct Options {
    target: PathBuf,
    checkpoint_dir: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    spec_override: Option<PathBuf>,
    stop_after: Option<usize>,
    threads: Option<usize>,
    front_out: Option<PathBuf>,
    profile_out: Option<PathBuf>,
    quiet: bool,
}

impl Options {
    /// The one executor this whole invocation evaluates on: `--threads`
    /// when given, otherwise whatever backend the spec's optimizer carries.
    /// Built exactly once per process, so every generation of a run — and
    /// of a resume, and of every cell of a sweep — reuses the same worker
    /// pool.
    fn executor(&self, spec: &RunSpec) -> Arc<Executor> {
        let backend = match self.threads {
            Some(threads) => EvalBackend::Threads(threads),
            None => spec.optimizer.backend(),
        };
        Executor::shared(backend)
    }

    /// The telemetry sink for `--profile-out`, or `None`: metrics are
    /// collected only when a profile was asked for, so the default
    /// invocation pays nothing.
    fn profile_sink(&self) -> Option<ProfileSink> {
        self.profile_out.as_ref().map(|path| ProfileSink {
            registry: MetricsRegistry::new(),
            path: path.clone(),
            started: Instant::now(),
        })
    }
}

/// Everything `--profile-out` needs: the registry the whole invocation
/// records into, the destination path, and the invocation's start time
/// (profiles report wall-clock, which is telemetry — it never enters
/// checkpoints or results).
struct ProfileSink {
    registry: MetricsRegistry,
    path: PathBuf,
    started: Instant,
}

impl ProfileSink {
    /// Snapshots the registry and writes the profile document atomically.
    fn write(
        &self,
        source: &str,
        label: &str,
        generations: u64,
        evaluations: u64,
    ) -> Result<(), String> {
        let profile = Profile {
            source: source.to_string(),
            label: label.to_string(),
            generations,
            evaluations,
            wall_ms: duration_us(self.started.elapsed()) / 1000,
            ..Profile::from_snapshot(&self.registry.snapshot())
        };
        write_profile_file(&self.path, &profile)
            .map_err(|err| format!("profile write failed: {}: {err}", self.path.display()))?;
        println!("profile: {}", self.path.display());
        Ok(())
    }
}

/// A path-valued flag: the next raw argument, converted losslessly — a
/// checkpoint dir with non-UTF-8 bytes in its name stays intact.
fn path_value(iter: &mut std::slice::Iter<'_, OsString>, flag: &str) -> Result<PathBuf, CliError> {
    iter.next()
        .map(PathBuf::from)
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
}

/// A numeric flag: parsed from the raw argument, which must be valid UTF-8
/// digits. Anything else — including non-UTF-8 bytes that a lossy
/// conversion would silently replace with U+FFFD — is an explicit usage
/// error naming the flag and the offending value.
fn numeric_value(iter: &mut std::slice::Iter<'_, OsString>, flag: &str) -> Result<usize, CliError> {
    let raw = iter
        .next()
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
    let text = raw.to_str().ok_or_else(|| {
        CliError::Usage(format!(
            "{flag} needs a number, got non-UTF-8 value '{}'",
            raw.to_string_lossy()
        ))
    })?;
    text.parse()
        .map_err(|_| CliError::Usage(format!("{flag} needs a number, got '{text}'")))
}

fn parse_options(args: &[OsString], what: &str) -> Result<Options, CliError> {
    let mut target: Option<PathBuf> = None;
    let mut options = Options {
        target: PathBuf::new(),
        checkpoint_dir: None,
        out_dir: None,
        spec_override: None,
        stop_after: None,
        threads: None,
        front_out: None,
        profile_out: None,
        quiet: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.to_str() {
            Some("--checkpoint-dir") => {
                options.checkpoint_dir = Some(path_value(&mut iter, "--checkpoint-dir")?);
            }
            Some("--out-dir") => options.out_dir = Some(path_value(&mut iter, "--out-dir")?),
            Some("--spec") => options.spec_override = Some(path_value(&mut iter, "--spec")?),
            Some("--front-out") => options.front_out = Some(path_value(&mut iter, "--front-out")?),
            Some("--profile-out") => {
                options.profile_out = Some(path_value(&mut iter, "--profile-out")?);
            }
            Some("--stop-after") => {
                options.stop_after = Some(numeric_value(&mut iter, "--stop-after")?);
            }
            Some("--threads") => options.threads = Some(numeric_value(&mut iter, "--threads")?),
            Some("--quiet") => options.quiet = true,
            Some(other) if other.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown option '{other}'")));
            }
            // Positional arguments (including non-UTF-8 file names) become
            // the target path, losslessly.
            _ => {
                if target.replace(PathBuf::from(arg)).is_some() {
                    return Err(CliError::Usage(format!(
                        "more than one {what} given ('{}')",
                        arg.to_string_lossy()
                    )));
                }
            }
        }
    }
    options.target = target.ok_or_else(|| CliError::Usage(format!("missing {what}")))?;
    Ok(options)
}

fn read_spec_file(path: &Path) -> Result<RunSpec, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| CliError::failed(format!("cannot read {}: {err}", path.display())))?;
    RunSpec::from_text(&text).map_err(|err| CliError::failed(format!("{}: {err}", path.display())))
}

fn command_run(args: &[OsString]) -> Result<(), CliError> {
    let options = parse_options(args, "spec file")?;
    let spec = read_spec_file(&options.target)?;
    let checkpoint_dir = options.checkpoint_dir.clone().unwrap_or_else(|| {
        let mut dir = options.target.clone();
        dir.set_extension("checkpoints");
        dir
    });
    execute(&options, &spec, &checkpoint_dir, None)
}

fn describe_executor(executor: &Executor) -> String {
    if executor.is_pooled() {
        format!("{}-way persistent evaluation pool", executor.workers())
    } else {
        "serial evaluation".to_string()
    }
}

fn command_resume(args: &[OsString]) -> Result<(), CliError> {
    let options = parse_options(args, "checkpoint file")?;
    let stored = CheckpointStore::load(&options.target)
        .map_err(|err| CliError::failed(format!("{}: {err}", options.target.display())))?;
    // The embedded canonical spec makes the checkpoint self-describing; an
    // explicit --spec must hash-match it or the resume is refused.
    let spec = RunSpec::from_text(&stored.spec_text).map_err(|err| {
        CliError::failed(format!(
            "{}: embedded spec does not parse ({err})",
            options.target.display()
        ))
    })?;
    if let Some(override_path) = &options.spec_override {
        let override_spec = read_spec_file(override_path)?;
        stored
            .ensure_matches(&override_spec)
            .map_err(|err| CliError::failed(format!("{}: {err}", override_path.display())))?;
    }
    let checkpoint_dir = options
        .checkpoint_dir
        .clone()
        .or_else(|| options.target.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    execute(&options, &spec, &checkpoint_dir, Some(stored))
}

/// Runs `spec` as one job — fresh, or continuing `stored` — to completion
/// (or to `--stop-after`), printing progress and writing periodic + final
/// checkpoints into `checkpoint_dir`.
fn execute(
    options: &Options,
    spec: &RunSpec,
    checkpoint_dir: &Path,
    stored: Option<StoredCheckpoint>,
) -> Result<(), CliError> {
    let problem = AnyProblem::from_spec(&spec.problem).map_err(CliError::failed)?;
    validate_spec_against_problem(spec, &problem).map_err(CliError::failed)?;
    let store = CheckpointStore::create(checkpoint_dir, spec).map_err(CliError::failed)?;
    let executor = options.executor(spec);
    match &stored {
        None => println!(
            "run: {} on '{}' (seed {}, spec hash {:#018x}, {})",
            spec.optimizer.kind(),
            spec.problem.name,
            spec.seed,
            spec.content_hash(),
            describe_executor(&executor)
        ),
        Some(stored) => println!(
            "resume: {} on '{}' from generation {} ({} evaluations so far, {})",
            spec.optimizer.kind(),
            spec.problem.name,
            stored.generation(),
            stored.evaluations(),
            describe_executor(&executor)
        ),
    }
    let profile = options.profile_sink();
    if let Some(sink) = &profile {
        executor.set_metrics(sink.registry.clone());
    }
    let checkpoint = stored.map(|stored| stored.checkpoint);
    let mut job = Job::open(spec, store, &problem, Some(executor.clone()), checkpoint)
        .map_err(|err| CliError::failed(format!("cannot resume: {err}")))?;
    if let Some(sink) = &profile {
        job = job.with_metrics(sink.registry.clone());
    }

    let progress_every = spec
        .log_every
        .unwrap_or(spec.stopping.max_generations / 20)
        .max(1);
    // One generation per step until the stopping rule (or `--stop-after`)
    // fires. A failed boundary save is warned about and retried at the next
    // boundary — one disk hiccup must neither kill the run nor disable its
    // durability; the first error is kept for the exit code.
    let mut checkpoint_error = None;
    while !job.is_done()
        && options
            .stop_after
            .is_none_or(|limit| job.generation() < limit)
    {
        let (report, saved) = job.step();
        if !options.quiet
            && (report.generation == 1 || report.generation.is_multiple_of(progress_every))
        {
            print_progress(&report, spec.stopping.max_generations);
        }
        if let Err(err) = saved {
            eprintln!(
                "warning: checkpoint write failed at generation {}: {err}",
                report.generation
            );
            checkpoint_error.get_or_insert(err);
        }
    }
    // The completed run's state lives only in memory now. Attempt every
    // output — final checkpoint AND front file — before reporting any write
    // failure, so one broken destination never discards what the other
    // could still persist.
    let final_saved = job.save();
    let driver = job.driver();
    let front = driver.front();
    let generation = driver.generation();
    let evaluations = driver.optimizer().evaluations();
    println!(
        "done: {generation} generations, {evaluations} evaluations, {} non-dominated solutions",
        front.len()
    );
    print_executor_line(&executor.stats());
    if let Ok(final_path) = &final_saved {
        println!("checkpoint: {}", final_path.display());
        if let Some(stop_after) = options.stop_after {
            if generation >= stop_after {
                println!("stopped early by --stop-after {stop_after}; resume with:");
                println!("    pathway resume {}", final_path.display());
            }
        }
    }
    let mut front_error = None;
    if let Some(front_out) = &options.front_out {
        match write_front_file(front_out, &front) {
            Ok(()) => println!("front: {} ({} solutions)", front_out.display(), front.len()),
            Err(err) => front_error = Some(format!("{}: {err}", front_out.display())),
        }
    }
    print_front_summary(&front);
    let mut profile_error = None;
    if let Some(sink) = &profile {
        // Oracle counters accumulate on the problem; dump them into the
        // registry once, now that evaluation is over.
        problem.record_oracle_metrics(&sink.registry);
        if let Err(message) = sink.write(
            "run",
            &options.target.display().to_string(),
            generation as u64,
            evaluations as u64,
        ) {
            profile_error = Some(message);
        }
    }
    final_saved.map_err(|err| CliError::failed(format!("final checkpoint write failed: {err}")))?;
    if let Some(message) = front_error.or(profile_error) {
        return Err(CliError::failed(message));
    }
    if let Some(err) = checkpoint_error {
        return Err(CliError::failed(format!(
            "a periodic checkpoint write failed mid-run (the final checkpoint above was \
             written successfully): {err}"
        )));
    }
    Ok(())
}

/// The `executor:` health line that `run`, `resume` and `status` print.
fn print_executor_line(stats: &ExecutorStats) {
    let plural = |count: usize| if count == 1 { "" } else { "s" };
    let ExecutorStats {
        workers,
        queued_chunks,
        active_workers,
    } = *stats;
    println!(
        "executor: {workers} worker lane{}, {queued_chunks} queued chunk{}, {active_workers} active",
        plural(workers),
        plural(queued_chunks)
    );
}

fn print_progress(report: &GenerationReport, max_generations: usize) {
    println!(
        "[gen {:>6}/{max_generations}] evals {:>9}  front {:>4}  hv {:<13}  ({:.1?})",
        report.generation,
        report.evaluations,
        report.front_size,
        if report.hypervolume.is_nan() {
            "-".to_string()
        } else {
            format!("{:.6e}", report.hypervolume)
        },
        report.wall_clock
    );
}

fn print_front_summary(front: &[Individual]) {
    for individual in front.iter().take(5) {
        let objectives: Vec<String> = individual
            .objectives
            .iter()
            .map(|o| format!("{o:.6}"))
            .collect();
        println!("  f = [{}]", objectives.join(", "));
    }
    if front.len() > 5 {
        println!("  ... and {} more", front.len() - 5);
    }
}

/// Runs every incomplete cell of a grid sweep on one shared executor,
/// appending completed cells to the durable ledger under `--out-dir`.
fn command_sweep(args: &[OsString]) -> Result<(), CliError> {
    let options = parse_options(args, "sweep file")?;
    if options.checkpoint_dir.is_some()
        || options.spec_override.is_some()
        || options.front_out.is_some()
    {
        return Err(CliError::Usage(
            "sweep manages its own checkpoints and fronts under --out-dir; \
             --checkpoint-dir/--spec/--front-out do not apply"
                .to_string(),
        ));
    }
    let text = std::fs::read_to_string(&options.target).map_err(|err| {
        CliError::failed(format!("cannot read {}: {err}", options.target.display()))
    })?;
    let sweep = SweepSpec::from_text(&text)
        .map_err(|err| CliError::failed(format!("{}: {err}", options.target.display())))?;
    let out_dir = options.out_dir.clone().unwrap_or_else(|| {
        let mut dir = options.target.clone();
        dir.set_extension("results");
        dir
    });
    let executor = options.executor(sweep.template());
    println!(
        "sweep: {} axes, {} cells (hash {:#018x}, {})",
        sweep.axes().len(),
        sweep.cells().len(),
        sweep.content_hash(),
        describe_executor(&executor)
    );
    for axis in sweep.axes() {
        println!("  axis {} = {}", axis.field, axis.values.join(" | "));
    }
    let quiet = options.quiet;
    let mut print_event = |event: SweepEvent<'_>| {
        if quiet {
            return;
        }
        match event {
            SweepEvent::CellSkipped { cell } => {
                println!("[{}] skip (already in the ledger)", cell.label());
            }
            SweepEvent::CellStarted { cell, resumed_from } => match resumed_from {
                Some(generation) => println!(
                    "[{}] resume from generation {generation} ({})",
                    cell.label(),
                    cell.coordinates_string()
                ),
                None => println!("[{}] run ({})", cell.label(), cell.coordinates_string()),
            },
            SweepEvent::CellCompleted { cell, row } => {
                println!(
                    "[{}] done: {} generations, {} evaluations, front {}, hv {}",
                    cell.label(),
                    row.generations,
                    row.evaluations,
                    row.front_size,
                    row.hypervolume
                        .map_or_else(|| "-".to_string(), |hv| format!("{hv:.6e}"))
                );
            }
            SweepEvent::SweepInterrupted { cell, generation } => {
                println!(
                    "[{}] interrupted at generation {generation} (checkpointed)",
                    cell.label()
                );
            }
        }
    };
    let profile = options.profile_sink();
    let report = run_sweep(
        &sweep,
        &out_dir,
        executor,
        options.stop_after,
        profile.as_ref().map(|sink| &sink.registry),
        &mut print_event,
    )
    .map_err(CliError::failed)?;
    print_sweep_report(&report, options.stop_after);
    if let Some(sink) = &profile {
        // A sweep has no single generation count; report what the registry
        // actually saw across every cell this invocation ran.
        let snapshot = sink.registry.snapshot();
        let generations = snapshot.counter("phase.generation.calls").unwrap_or(0);
        let evaluations = snapshot.counter("exec.candidates").unwrap_or(0);
        sink.write(
            "sweep",
            &options.target.display().to_string(),
            generations,
            evaluations,
        )
        .map_err(CliError::Failed)?;
    }
    Ok(())
}

fn print_sweep_report(report: &SweepReport, stop_after: Option<usize>) {
    println!(
        "sweep: {}/{} cells in the ledger ({} completed now, {} skipped)",
        report.rows_total, report.cells, report.completed, report.skipped
    );
    println!("ledger: {}", report.ledger_path.display());
    println!("        {}", report.json_path.display());
    if let Some(cell) = report.interrupted {
        let limit = stop_after.unwrap_or(0);
        println!("stopped early by --stop-after {limit} in cell {cell}; resume with:");
        println!("    pathway sweep <same sweep file and --out-dir>");
    }
}

/// Validates a `BENCH_sweep.json` against the ledger schema, listing every
/// problem found. CI runs this on freshly emitted and committed ledgers.
fn command_ledger_check(args: &[OsString]) -> Result<(), CliError> {
    let [path] = args else {
        return Err(CliError::Usage(
            "ledger-check takes exactly one BENCH_sweep.json argument".to_string(),
        ));
    };
    let path = Path::new(path);
    let ledger = read_document(path, LedgerDocument::from_json, |problems| {
        format!("{problems} ledger schema violation(s)")
    })?;
    println!(
        "{}: valid sweep ledger (sweep {:#018x}, {}/{} cells complete)",
        path.display(),
        ledger.sweep_hash,
        ledger.cells_complete(),
        ledger.cells.len()
    );
    Ok(())
}

/// Reads the JSON document at `path` through its typed reader `from_json`.
/// Every problem goes to stderr as `<path>: <problem>`, and the error
/// message counts them (`violations`).
fn read_document<T>(
    path: &Path,
    from_json: fn(&JsonValue) -> Result<T, Vec<String>>,
    violations: impl Fn(usize) -> String,
) -> Result<T, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| CliError::failed(format!("cannot read {}: {err}", path.display())))?;
    let problems = match JsonValue::parse(&text) {
        Ok(document) => match from_json(&document) {
            Ok(value) => return Ok(value),
            Err(problems) => problems,
        },
        Err(err) => vec![format!("not valid JSON: {err}")],
    };
    for problem in &problems {
        eprintln!("{}: {problem}", path.display());
    }
    Err(CliError::failed(violations(problems.len())))
}

/// Validates a telemetry profile (`--profile-out` output, a committed
/// `BENCH_profile.json`, or a saved `pathway metrics` snapshot) against the
/// `pathway-profile` schema, then checks that the per-phase timings are
/// plausible against the generation total. CI runs this on freshly emitted
/// and committed profiles.
fn command_profile_check(args: &[OsString]) -> Result<(), CliError> {
    let [path] = args else {
        return Err(CliError::Usage(
            "profile-check takes exactly one profile.json argument".to_string(),
        ));
    };
    let path = Path::new(path);
    let check = read_document(path, Profile::from_json, |problems| {
        format!("{problems} profile schema violation(s)")
    })?;
    check_phase_balance(&check)
        .map_err(|err| CliError::failed(format!("{}: {err}", path.display())))?;
    println!(
        "{}: valid {} profile for '{}' ({} generations, {} evaluations, \
         {} phases, {} ms wall clock)",
        path.display(),
        check.source,
        check.label,
        check.generations,
        check.evaluations,
        check.phases.len(),
        check.wall_ms
    );
    Ok(())
}

/// Default `--threshold` for `profile-diff`: generous enough to absorb a
/// baseline measured on different hardware, tight enough to catch a kernel
/// regressing by an order of magnitude.
const PROFILE_DIFF_DEFAULT_THRESHOLD: f64 = 4.0;

/// Compares two telemetry profiles phase by phase — per-evaluation costs
/// when both record evaluation counts, raw totals otherwise — and fails
/// (exit 1) when any gated phase's cost ratio exceeds the threshold. CI
/// runs this with a freshly regenerated profile against the committed
/// `BENCH_profile.json`, which is what turns the committed numbers into an
/// enforced performance contract instead of documentation.
fn command_profile_diff(args: &[OsString]) -> Result<(), CliError> {
    let mut paths: Vec<&OsString> = Vec::new();
    let mut threshold = PROFILE_DIFF_DEFAULT_THRESHOLD;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg.to_str() == Some("--threshold") {
            let value = rest
                .next()
                .ok_or_else(|| CliError::Usage("--threshold needs a value".to_string()))?;
            threshold = value
                .to_str()
                .and_then(|text| text.parse::<f64>().ok())
                .filter(|t| t.is_finite() && *t > 0.0)
                .ok_or_else(|| {
                    CliError::Usage(format!(
                        "--threshold needs a positive number, got '{}'",
                        value.to_string_lossy()
                    ))
                })?;
        } else {
            paths.push(arg);
        }
    }
    let [old_path, new_path] = paths[..] else {
        return Err(CliError::Usage(
            "profile-diff takes exactly two profile.json arguments \
             (old baseline first, new profile second)"
                .to_string(),
        ));
    };
    let load = |path: &OsString| {
        let path = Path::new(path);
        read_document(path, Profile::from_json, |problems| {
            format!("{}: {problems} profile schema violation(s)", path.display())
        })
    };
    let old = load(old_path)?;
    let new = load(new_path)?;
    let diff = diff_profiles(&old, &new);
    println!(
        "profile diff: {} ({} evaluations) -> {} ({} evaluations)",
        Path::new(old_path).display(),
        diff.old_evaluations,
        Path::new(new_path).display(),
        diff.new_evaluations,
    );
    println!(
        "  {:<20} {:>12} {:>12} {:>11} {:>11} {:>8}",
        "phase", "old µs", "new µs", "old/eval", "new/eval", "ratio"
    );
    let fmt_us = |us: Option<u64>| us.map_or_else(|| "-".to_string(), |us| us.to_string());
    let fmt_per = |per: Option<f64>| per.map_or_else(|| "-".to_string(), |p| format!("{p:.3}"));
    for delta in &diff.phases {
        println!(
            "  {:<20} {:>12} {:>12} {:>11} {:>11} {:>8}",
            delta.name,
            fmt_us(delta.old_total_us),
            fmt_us(delta.new_total_us),
            fmt_per(delta.old_per_eval_us),
            fmt_per(delta.new_per_eval_us),
            delta
                .ratio
                .map_or_else(|| "-".to_string(), |r| format!("{r:.2}x")),
        );
    }
    check_profile_regression(&diff, threshold).map_err(CliError::failed)?;
    println!("no gated phase regressed past {threshold:.2}x");
    Ok(())
}

fn command_inspect(args: &[OsString]) -> Result<(), CliError> {
    let [path] = args else {
        return Err(CliError::Usage(
            "inspect takes exactly one file argument".to_string(),
        ));
    };
    let path = Path::new(path);
    let bytes = std::fs::read(path)
        .map_err(|err| CliError::failed(format!("cannot read {}: {err}", path.display())))?;
    if bytes.starts_with(b"PWCK") {
        let stored = pathway_moo::engine::decode_checkpoint(&bytes)
            .map_err(|err| CliError::failed(format!("{}: {err}", path.display())))?;
        inspect_checkpoint(path, &stored);
        return Ok(());
    }
    let text = String::from_utf8(bytes).map_err(|_| {
        CliError::failed(format!(
            "{}: neither a checkpoint nor UTF-8 text",
            path.display()
        ))
    })?;
    if is_sweep_text(&text) {
        let sweep = SweepSpec::from_text(&text)
            .map_err(|err| CliError::failed(format!("{}: {err}", path.display())))?;
        inspect_sweep(path, &sweep);
        return Ok(());
    }
    let spec = RunSpec::from_text(&text)
        .map_err(|err| CliError::failed(format!("{}: {err}", path.display())))?;
    inspect_spec(path, &spec)
}

fn inspect_sweep(path: &Path, sweep: &SweepSpec) {
    println!("{}: valid pathway sweep", path.display());
    println!("  content hash: {:#018x}", sweep.content_hash());
    println!("  cells:        {}", sweep.cells().len());
    for axis in sweep.axes() {
        println!(
            "  axis:         {} = {}",
            axis.field,
            axis.values.join(" | ")
        );
    }
    println!("  canonical form:");
    for line in sweep.to_text().lines() {
        println!("    {line}");
    }
}

fn inspect_checkpoint(path: &Path, stored: &StoredCheckpoint) {
    println!("{}: pathway checkpoint v1", path.display());
    println!("  spec hash:   {:#018x}", stored.spec_hash);
    println!("  generation:  {}", stored.generation());
    println!("  evaluations: {}", stored.evaluations());
    println!("  optimizer:   {}", stored.checkpoint.optimizer.kind());
    println!(
        "  hypervolume: {} tracked generations",
        stored.checkpoint.hypervolume_history.len()
    );
    println!("  embedded spec:");
    for line in stored.spec_text.lines() {
        println!("    {line}");
    }
}

fn inspect_spec(path: &Path, spec: &RunSpec) -> Result<(), CliError> {
    let problem = AnyProblem::from_spec(&spec.problem).map_err(CliError::failed)?;
    validate_spec_against_problem(spec, &problem).map_err(CliError::failed)?;
    use pathway_moo::MultiObjectiveProblem;
    println!("{}: valid pathway spec", path.display());
    println!("  content hash: {:#018x}", spec.content_hash());
    println!(
        "  problem:      {} ({} variables, {} objectives)",
        spec.problem.name,
        problem.num_variables(),
        problem.num_objectives()
    );
    println!("  optimizer:    {}", spec.optimizer.kind());
    println!(
        "  budget:       {} generations",
        spec.stopping.max_generations
    );
    println!("  canonical form:");
    for line in spec.to_text().lines() {
        println!("    {line}");
    }
    Ok(())
}

fn command_list_problems(args: &[OsString]) -> Result<(), CliError> {
    if !args.is_empty() {
        return Err(CliError::Usage(
            "list-problems takes no arguments".to_string(),
        ));
    }
    println!("problems known to the registry ([problem] name = ...):\n");
    for info in PROBLEM_CATALOG {
        println!("  {:<12} {}", info.name, info.summary);
        for (param, description) in info.params {
            println!("      {param:<14} {description}");
        }
    }
    Ok(())
}

/// A string-valued flag (daemon addresses); must be valid UTF-8.
fn string_value(iter: &mut std::slice::Iter<'_, OsString>, flag: &str) -> Result<String, CliError> {
    let raw = iter
        .next()
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
    raw.to_str().map(str::to_string).ok_or_else(|| {
        CliError::Usage(format!(
            "{flag} needs UTF-8 text, got '{}'",
            raw.to_string_lossy()
        ))
    })
}

/// Runs the study daemon over a data directory until a client shuts it
/// down. Restart-safe: every job found under the data dir resumes from its
/// latest checkpoint before the socket starts accepting.
fn command_serve(args: &[OsString]) -> Result<(), CliError> {
    let mut data_dir: Option<PathBuf> = None;
    let mut listen = "127.0.0.1:7757".to_string();
    let mut threads: Option<usize> = None;
    let mut quiet = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.to_str() {
            Some("--listen") => listen = string_value(&mut iter, "--listen")?,
            Some("--threads") => threads = Some(numeric_value(&mut iter, "--threads")?),
            Some("--quiet") => quiet = true,
            Some(other) if other.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown option '{other}'")));
            }
            _ => {
                if data_dir.replace(PathBuf::from(arg)).is_some() {
                    return Err(CliError::Usage("more than one data dir given".to_string()));
                }
            }
        }
    }
    let data_dir = data_dir.ok_or_else(|| CliError::Usage("missing data dir".to_string()))?;
    let backend = match threads {
        Some(threads) => EvalBackend::Threads(threads),
        None => EvalBackend::Serial,
    };
    let server = Server::start(ServeConfig {
        listen,
        data_dir,
        executor: Executor::shared(backend),
        quiet,
    })
    .map_err(CliError::Failed)?;
    server.join();
    Ok(())
}

/// Where a client command should connect, from `--addr` / `--data-dir`.
struct ClientTarget {
    positional: Option<OsString>,
    addr: Option<String>,
    data_dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

/// Parses client-command arguments: at most one positional (the spec file
/// or job id, when `what` names one) plus the TARGET flags.
fn parse_client_target(args: &[OsString], what: Option<&str>) -> Result<ClientTarget, CliError> {
    let mut target = ClientTarget {
        positional: None,
        addr: None,
        data_dir: None,
        out: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.to_str() {
            Some("--addr") => target.addr = Some(string_value(&mut iter, "--addr")?),
            Some("--data-dir") => target.data_dir = Some(path_value(&mut iter, "--data-dir")?),
            Some("--out") => target.out = Some(path_value(&mut iter, "--out")?),
            Some(other) if other.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown option '{other}'")));
            }
            _ => {
                let Some(what) = what else {
                    return Err(CliError::Usage(format!(
                        "unexpected argument '{}'",
                        arg.to_string_lossy()
                    )));
                };
                if target.positional.replace(arg.clone()).is_some() {
                    return Err(CliError::Usage(format!("more than one {what} given")));
                }
            }
        }
    }
    Ok(target)
}

impl ClientTarget {
    /// Opens the connection: `--addr` wins, otherwise the address is read
    /// from the data dir's endpoint file.
    fn connect(&self) -> Result<Client, CliError> {
        let addr = match (&self.addr, &self.data_dir) {
            (Some(addr), _) => addr.clone(),
            (None, Some(dir)) => read_endpoint(dir).map_err(|err| {
                CliError::failed(format!(
                    "no daemon endpoint under {} ({err}); is `pathway serve` running?",
                    dir.display()
                ))
            })?,
            (None, None) => {
                return Err(CliError::Usage(
                    "daemon client commands need --addr <host:port> or --data-dir <dir>"
                        .to_string(),
                ))
            }
        };
        Client::connect(&addr).map_err(CliError::failed)
    }

    /// The positional argument as a job id (UTF-8 demanded).
    fn job_id(&self, what: &str) -> Result<String, CliError> {
        let raw = self
            .positional
            .as_ref()
            .ok_or_else(|| CliError::Usage(format!("missing {what}")))?;
        raw.to_str().map(str::to_string).ok_or_else(|| {
            CliError::Usage(format!(
                "{what} must be UTF-8 text, got '{}'",
                raw.to_string_lossy()
            ))
        })
    }
}

fn print_job_row(job: &JobSummary) {
    let budget = if job.max_generations > 0 {
        format!("{}/{}", job.generation, job.max_generations)
    } else {
        format!("{}", job.generation)
    };
    println!(
        "  {:<10} {:<10} {:<14} {:<12} gen {:>9}  evals {:>9}  front {:>4}  watchers {}",
        job.id,
        job.state.as_str(),
        job.problem,
        job.optimizer,
        budget,
        job.evaluations,
        job.front_size,
        job.watchers
    );
    if let Some(error) = &job.error {
        println!("             error: {error}");
    }
}

fn command_submit(args: &[OsString]) -> Result<(), CliError> {
    let target = parse_client_target(args, Some("spec file"))?;
    let path = target
        .positional
        .as_ref()
        .map(PathBuf::from)
        .ok_or_else(|| CliError::Usage("missing spec file".to_string()))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|err| CliError::failed(format!("cannot read {}: {err}", path.display())))?;
    let mut client = target.connect()?;
    let jobs = client.submit(&text).map_err(CliError::failed)?;
    println!(
        "submitted {} job{} from {}:",
        jobs.len(),
        if jobs.len() == 1 { "" } else { "s" },
        path.display()
    );
    for job in &jobs {
        print_job_row(job);
    }
    Ok(())
}

fn command_status(args: &[OsString]) -> Result<(), CliError> {
    let target = parse_client_target(args, None)?;
    let mut client = target.connect()?;
    let status = client.status().map_err(CliError::failed)?;
    print_executor_line(&status.executor);
    if status.jobs.is_empty() {
        println!("no jobs");
        return Ok(());
    }
    println!("jobs:");
    for job in &status.jobs {
        print_job_row(job);
    }
    Ok(())
}

/// Fetches the daemon's live telemetry snapshot — the same
/// `pathway-profile` document `--profile-out` writes, with `source`
/// `"serve"` — and prints it, or writes it with `--out`.
fn command_metrics(args: &[OsString]) -> Result<(), CliError> {
    let target = parse_client_target(args, None)?;
    let mut client = target.connect()?;
    let profile = client.metrics().map_err(CliError::failed)?;
    match &target.out {
        Some(path) => {
            write_profile_file(path, &profile)
                .map_err(|err| CliError::failed(format!("{}: {err}", path.display())))?;
            println!("profile: {}", path.display());
        }
        None => print!("{}", profile.to_json().to_pretty()),
    }
    Ok(())
}

fn command_watch(args: &[OsString]) -> Result<(), CliError> {
    let target = parse_client_target(args, Some("job id"))?;
    let job = target.job_id("job id")?;
    let mut client = target.connect()?;
    let end = client
        .watch(&job, |event| {
            let GenerationEvent {
                generation,
                evaluations,
                front_size,
                hypervolume,
                duration_us,
                ..
            } = event;
            println!(
                "[{job} gen {generation:>6}] evals {evaluations:>9}  front {front_size:>4}  hv {:<13}  ({:.1?})",
                if hypervolume.is_nan() {
                    "-".to_string()
                } else {
                    format!("{hypervolume:.6e}")
                },
                Duration::from_micros(*duration_us)
            );
        })
        .map_err(CliError::failed)?;
    println!(
        "{job}: {} at generation {}",
        end.state.as_str(),
        end.generation
    );
    Ok(())
}

fn command_cancel(args: &[OsString]) -> Result<(), CliError> {
    let target = parse_client_target(args, Some("job id"))?;
    let job = target.job_id("job id")?;
    let mut client = target.connect()?;
    let summary = client.cancel(&job).map_err(CliError::failed)?;
    print_job_row(&summary);
    Ok(())
}

fn command_fetch_front(args: &[OsString]) -> Result<(), CliError> {
    let target = parse_client_target(args, Some("job id"))?;
    let job = target.job_id("job id")?;
    let mut client = target.connect()?;
    let (summary, front) = client.fetch_front(&job).map_err(CliError::failed)?;
    match &target.out {
        Some(path) => {
            // Bit-exact: these are the same bytes `pathway run --front-out`
            // would have written for the job's spec.
            atomic_write(path, front.as_bytes())
                .map_err(|err| CliError::failed(format!("{}: {err}", path.display())))?;
            println!(
                "front: {} ({} solutions, job {} {})",
                path.display(),
                summary.front_size,
                summary.id,
                summary.state.as_str()
            );
        }
        None => print!("{front}"),
    }
    Ok(())
}

fn command_shutdown(args: &[OsString]) -> Result<(), CliError> {
    let target = parse_client_target(args, None)?;
    let mut client = target.connect()?;
    client.shutdown().map_err(CliError::failed)?;
    println!("daemon shut down (all running jobs checkpointed)");
    Ok(())
}
