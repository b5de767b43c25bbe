//! Grid sweep execution and the durable results ledger.
//!
//! [`run_sweep`] takes a parsed [`SweepSpec`] and runs every one of its
//! cells on **one** shared persistent [`Executor`] — the pool is paid for
//! once per invocation, exactly like the `pathway run`/`resume` path. Each
//! cell checkpoints through its own [`CheckpointStore`] under
//! `<out>/cells/cell-NNNN/`, so a killed sweep resumes *only* its
//! incomplete cells, bit-identically (the engine's checkpoint/resume
//! guarantee composes cell-wise).
//!
//! Completed cells append one row to the **ledger**, which lives in two
//! synchronized forms:
//!
//! * `<out>/ledger.md` — a canonical, append-only markdown table. This is
//!   the source of truth: rows are fsynced as they land and never
//!   rewritten, so the bytes written before a kill are a strict prefix of
//!   the bytes after resume.
//! * `<out>/BENCH_sweep.json` — a machine-readable projection regenerated
//!   (atomically, write-then-rename) after every row: all cells with
//!   explicit `"never"` placeholders for work not yet run — the committed
//!   results-table idiom of the DAC linearisation repos — plus a
//!   per-scenario summary of merged-front hypervolume and coverage per
//!   method.
//!
//! Both forms are spelled once. Each ledger column is one row of a table
//! that names its `ledger.md` header and rule, its JSON key, and how the
//! value shows in each; [`LedgerDocument`] renders `BENCH_sweep.json` and
//! reads it back ([`LedgerDocument::from_json`], what `pathway
//! ledger-check` runs) through the same tables.
//!
//! Final fronts are persisted bit-exactly (IEEE-754 bits in hex) under
//! `<out>/fronts/`, which is both what the kill/resume test diffs and what
//! the summary merges.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use pathway_moo::engine::store::atomic_write;
use pathway_moo::engine::{
    CheckpointError, CheckpointStore, EngineError, MetricsRegistry, SpecError, StoredCheckpoint,
    SweepAxis, SweepCell, SweepSpec,
};
use pathway_moo::exec::Executor;
use pathway_moo::metrics::{global_coverage, hypervolume, union_front};
use pathway_moo::{Individual, Optimizer};

use crate::field;
use crate::jsonlite::{
    int, read_record, write_list, write_record, write_records, Field, Fields, JsonValue, Kind,
    COUNT, FINITE, FINITE_OR_NULL, HASH, NULL, SIZE, TEXT,
};
use crate::registry::{validate_spec_against_problem, AnyProblem};
use crate::Job;

/// The header line of bit-exact front files.
pub const FRONT_HEADER: &str = "pathway-front v1";

/// The `format` tag of `BENCH_sweep.json` documents.
pub const BENCH_FORMAT: &str = "pathway-bench-sweep";

/// The ledger schema version carried in `BENCH_sweep.json`.
pub const BENCH_VERSION: i64 = 1;

/// Why a sweep could not run (or resume).
#[derive(Debug)]
pub enum SweepError {
    /// The sweep or one of its cells is not a valid spec.
    Spec(SpecError),
    /// A cell checkpoint could not be written or read back.
    Checkpoint(CheckpointError),
    /// A checkpointed state does not fit its cell's optimizer.
    Engine(EngineError),
    /// Filesystem trouble, with the path that caused it.
    Io {
        /// The file or directory being accessed.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The on-disk ledger is unusable (corrupt, or belongs to a different
    /// sweep).
    Ledger(String),
    /// Another sweep holds the lock on this out-dir.
    Locked {
        /// The out-dir both sweeps write to.
        out_dir: PathBuf,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Spec(err) => write!(f, "{err}"),
            SweepError::Checkpoint(err) => write!(f, "{err}"),
            SweepError::Engine(err) => write!(f, "{err}"),
            SweepError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            SweepError::Ledger(message) => write!(f, "ledger: {message}"),
            SweepError::Locked { out_dir } => write!(
                f,
                "another sweep is running in {} (it holds {}); wait for it to finish",
                out_dir.display(),
                out_dir.join(LOCK_FILE).display()
            ),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<SpecError> for SweepError {
    fn from(err: SpecError) -> Self {
        SweepError::Spec(err)
    }
}

impl From<CheckpointError> for SweepError {
    fn from(err: CheckpointError) -> Self {
        SweepError::Checkpoint(err)
    }
}

impl From<EngineError> for SweepError {
    fn from(err: EngineError) -> Self {
        SweepError::Engine(err)
    }
}

fn io_err(path: &Path, error: std::io::Error) -> SweepError {
    SweepError::Io {
        path: path.to_path_buf(),
        error,
    }
}

/// The file a running sweep holds an exclusive lock on, in its out-dir.
const LOCK_FILE: &str = ".sweep.lock";

/// Creates `out_dir` and takes the exclusive lock on its [`LOCK_FILE`],
/// refusing at once when another sweep, in this process or another, holds
/// it. The lock lasts as long as the returned file is open.
fn lock_out_dir(out_dir: &Path) -> Result<std::fs::File, SweepError> {
    std::fs::create_dir_all(out_dir).map_err(|err| io_err(out_dir, err))?;
    let path = out_dir.join(LOCK_FILE);
    let file = std::fs::File::options()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)
        .map_err(|err| io_err(&path, err))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(std::fs::TryLockError::WouldBlock) => Err(SweepError::Locked {
            out_dir: out_dir.to_path_buf(),
        }),
        Err(std::fs::TryLockError::Error(err)) => Err(io_err(&path, err)),
    }
}

/// One completed cell as recorded in the ledger. Its columns, in
/// `ledger.md` and in `BENCH_sweep.json` alike, are the rows of one table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerRow {
    /// Cell index in expansion order.
    pub cell: usize,
    /// The cell spec's content hash.
    pub spec_hash: u64,
    /// Axis coordinates as `field=value`, space-joined.
    pub coordinates: String,
    /// Problem name plus its parameters.
    pub problem: String,
    /// Optimizer kind plus any swept optimizer settings.
    pub method: String,
    /// The cell's RNG seed.
    pub seed: u64,
    /// Generations the cell ran in total.
    pub generations: usize,
    /// Candidate evaluations the cell spent in total.
    pub evaluations: usize,
    /// Size of the cell's final non-dominated front.
    pub front_size: usize,
    /// Final-front hypervolume (the cell's `reference_point`, or one
    /// derived from its own front); `None` above 3 objectives.
    pub hypervolume: Option<f64>,
    /// Wall-clock milliseconds spent *in the invocation that finished the
    /// cell* (a resumed cell's earlier partial runs are not included).
    pub wall_ms: u64,
    /// Unix timestamp (seconds) when the row was appended.
    pub unix: u64,
}

/// Progress callbacks streamed out of [`run_sweep`].
#[derive(Debug)]
pub enum SweepEvent<'a> {
    /// The ledger already holds this cell; nothing is re-run.
    CellSkipped {
        /// The completed cell.
        cell: &'a SweepCell,
    },
    /// A cell is about to run, fresh or from its newest checkpoint.
    CellStarted {
        /// The cell.
        cell: &'a SweepCell,
        /// Checkpointed generation the cell resumes from, if any.
        resumed_from: Option<usize>,
    },
    /// A cell finished and its row landed in the ledger.
    CellCompleted {
        /// The cell.
        cell: &'a SweepCell,
        /// The appended row.
        row: &'a LedgerRow,
    },
    /// `--stop-after` exhausted the generation budget mid-cell; a
    /// checkpoint was written and the sweep stopped.
    SweepInterrupted {
        /// The cell that was running.
        cell: &'a SweepCell,
        /// The generation the checkpoint captures.
        generation: usize,
    },
}

/// What [`run_sweep`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// Total cells in the grid.
    pub cells: usize,
    /// Cells completed by *this* invocation.
    pub completed: usize,
    /// Cells skipped because the ledger already had their rows.
    pub skipped: usize,
    /// The cell left mid-run by an exhausted `--stop-after` budget.
    pub interrupted: Option<usize>,
    /// Ledger rows on disk after this invocation.
    pub rows_total: usize,
    /// Path of the canonical text ledger.
    pub ledger_path: PathBuf,
    /// Path of the machine-readable ledger.
    pub json_path: PathBuf,
}

/// Runs every incomplete cell of `sweep` under `out_dir`, sharing one
/// `executor` across the whole grid.
///
/// `stop_after` bounds the total generations advanced by **this
/// invocation** (across cells); when it runs out mid-cell the cell is
/// checkpointed and the sweep returns with
/// [`interrupted`](SweepReport::interrupted) set — re-running the same
/// sweep resumes exactly there. Cells already in the ledger are skipped,
/// never re-run.
///
/// When `metrics` is set, the registry is installed on the shared executor,
/// attached to every cell's job (phase spans accumulate across cells), and
/// each completed or interrupted cell dumps its problem's oracle counters
/// into it. Telemetry is observational: results, checkpoints and the ledger
/// are bit-identical with or without a registry.
///
/// # Errors
///
/// [`SweepError`] on invalid cells, checkpoint/ledger corruption, or I/O
/// failure — a failed checkpoint write included. A failed sweep can always
/// be re-run: completed rows stay. [`SweepError::Locked`] when another
/// sweep is running in `out_dir`: a sweep holds a lock on
/// `out_dir/.sweep.lock` from start to finish, so two sweeps never append
/// to one ledger.
pub fn run_sweep(
    sweep: &SweepSpec,
    out_dir: &Path,
    executor: Arc<Executor>,
    stop_after: Option<usize>,
    metrics: Option<&MetricsRegistry>,
    progress: &mut dyn FnMut(SweepEvent<'_>),
) -> Result<SweepReport, SweepError> {
    if let Some(registry) = metrics {
        executor.set_metrics(registry.clone());
    }
    let cells = sweep.cells();
    let _lock = lock_out_dir(out_dir)?;
    let fronts_dir = out_dir.join("fronts");
    std::fs::create_dir_all(&fronts_dir).map_err(|err| io_err(&fronts_dir, err))?;
    let mut ledger = Ledger::open(out_dir, sweep, cells)?;
    // Even a sweep interrupted in its first cell leaves a valid JSON
    // ledger behind (all placeholders).
    ledger.write_json(sweep, cells, &fronts_dir)?;

    let mut report = SweepReport {
        cells: cells.len(),
        completed: 0,
        skipped: 0,
        interrupted: None,
        rows_total: ledger.rows.len(),
        ledger_path: ledger.text_path.clone(),
        json_path: ledger.json_path.clone(),
    };
    let mut remaining = stop_after;
    for cell in cells {
        if ledger.has(cell.index, cell.spec.content_hash()) {
            report.skipped += 1;
            progress(SweepEvent::CellSkipped { cell });
            continue;
        }
        let problem = AnyProblem::from_spec(&cell.spec.problem)?;
        validate_spec_against_problem(&cell.spec, &problem)?;
        let store = CheckpointStore::create(out_dir.join("cells").join(cell.label()), &cell.spec)?;
        let started = Instant::now();
        let stored = store.latest_matching(&cell.spec)?;
        let resumed_from = stored.as_ref().map(StoredCheckpoint::generation);
        let checkpoint = stored.map(|stored| stored.checkpoint);
        let mut job = Job::open(
            &cell.spec,
            store,
            &problem,
            Some(executor.clone()),
            checkpoint,
        )?;
        if let Some(registry) = metrics {
            job = job.with_metrics(registry.clone());
        }
        progress(SweepEvent::CellStarted { cell, resumed_from });
        while !job.is_done() {
            if remaining == Some(0) {
                job.save()?;
                if let Some(registry) = metrics {
                    problem.record_oracle_metrics(registry);
                }
                progress(SweepEvent::SweepInterrupted {
                    cell,
                    generation: job.generation(),
                });
                report.interrupted = Some(cell.index);
                report.rows_total = ledger.rows.len();
                return Ok(report);
            }
            let (_, saved) = job.step();
            saved?;
            if let Some(left) = &mut remaining {
                *left -= 1;
            }
        }
        // One final checkpoint so the finished cell is durable and
        // inspectable like any single run.
        job.save()?;
        let driver = job.driver();
        let front = driver.front();
        let front_path = fronts_dir.join(format!("{}.front", cell.label()));
        write_front_file(&front_path, &front).map_err(|err| io_err(&front_path, err))?;
        let objectives: Vec<Vec<f64>> = front
            .iter()
            .map(|individual| individual.objectives.clone())
            .collect();
        let row = LedgerRow {
            generations: driver.generation(),
            evaluations: driver.optimizer().evaluations(),
            front_size: front.len(),
            hypervolume: cell_hypervolume(&cell.spec.reference_point, &objectives),
            wall_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
            unix: now_unix(),
            ..identity_row(cell)
        };
        ledger.append(row)?;
        ledger.write_json(sweep, cells, &fronts_dir)?;
        if let Some(registry) = metrics {
            problem.record_oracle_metrics(registry);
        }
        report.completed += 1;
        progress(SweepEvent::CellCompleted {
            cell,
            row: ledger.rows.last().expect("row appended just above"),
        });
    }
    report.rows_total = ledger.rows.len();
    Ok(report)
}

/// A cell's identity columns; the outcome columns are left at zero.
fn identity_row(cell: &SweepCell) -> LedgerRow {
    LedgerRow {
        cell: cell.index,
        spec_hash: cell.spec.content_hash(),
        coordinates: cell.coordinates_string(),
        problem: scenario_of(cell),
        method: method_of(cell),
        seed: cell.spec.seed,
        ..LedgerRow::default()
    }
}

/// The scenario a cell belongs to: problem name plus its parameters
/// (`zdt1 variables=6`). Cells of one scenario share a merged global front
/// in the summary.
fn scenario_of(cell: &SweepCell) -> String {
    let mut out = cell.spec.problem.name.clone();
    for (key, value) in &cell.spec.problem.params {
        out.push_str(&format!(" {key}={value}"));
    }
    out
}

/// The method a cell ran: optimizer kind plus any *swept* optimizer
/// settings other than the kind itself (`nsga2 population=50`), so grid
/// axes over optimizer configuration stay distinguishable in the summary.
fn method_of(cell: &SweepCell) -> String {
    let mut out = cell.spec.optimizer.kind().to_string();
    for (field, value) in &cell.coordinates {
        if let Some(key) = field.strip_prefix("optimizer.") {
            if key != "kind" {
                out.push_str(&format!(" {key}={value}"));
            }
        }
    }
    out
}

fn now_unix() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|elapsed| elapsed.as_secs())
        .unwrap_or(0)
}

/// Hypervolume of a final front: against the spec's reference point when
/// set, else against a reference derived from the front itself (per
/// objective: max + 10% of the span). `None` above 3 objectives, where the
/// exact metric is not implemented.
fn cell_hypervolume(reference: &Option<Vec<f64>>, objectives: &[Vec<f64>]) -> Option<f64> {
    let dim = match objectives.first() {
        Some(point) => point.len(),
        None => return Some(0.0),
    };
    if !(2..=3).contains(&dim) {
        return None;
    }
    let reference = reference
        .clone()
        .unwrap_or_else(|| derived_reference(objectives));
    Some(hypervolume(objectives, &reference))
}

/// A deterministic reference point for merged-front comparisons: per
/// objective, the maximum over `points` plus 10% of the observed span
/// (or +1 when the span is degenerate).
fn derived_reference(points: &[Vec<f64>]) -> Vec<f64> {
    let dim = points.first().map_or(0, Vec::len);
    (0..dim)
        .map(|d| {
            let max = points
                .iter()
                .map(|p| p[d])
                .fold(f64::NEG_INFINITY, f64::max);
            let min = points.iter().map(|p| p[d]).fold(f64::INFINITY, f64::min);
            let span = max - min;
            if span > 0.0 && span.is_finite() {
                max + 0.1 * span
            } else {
                max + 1.0
            }
        })
        .collect()
}

/// Writes a front bit-exactly: one line per solution, every `f64` rendered
/// as its IEEE-754 bits in hex, so two fronts are equal iff the files are
/// byte-identical. Kill/resume tests — single-run and sweep alike — diff
/// these files, and the sweep summary reads their objectives back
/// losslessly. The write is atomic ([`atomic_write`]): a kill mid-write
/// leaves the old file or none, never a torn front.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_front_file(path: &Path, front: &[Individual]) -> std::io::Result<()> {
    atomic_write(path, render_front(front).as_bytes())
}

/// Renders a front in the exact [`write_front_file`] format without
/// touching the filesystem. `pathway serve` uses this for `fetch-front`
/// responses, so a front fetched over the wire is byte-identical to the
/// file a `pathway run --front-out` of the same spec would have written.
pub fn render_front(front: &[Individual]) -> String {
    let mut out = String::with_capacity(front.len() * 64 + 32);
    out.push_str(FRONT_HEADER);
    out.push('\n');
    for individual in front {
        let hex = |values: &[f64]| {
            values
                .iter()
                .map(|v| format!("{:016x}", v.to_bits()))
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&format!(
            "x={} f={} c={:016x}\n",
            hex(&individual.variables),
            hex(&individual.objectives),
            individual.violation.to_bits()
        ));
    }
    out
}

/// Reads the objective vectors back out of a [`write_front_file`] file,
/// bit-for-bit.
///
/// # Errors
///
/// `InvalidData` when the file does not follow the front format.
fn read_front_objectives(path: &Path) -> std::io::Result<Vec<Vec<f64>>> {
    let bad = |message: String| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    if lines.next() != Some(FRONT_HEADER) {
        return Err(bad(format!("missing '{FRONT_HEADER}' header")));
    }
    let mut fronts = Vec::new();
    for line in lines {
        let field = line
            .split_whitespace()
            .find_map(|token| token.strip_prefix("f="))
            .ok_or_else(|| bad(format!("front line without f= field: '{line}'")))?;
        let objectives = field
            .split(',')
            .map(|hex| u64::from_str_radix(hex, 16).map(f64::from_bits))
            .collect::<Result<Vec<f64>, _>>()
            .map_err(|_| bad(format!("bad objective bits in '{line}'")))?;
        fronts.push(objectives);
    }
    Ok(fronts)
}

/// The durable results ledger: `ledger.md` (append-only source of truth)
/// plus its `BENCH_sweep.json` projection.
struct Ledger {
    text_path: PathBuf,
    json_path: PathBuf,
    rows: Vec<LedgerRow>,
}

impl Ledger {
    /// Opens (or creates) the ledger under `out_dir`, refusing one written
    /// by a different sweep.
    fn open(out_dir: &Path, sweep: &SweepSpec, cells: &[SweepCell]) -> Result<Self, SweepError> {
        std::fs::create_dir_all(out_dir).map_err(|err| io_err(out_dir, err))?;
        let text_path = out_dir.join("ledger.md");
        let json_path = out_dir.join("BENCH_sweep.json");
        if text_path.exists() {
            let text =
                std::fs::read_to_string(&text_path).map_err(|err| io_err(&text_path, err))?;
            let (hash, rows) = parse_ledger(&text).map_err(SweepError::Ledger)?;
            if hash != sweep.content_hash() {
                return Err(SweepError::Ledger(format!(
                    "{} was written by a different sweep (hash {hash:#018x}, this sweep is {:#018x}); \
                     use a fresh --out-dir",
                    text_path.display(),
                    sweep.content_hash()
                )));
            }
            for row in &rows {
                if row.cell >= cells.len() {
                    return Err(SweepError::Ledger(format!(
                        "{} holds a row for cell {} but the grid has only {} cells",
                        text_path.display(),
                        row.cell,
                        cells.len()
                    )));
                }
            }
            return Ok(Ledger {
                text_path,
                json_path,
                rows,
            });
        }
        let mut header = String::new();
        header.push_str("# pathway sweep ledger\n\n");
        header.push_str(&format!("- sweep-hash: {:#018x}\n", sweep.content_hash()));
        header.push_str(&format!("- cells: {}\n", cells.len()));
        for axis in sweep.axes() {
            header.push_str(&format!(
                "- axis: {} = {}\n",
                axis.field,
                axis.values.join(" | ")
            ));
        }
        header.push('\n');
        header.push_str(&markdown_header());
        atomic_write(&text_path, header.as_bytes()).map_err(|err| io_err(&text_path, err))?;
        Ok(Ledger {
            text_path,
            json_path,
            rows: Vec::new(),
        })
    }

    fn has(&self, cell: usize, spec_hash: u64) -> bool {
        self.rows
            .iter()
            .any(|row| row.cell == cell && row.spec_hash == spec_hash)
    }

    /// Appends one row to the text ledger — append-only, fsynced, never
    /// rewriting earlier bytes.
    fn append(&mut self, row: LedgerRow) -> Result<(), SweepError> {
        let line = render_row(&row);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.text_path)
            .map_err(|err| io_err(&self.text_path, err))?;
        file.write_all(line.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(|err| io_err(&self.text_path, err))?;
        self.rows.push(row);
        Ok(())
    }

    /// Regenerates the JSON projection atomically, like checkpoints.
    fn write_json(
        &self,
        sweep: &SweepSpec,
        cells: &[SweepCell],
        fronts_dir: &Path,
    ) -> Result<(), SweepError> {
        let document = ledger_document(sweep, cells, &self.rows, fronts_dir);
        atomic_write(&self.json_path, document.to_json().to_pretty().as_bytes())
            .map_err(|err| io_err(&self.json_path, err))
    }
}

/// A column value's `ledger.md` text: how it shows in a row, and how it
/// parses back.
struct Text<T> {
    show: fn(&T) -> String,
    parse: fn(&str) -> Option<T>,
}

/// A cell index, zero-padded to four digits.
const INDEX: Text<usize> = Text {
    show: |cell| format!("{cell:04}"),
    parse: |text| text.parse().ok(),
};

/// A hash, as `0x` and 16 hex digits.
const HEX: Text<u64> = Text {
    show: |hash| format!("{hash:#018x}"),
    parse: |text| u64::from_str_radix(text.strip_prefix("0x")?, 16).ok(),
};

/// Free text.
const WORDS: Text<String> = Text {
    show: String::clone,
    parse: |text| Some(text.to_string()),
};

/// An unsigned integer.
const U64: Text<u64> = Text {
    show: u64::to_string,
    parse: |text| text.parse().ok(),
};

/// A count.
const USIZE: Text<usize> = Text {
    show: usize::to_string,
    parse: |text| text.parse().ok(),
};

/// A hypervolume, `-` for none.
const HV: Text<Option<f64>> = Text {
    show: |hv| hv.map_or_else(|| "-".to_string(), |hv| format!("{hv:?}")),
    parse: |text| match text {
        "-" => Some(None),
        number => number.parse().ok().map(Some),
    },
};

/// A cell's `(field, value)` coordinates, as an object of strings.
const COORDINATES: Kind<Vec<(String, String)>> = Kind {
    expected: "an object of strings",
    write: |pairs| {
        let pairs = pairs
            .iter()
            .map(|(field, value)| (field.clone(), JsonValue::string(value.clone())));
        JsonValue::object(pairs)
    },
    read: |value| match value {
        JsonValue::Object(pairs) => pairs
            .iter()
            .map(|(field, value)| Some((field.clone(), value.as_str()?.to_string())))
            .collect(),
        _ => None,
    },
};

/// A cell's status: `complete` (`true`) or `never` (run).
const STATUS: Kind<bool> = Kind {
    expected: "\"complete\" or \"never\"",
    write: |complete| JsonValue::string(if *complete { "complete" } else { "never" }),
    read: |value| match value.as_str()? {
        "complete" => Some(true),
        "never" => Some(false),
        _ => None,
    },
};

/// A reference point, or `null` where there is none.
const POINT: Kind<Option<Vec<f64>>> = Kind {
    expected: "null or an array of finite numbers",
    write: |point| {
        point
            .as_ref()
            .map_or(JsonValue::Null, |point| write_list(point, FINITE))
    },
    read: |value| {
        if value.is_null() {
            return Some(None);
        }
        let point = value.as_array()?.iter().map(FINITE.read);
        point.collect::<Option<_>>().map(Some)
    },
};

/// A fraction.
const UNIT: Kind<f64> = Kind {
    expected: "a number within [0, 1]",
    write: FINITE.write,
    read: |value| {
        value
            .as_f64()
            .filter(|fraction| (0.0..=1.0).contains(fraction))
    },
};

/// How a column's JSON field shows in a cell that never ran.
#[derive(Clone, Copy)]
enum Never {
    /// As in a complete cell: the cell's identity.
    Shown,
    /// As `null`: an outcome the cell does not have yet.
    Null,
    /// Not at all.
    Absent,
}

/// One ledger column: its `ledger.md` header, rule and text (`None`: the
/// column is JSON only), and the field of a `BENCH_sweep.json` cell.
struct Column {
    markdown: Option<Markdown>,
    field: Field<LedgerCell>,
}

/// A column's part of `ledger.md`.
struct Markdown {
    header: &'static str,
    rule: &'static str,
    show: fn(&LedgerRow) -> String,
    parse: fn(&mut LedgerRow, &str) -> Option<()>,
}

impl AsRef<Field<LedgerCell>> for Column {
    fn as_ref(&self) -> &Field<LedgerCell> {
        &self.field
    }
}

/// A [`Column`] of the row field `$field`: `ledger.md` shows it as `$text`,
/// the JSON cell as `$kind` under `$key`, and a cell that never ran as
/// `Never::$never` says.
macro_rules! column {
    ($header:literal $rule:literal $text:ident, $key:literal: $kind:ident => $field:ident, $never:ident) => {
        Column {
            markdown: Some(Markdown {
                header: $header,
                rule: $rule,
                show: |row| ($text.show)(&row.$field),
                parse: |row, text| {
                    row.$field = ($text.parse)(text)?;
                    Some(())
                },
            }),
            field: Field {
                key: $key,
                write: |cell| match (cell.complete, Never::$never) {
                    (false, Never::Null) => Some(JsonValue::Null),
                    (false, Never::Absent) => None,
                    _ => Some(($kind.write)(&cell.row.$field)),
                },
                read: Some(|cell, fields, key| match (cell.complete, Never::$never) {
                    (false, Never::Null) => fields.get(key, NULL),
                    (false, Never::Absent) => {}
                    _ => cell.row.$field = fields.get(key, $kind),
                }),
            },
        }
    };
}

/// The ledger's columns, in `ledger.md`'s and the JSON cells' order. The
/// status is read before the outcome columns, which depend on it.
static COLUMNS: [Column; 13] = [
    column!("cell" "-----:" INDEX, "cell": SIZE => cell, Shown),
    column!("spec-hash" "-----------" HEX, "spec_hash": HASH => spec_hash, Shown),
    Column {
        markdown: Some(Markdown {
            header: "coordinates",
            rule: "-------------",
            show: |row| row.coordinates.clone(),
            parse: |row, text| {
                row.coordinates = text.to_string();
                Some(())
            },
        }),
        // The JSON cell keeps the coordinates as an object.
        field: Field {
            key: "coordinates",
            write: |cell| Some((COORDINATES.write)(&cell.coordinates)),
            read: Some(|cell, fields, key| {
                cell.coordinates = fields.get(key, COORDINATES);
                let pairs = cell
                    .coordinates
                    .iter()
                    .map(|(field, value)| format!("{field}={value}"));
                cell.row.coordinates = pairs.collect::<Vec<_>>().join(" ");
            }),
        },
    },
    column!("problem" "---------" WORDS, "problem": TEXT => problem, Shown),
    column!("method" "--------" WORDS, "method": TEXT => method, Shown),
    column!("seed" "-----:" U64, "seed": COUNT => seed, Shown),
    Column {
        markdown: None,
        field: field!("status": STATUS => complete),
    },
    column!("gens" "-----:" USIZE, "generations": SIZE => generations, Null),
    column!("evals" "------:" USIZE, "evaluations": SIZE => evaluations, Null),
    column!("front" "------:" USIZE, "front_size": SIZE => front_size, Null),
    column!("hypervolume" "------------:" HV, "hypervolume": FINITE_OR_NULL => hypervolume, Null),
    column!("wall-ms" "--------:" U64, "wall_ms": COUNT => wall_ms, Absent),
    column!("unix" "-----:" U64, "unix": COUNT => unix, Absent),
];

/// The columns `ledger.md` shows.
fn markdown_columns() -> impl Iterator<Item = &'static Markdown> {
    COLUMNS.iter().filter_map(|column| column.markdown.as_ref())
}

/// `ledger.md`'s column header and rule lines.
fn markdown_header() -> String {
    let headers: Vec<&str> = markdown_columns().map(|column| column.header).collect();
    let rules: Vec<&str> = markdown_columns().map(|column| column.rule).collect();
    format!("| {} |\n|{}|\n", headers.join(" | "), rules.join("|"))
}

fn render_row(row: &LedgerRow) -> String {
    let texts: Vec<String> = markdown_columns()
        .map(|column| (column.show)(row))
        .collect();
    format!("| {} |\n", texts.join(" | "))
}

/// Parses a `ledger.md` back into its sweep hash and rows. Tolerates the
/// header block and the column/separator rows; anything shaped like a data
/// row must parse exactly.
fn parse_ledger(text: &str) -> Result<(u64, Vec<LedgerRow>), String> {
    let mut sweep_hash = None;
    let mut rows = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("- sweep-hash: ") {
            let hash =
                (HEX.parse)(rest.trim()).ok_or_else(|| format!("bad sweep-hash line '{line}'"))?;
            sweep_hash = Some(hash);
            continue;
        }
        if !line.starts_with('|') {
            continue;
        }
        let texts: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        // Data rows lead with a numeric cell index; the column-name and
        // separator rows do not.
        let Ok(cell) = texts[0].parse::<usize>() else {
            continue;
        };
        let columns: Vec<&Markdown> = markdown_columns().collect();
        if texts.len() != columns.len() {
            return Err(format!(
                "row for cell {cell} has {} columns, expected {}",
                texts.len(),
                columns.len()
            ));
        }
        let mut row = LedgerRow::default();
        for (text, column) in texts.iter().zip(columns) {
            (column.parse)(&mut row, text)
                .ok_or_else(|| format!("row for cell {cell}: bad {} '{text}'", column.header))?;
        }
        rows.push(row);
    }
    let sweep_hash = sweep_hash.ok_or_else(|| "missing 'sweep-hash:' line".to_string())?;
    Ok((sweep_hash, rows))
}

/// A `BENCH_sweep.json` document: the sweep's axes, every cell (complete,
/// or an explicit `never` placeholder), and the per-scenario summary. Its
/// field tables render it ([`LedgerDocument::to_json`]) and read it back
/// ([`LedgerDocument::from_json`]), so each key is spelled once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerDocument {
    /// The sweep's content hash.
    pub sweep_hash: u64,
    /// The grid's axes, in declaration order.
    pub axes: Vec<SweepAxis>,
    /// Every cell of the grid, in expansion order.
    pub cells: Vec<LedgerCell>,
    /// Per scenario, the methods' merged fronts.
    pub summary: Vec<ScenarioSummary>,
}

/// One cell of a ledger: its coordinates and its row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerCell {
    /// `(field, value)` per axis.
    pub coordinates: Vec<(String, String)>,
    /// The cell's row. A cell that never ran has only its identity
    /// columns (cell to seed) set.
    pub row: LedgerRow,
    /// Whether the cell ran to completion.
    pub complete: bool,
}

/// The summary of one scenario: every completed cell's front merged into
/// a global front, and each method's share of it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioSummary {
    /// Problem name plus its parameters.
    pub scenario: String,
    /// Size of the merged global front.
    pub global_front_size: usize,
    /// The reference point derived from the global front; `None` outside
    /// 2–3 objectives.
    pub reference_point: Option<Vec<f64>>,
    /// One entry per method, sorted by name.
    pub methods: Vec<MethodSummary>,
}

/// One method's merged front within a scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MethodSummary {
    /// The method (optimizer kind plus swept settings).
    pub method: String,
    /// Completed cells merged.
    pub cells: usize,
    /// Size of the merged front.
    pub front_size: usize,
    /// Its hypervolume against the scenario's reference point.
    pub hypervolume: Option<f64>,
    /// The fraction of the global front it contributes.
    pub coverage: f64,
}

static LEDGER: [Field<LedgerDocument>; 8] = [
    field!("format" = |_| JsonValue::string(BENCH_FORMAT)),
    field!("version" = |_| JsonValue::Int(BENCH_VERSION)),
    field!("sweep_hash": HASH => sweep_hash),
    field!("cells_total" = |ledger: &LedgerDocument| int(ledger.cells.len())),
    field!("cells_complete" = |ledger: &LedgerDocument| int(ledger.cells_complete())),
    field!("axes": [AXIS]+ => axes),
    Field {
        key: "cells",
        write: |ledger| Some(write_records(&ledger.cells, &COLUMNS)),
        read: Some(read_cells),
    },
    field!("summary": [SCENARIO] => summary),
];

static AXIS: [Field<SweepAxis>; 2] = [
    field!("field": TEXT => field),
    Field {
        key: "values",
        write: |axis| Some(write_list(&axis.values, TEXT)),
        read: Some(|axis, fields, key| {
            axis.values = fields.list(key, TEXT);
            if axis.values.is_empty() {
                fields.problem(key, "expected at least one value");
            }
        }),
    },
];

static SCENARIO: [Field<ScenarioSummary>; 4] = [
    field!("scenario": TEXT => scenario),
    field!("global_front_size": SIZE => global_front_size),
    field!("reference_point": POINT => reference_point),
    field!("methods": [METHOD]+ => methods),
];

static METHOD: [Field<MethodSummary>; 5] = [
    field!("method": TEXT => method),
    field!("cells": SIZE => cells),
    field!("front_size": SIZE => front_size),
    field!("hypervolume": FINITE_OR_NULL => hypervolume),
    field!("coverage": UNIT => coverage),
];

/// Reads the cells through the columns, then checks them against the
/// grid: cell `i` at position `i`, as many cells as the axes multiply to,
/// and one coordinate per axis.
fn read_cells(ledger: &mut LedgerDocument, fields: &mut Fields<'_>, key: &'static str) {
    ledger.cells = fields.records(key, &COLUMNS);
    let axes = ledger.axes.len();
    let product = ledger.axes.iter().fold(1usize, |product, axis| {
        product.saturating_mul(axis.values.len())
    });
    if axes > 0 && ledger.cells.len() != product {
        let held = ledger.cells.len();
        fields.problem(
            key,
            format_args!("holds {held} entries but the axes multiply to {product}"),
        );
    }
    for (at, cell) in ledger.cells.iter().enumerate() {
        let entry = format!("{key}[{at}]");
        if cell.row.cell != at {
            fields.problem(
                &entry,
                format_args!("is out of order: it holds cell {}", cell.row.cell),
            );
        }
        if axes > 0 && cell.coordinates.len() != axes {
            let named = cell.coordinates.len();
            fields.problem(
                &entry,
                format_args!("has {named} coordinates, the sweep has {axes} axes"),
            );
        }
    }
}

impl LedgerDocument {
    /// Cells that ran to completion.
    pub fn cells_complete(&self) -> usize {
        self.cells.iter().filter(|cell| cell.complete).count()
    }

    /// Renders the `BENCH_sweep.json` document.
    pub fn to_json(&self) -> JsonValue {
        write_record(self, &LEDGER)
    }

    /// Reads a `BENCH_sweep.json` document back: the format/version tags,
    /// the hash shape, every cell's fields (an outcome for a complete
    /// cell, `null`s for one that never ran), the cell count against the
    /// axes' product, and the summary's metric ranges. This is what CI
    /// runs against both freshly emitted and committed ledgers to catch
    /// format drift.
    ///
    /// # Errors
    ///
    /// Every problem found, each naming the path of its field.
    pub fn from_json(document: &JsonValue) -> Result<LedgerDocument, Vec<String>> {
        read_record(document, &LEDGER)
    }
}

/// The ledger document of `sweep` with `rows` complete: every cell
/// (completed rows verbatim, `never` placeholders otherwise) and the
/// per-scenario merged-front summary.
fn ledger_document(
    sweep: &SweepSpec,
    cells: &[SweepCell],
    rows: &[LedgerRow],
    fronts_dir: &Path,
) -> LedgerDocument {
    let ledger_cell = |cell: &SweepCell| {
        let row = rows.iter().find(|row| row.cell == cell.index);
        LedgerCell {
            coordinates: cell.coordinates.clone(),
            row: row.cloned().unwrap_or_else(|| identity_row(cell)),
            complete: row.is_some(),
        }
    };
    LedgerDocument {
        sweep_hash: sweep.content_hash(),
        axes: sweep.axes().to_vec(),
        cells: cells.iter().map(ledger_cell).collect(),
        summary: summarize(cells, rows, fronts_dir),
    }
}

/// The method × scenario summary: per scenario, merge every completed
/// cell's persisted front into a global front, then score each method's
/// own merged front by hypervolume (against a reference derived from the
/// global front) and by the fraction of the global front it contributes
/// ([`global_coverage`]).
fn summarize(cells: &[SweepCell], rows: &[LedgerRow], fronts_dir: &Path) -> Vec<ScenarioSummary> {
    use std::collections::BTreeMap;
    /// The objective vectors of one cell's persisted front.
    type Front = Vec<Vec<f64>>;
    // scenario -> method -> fronts of its completed cells.
    let mut scenarios: BTreeMap<String, BTreeMap<String, Vec<Front>>> = BTreeMap::new();
    for row in rows {
        let Some(cell) = cells.get(row.cell) else {
            continue;
        };
        let front_path = fronts_dir.join(format!("{}.front", cell.label()));
        let Ok(objectives) = read_front_objectives(&front_path) else {
            continue;
        };
        scenarios
            .entry(row.problem.clone())
            .or_default()
            .entry(row.method.clone())
            .or_default()
            .push(objectives);
    }
    scenarios
        .into_iter()
        .map(|(scenario, methods)| {
            let all: Vec<Vec<Vec<f64>>> = methods.values().flatten().cloned().collect();
            let global = union_front(&all);
            let dim = global.first().map_or(0, Vec::len);
            let reference_point = (2..=3).contains(&dim).then(|| derived_reference(&global));
            let methods = methods
                .into_iter()
                .map(|(method, fronts)| {
                    let merged = union_front(&fronts);
                    MethodSummary {
                        method,
                        cells: fronts.len(),
                        front_size: merged.len(),
                        hypervolume: reference_point
                            .as_ref()
                            .map(|reference| hypervolume(&merged, reference)),
                        coverage: global_coverage(&merged, &global),
                    }
                })
                .collect();
            ScenarioSummary {
                scenario,
                global_front_size: global.len(),
                reference_point,
                methods,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathway_moo::EvalBackend;

    const SWEEP: &str = "\
pathway-sweep v1

[sweep]
run.seed = 1 | 2

[problem]
name = schaffer

[optimizer]
kind = nsga2
population = 12

[run]
seed = 1
checkpoint_every = 2
reference_point = 25, 25

[stop]
max_generations = 4
";

    /// The ledger document `text` holds, or every problem with it.
    fn parse(text: &str) -> Result<LedgerDocument, Vec<String>> {
        let document = JsonValue::parse(text).map_err(|err| vec![err.to_string()])?;
        LedgerDocument::from_json(&document)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pathway-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn ledger_rows_round_trip_through_text() {
        let row = LedgerRow {
            cell: 7,
            spec_hash: 0x0123_4567_89ab_cdef,
            coordinates: "problem.name=zdt1 run.seed=2".to_string(),
            problem: "zdt1 variables=6".to_string(),
            method: "nsga2 population=50".to_string(),
            seed: 2,
            generations: 60,
            evaluations: 1440,
            front_size: 24,
            hypervolume: Some(0.1 + 0.2),
            wall_ms: 1234,
            unix: 1_754_600_000,
        };
        let text = format!(
            "- sweep-hash: 0xdeadbeefdeadbeef\n{}{}{}",
            markdown_header(),
            render_row(&row),
            render_row(&LedgerRow {
                hypervolume: None,
                cell: 8,
                ..row.clone()
            })
        );
        let (hash, rows) = parse_ledger(&text).unwrap();
        assert_eq!(hash, 0xdead_beef_dead_beef);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], row);
        assert_eq!(rows[1].hypervolume, None);
    }

    #[test]
    fn sweep_runs_skips_and_validates() {
        let dir = temp_dir("runner");
        let sweep = SweepSpec::from_text(SWEEP).unwrap();
        let executor = Executor::shared(EvalBackend::Serial);
        let mut events = Vec::new();
        let report = run_sweep(&sweep, &dir, executor.clone(), None, None, &mut |event| {
            events.push(format!("{event:?}"));
        })
        .unwrap();
        assert_eq!(report.cells, 2);
        assert_eq!(report.completed, 2);
        assert_eq!(report.interrupted, None);

        // Every artifact is on disk.
        let json_text = std::fs::read_to_string(dir.join("BENCH_sweep.json")).unwrap();
        let ledger = parse(&json_text).unwrap();
        assert_eq!(ledger.cells.len(), 2);
        assert_eq!(ledger.cells_complete(), 2);
        assert_eq!(
            ledger.to_json().to_pretty(),
            json_text,
            "read back byte for byte"
        );
        for cell in 0..2 {
            assert!(dir.join(format!("fronts/cell-000{cell}.front")).exists());
        }
        let fronts = read_front_objectives(&dir.join("fronts/cell-0000.front")).unwrap();
        assert!(!fronts.is_empty());
        assert_eq!(fronts[0].len(), 2);

        // A second invocation re-runs nothing and leaves the text ledger
        // byte-identical.
        let before = std::fs::read(dir.join("ledger.md")).unwrap();
        let report = run_sweep(&sweep, &dir, executor, None, None, &mut |_| {}).unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.skipped, 2);
        let after = std::fs::read(dir.join("ledger.md")).unwrap();
        assert_eq!(before, after);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_sweep_refuses_an_out_dir_another_sweep_holds() {
        let dir = temp_dir("locked");
        let sweep = SweepSpec::from_text(SWEEP).unwrap();
        let executor = Executor::shared(EvalBackend::Serial);
        let held = lock_out_dir(&dir).unwrap();
        let mut events = 0;
        let err = run_sweep(&sweep, &dir, executor.clone(), None, None, &mut |_| {
            events += 1
        })
        .unwrap_err();
        assert!(matches!(&err, SweepError::Locked { out_dir } if out_dir == &dir));
        assert!(
            err.to_string().contains("another sweep is running"),
            "{err}"
        );
        assert_eq!(events, 0, "nothing ran");
        assert!(!dir.join("ledger.md").exists(), "nothing was written");

        drop(held);
        let report = run_sweep(&sweep, &dir, executor, None, None, &mut |_| {}).unwrap();
        assert_eq!((report.completed, report.rows_total), (2, 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_leaves_the_ledger_bit_identical_and_records_phases() {
        let plain_dir = temp_dir("plain");
        let metered_dir = temp_dir("metered");
        let sweep = SweepSpec::from_text(SWEEP).unwrap();
        let executor = Executor::shared(EvalBackend::Serial);
        run_sweep(
            &sweep,
            &plain_dir,
            executor.clone(),
            None,
            None,
            &mut |_| {},
        )
        .unwrap();
        let registry = MetricsRegistry::new();
        run_sweep(
            &sweep,
            &metered_dir,
            executor,
            None,
            Some(&registry),
            &mut |_| {},
        )
        .unwrap();
        // Fronts are bit-exact files; telemetry must not perturb them.
        for cell in 0..2 {
            let name = format!("fronts/cell-000{cell}.front");
            assert_eq!(
                std::fs::read(plain_dir.join(&name)).unwrap(),
                std::fs::read(metered_dir.join(&name)).unwrap(),
                "{name} diverged under telemetry"
            );
        }
        let snapshot = registry.snapshot();
        // 2 cells × 4 generations each.
        assert_eq!(snapshot.counter("phase.generation.calls"), Some(8));
        assert!(
            snapshot
                .counter("phase.checkpoint_write.calls")
                .unwrap_or(0)
                >= 2
        );
        assert!(snapshot.counter("exec.candidates").unwrap_or(0) > 0);
        std::fs::remove_dir_all(&plain_dir).ok();
        std::fs::remove_dir_all(&metered_dir).ok();
    }

    #[test]
    fn a_foreign_ledger_is_refused() {
        let dir = temp_dir("foreign");
        let sweep = SweepSpec::from_text(SWEEP).unwrap();
        let other = SweepSpec::from_text(&SWEEP.replace("1 | 2", "3 | 4")).unwrap();
        let executor = Executor::shared(EvalBackend::Serial);
        run_sweep(&sweep, &dir, executor.clone(), Some(0), None, &mut |_| {}).unwrap();
        let err = run_sweep(&other, &dir, executor, None, None, &mut |_| {}).unwrap_err();
        assert!(
            err.to_string().contains("different sweep"),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validation_flags_drifted_ledgers() {
        let dir = temp_dir("validate");
        let sweep = SweepSpec::from_text(SWEEP).unwrap();
        let executor = Executor::shared(EvalBackend::Serial);
        run_sweep(&sweep, &dir, executor, None, None, &mut |_| {}).unwrap();
        let text = std::fs::read_to_string(dir.join("BENCH_sweep.json")).unwrap();

        let broken = text.replace("\"pathway-bench-sweep\"", "\"something-else\"");
        assert!(parse(&broken).is_err());
        let broken = text.replace("\"status\": \"complete\"", "\"status\": \"done\"");
        assert!(parse(&broken).is_err());
        assert!(parse("{not json").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn derived_references_sit_beyond_the_front() {
        let points = vec![vec![0.0, 4.0], vec![4.0, 0.0], vec![1.0, 1.0]];
        let reference = derived_reference(&points);
        assert_eq!(reference.len(), 2);
        assert!(reference.iter().all(|&r| r > 4.0));
        // Degenerate span still yields a strictly dominating reference.
        let flat = vec![vec![2.0, 2.0]];
        assert_eq!(derived_reference(&flat), vec![3.0, 3.0]);
    }
}
