//! Grid sweep execution and the durable results ledger.
//!
//! [`run_sweep`] takes a parsed [`SweepSpec`], expands it, and runs every
//! cell on **one** shared persistent [`Executor`] — the pool is paid for
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
    SweepCell, SweepSpec,
};
use pathway_moo::exec::Executor;
use pathway_moo::metrics::{global_coverage, hypervolume, union_front};
use pathway_moo::Individual;

use crate::jsonlite::JsonValue;
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
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Spec(err) => write!(f, "{err}"),
            SweepError::Checkpoint(err) => write!(f, "{err}"),
            SweepError::Engine(err) => write!(f, "{err}"),
            SweepError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            SweepError::Ledger(message) => write!(f, "ledger: {message}"),
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

/// One completed cell as recorded in the ledger.
#[derive(Debug, Clone, PartialEq)]
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
/// be re-run: completed rows stay.
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
    let cells = sweep.expand()?;
    let fronts_dir = out_dir.join("fronts");
    std::fs::create_dir_all(&fronts_dir).map_err(|err| io_err(&fronts_dir, err))?;
    let mut ledger = Ledger::open(out_dir, sweep, &cells)?;
    // Even a sweep interrupted in its first cell leaves a valid JSON
    // ledger behind (all placeholders).
    ledger.write_json(sweep, &cells, &fronts_dir)?;

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
    for cell in &cells {
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
            let ran = job.advance(remaining.unwrap_or(usize::MAX))?;
            if let Some(left) = &mut remaining {
                *left -= ran.min(*left);
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
            cell: cell.index,
            spec_hash: cell.spec.content_hash(),
            coordinates: cell.coordinates_string(),
            problem: scenario_of(cell),
            method: method_of(cell),
            seed: cell.spec.seed,
            generations: driver.generation(),
            evaluations: driver.optimizer().evaluations(),
            front_size: front.len(),
            hypervolume: cell_hypervolume(&cell.spec.reference_point, &objectives),
            wall_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
            unix: now_unix(),
        };
        ledger.append(row)?;
        ledger.write_json(sweep, &cells, &fronts_dir)?;
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

const LEDGER_COLUMNS: &str =
    "| cell | spec-hash | coordinates | problem | method | seed | gens | evals | front | hypervolume | wall-ms | unix |";

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
        for axis in &sweep.axes {
            header.push_str(&format!(
                "- axis: {} = {}\n",
                axis.field,
                axis.values.join(" | ")
            ));
        }
        header.push('\n');
        header.push_str(LEDGER_COLUMNS);
        header.push('\n');
        header.push_str(
            "|-----:|-----------|-------------|---------|--------|-----:|-----:|------:|------:|------------:|--------:|-----:|\n",
        );
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
        let document = bench_json(sweep, cells, &self.rows, fronts_dir);
        atomic_write(&self.json_path, document.to_pretty().as_bytes())
            .map_err(|err| io_err(&self.json_path, err))
    }
}

fn render_row(row: &LedgerRow) -> String {
    format!(
        "| {:04} | {:#018x} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
        row.cell,
        row.spec_hash,
        row.coordinates,
        row.problem,
        row.method,
        row.seed,
        row.generations,
        row.evaluations,
        row.front_size,
        row.hypervolume
            .map_or_else(|| "-".to_string(), |hv| format!("{hv:?}")),
        row.wall_ms,
        row.unix
    )
}

/// Parses a `ledger.md` back into its sweep hash and rows. Tolerates the
/// header block and the column/separator rows; anything shaped like a data
/// row must parse exactly.
fn parse_ledger(text: &str) -> Result<(u64, Vec<LedgerRow>), String> {
    let mut sweep_hash = None;
    let mut rows = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("- sweep-hash: ") {
            let digits = rest
                .trim()
                .strip_prefix("0x")
                .ok_or_else(|| format!("bad sweep-hash line '{line}'"))?;
            sweep_hash = Some(
                u64::from_str_radix(digits, 16)
                    .map_err(|_| format!("bad sweep-hash line '{line}'"))?,
            );
            continue;
        }
        if !line.starts_with('|') {
            continue;
        }
        let columns: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        // Data rows lead with a numeric cell index; the column-name and
        // separator rows do not.
        let Ok(cell) = columns[0].parse::<usize>() else {
            continue;
        };
        if columns.len() != 12 {
            return Err(format!(
                "row for cell {cell} has {} columns, expected 12",
                columns.len()
            ));
        }
        let hex = columns[1]
            .strip_prefix("0x")
            .ok_or_else(|| format!("row for cell {cell}: bad spec hash '{}'", columns[1]))?;
        let spec_hash = u64::from_str_radix(hex, 16)
            .map_err(|_| format!("row for cell {cell}: bad spec hash '{}'", columns[1]))?;
        let parse_u64 = |at: usize, what: &str| {
            columns[at]
                .parse::<u64>()
                .map_err(|_| format!("row for cell {cell}: bad {what} '{}'", columns[at]))
        };
        let parse_usize = |at: usize, what: &str| {
            columns[at]
                .parse::<usize>()
                .map_err(|_| format!("row for cell {cell}: bad {what} '{}'", columns[at]))
        };
        let hypervolume = match columns[9] {
            "-" => None,
            number => Some(
                number
                    .parse::<f64>()
                    .map_err(|_| format!("row for cell {cell}: bad hypervolume '{number}'"))?,
            ),
        };
        rows.push(LedgerRow {
            cell,
            spec_hash,
            coordinates: columns[2].to_string(),
            problem: columns[3].to_string(),
            method: columns[4].to_string(),
            seed: parse_u64(5, "seed")?,
            generations: parse_usize(6, "gens")?,
            evaluations: parse_usize(7, "evals")?,
            front_size: parse_usize(8, "front")?,
            hypervolume,
            wall_ms: parse_u64(10, "wall-ms")?,
            unix: parse_u64(11, "unix")?,
        });
    }
    let sweep_hash = sweep_hash.ok_or_else(|| "missing 'sweep-hash:' line".to_string())?;
    Ok((sweep_hash, rows))
}

/// Builds the `BENCH_sweep.json` document: header, every cell (completed
/// rows verbatim, `"never"` placeholders otherwise), and the per-scenario
/// merged-front summary.
fn bench_json(
    sweep: &SweepSpec,
    cells: &[SweepCell],
    rows: &[LedgerRow],
    fronts_dir: &Path,
) -> JsonValue {
    let hex = |hash: u64| JsonValue::String(format!("{hash:#018x}"));
    let axes = JsonValue::Array(
        sweep
            .axes
            .iter()
            .map(|axis| {
                JsonValue::Object(vec![
                    ("field".to_string(), JsonValue::String(axis.field.clone())),
                    (
                        "values".to_string(),
                        JsonValue::Array(
                            axis.values
                                .iter()
                                .map(|value| JsonValue::String(value.clone()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    let row_of = |cell: &SweepCell| rows.iter().find(|row| row.cell == cell.index);
    let cell_entries = JsonValue::Array(
        cells
            .iter()
            .map(|cell| {
                let coordinates = JsonValue::Object(
                    cell.coordinates
                        .iter()
                        .map(|(field, value)| (field.clone(), JsonValue::String(value.clone())))
                        .collect(),
                );
                let mut fields = vec![
                    ("cell".to_string(), JsonValue::Int(cell.index as i64)),
                    ("spec_hash".to_string(), hex(cell.spec.content_hash())),
                    ("coordinates".to_string(), coordinates),
                    ("problem".to_string(), JsonValue::String(scenario_of(cell))),
                    ("method".to_string(), JsonValue::String(method_of(cell))),
                    ("seed".to_string(), JsonValue::Int(cell.spec.seed as i64)),
                ];
                match row_of(cell) {
                    Some(row) => {
                        fields.push((
                            "status".to_string(),
                            JsonValue::String("complete".to_string()),
                        ));
                        fields.push((
                            "generations".to_string(),
                            JsonValue::Int(row.generations as i64),
                        ));
                        fields.push((
                            "evaluations".to_string(),
                            JsonValue::Int(row.evaluations as i64),
                        ));
                        fields.push((
                            "front_size".to_string(),
                            JsonValue::Int(row.front_size as i64),
                        ));
                        fields.push((
                            "hypervolume".to_string(),
                            row.hypervolume.map_or(JsonValue::Null, JsonValue::Number),
                        ));
                        fields.push(("wall_ms".to_string(), JsonValue::Int(row.wall_ms as i64)));
                        fields.push(("unix".to_string(), JsonValue::Int(row.unix as i64)));
                    }
                    None => {
                        // The committed-table idiom: work not yet done is
                        // an explicit placeholder, not a missing row.
                        fields.push(("status".to_string(), JsonValue::String("never".to_string())));
                        for metric in ["generations", "evaluations", "front_size", "hypervolume"] {
                            fields.push((metric.to_string(), JsonValue::Null));
                        }
                    }
                }
                JsonValue::Object(fields)
            })
            .collect(),
    );
    JsonValue::Object(vec![
        (
            "format".to_string(),
            JsonValue::String(BENCH_FORMAT.to_string()),
        ),
        ("version".to_string(), JsonValue::Int(BENCH_VERSION)),
        ("sweep_hash".to_string(), hex(sweep.content_hash())),
        (
            "cells_total".to_string(),
            JsonValue::Int(cells.len() as i64),
        ),
        (
            "cells_complete".to_string(),
            JsonValue::Int(rows.len() as i64),
        ),
        ("axes".to_string(), axes),
        ("cells".to_string(), cell_entries),
        ("summary".to_string(), summary_json(cells, rows, fronts_dir)),
    ])
}

/// The method × scenario summary: per scenario, merge every completed
/// cell's persisted front into a global front, then score each method's
/// own merged front by hypervolume (against a reference derived from the
/// global front) and by the fraction of the global front it contributes
/// ([`global_coverage`]).
fn summary_json(cells: &[SweepCell], rows: &[LedgerRow], fronts_dir: &Path) -> JsonValue {
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
    JsonValue::Array(
        scenarios
            .into_iter()
            .map(|(scenario, methods)| {
                let all: Vec<Vec<Vec<f64>>> = methods.values().flatten().cloned().collect();
                let global = union_front(&all);
                let dim = global.first().map_or(0, Vec::len);
                let reference = if (2..=3).contains(&dim) {
                    Some(derived_reference(&global))
                } else {
                    None
                };
                let method_entries = JsonValue::Array(
                    methods
                        .into_iter()
                        .map(|(method, fronts)| {
                            let merged = union_front(&fronts);
                            let merged_hv = reference
                                .as_ref()
                                .map(|reference| hypervolume(&merged, reference));
                            JsonValue::Object(vec![
                                ("method".to_string(), JsonValue::String(method)),
                                ("cells".to_string(), JsonValue::Int(fronts.len() as i64)),
                                (
                                    "front_size".to_string(),
                                    JsonValue::Int(merged.len() as i64),
                                ),
                                (
                                    "hypervolume".to_string(),
                                    merged_hv.map_or(JsonValue::Null, JsonValue::Number),
                                ),
                                (
                                    "coverage".to_string(),
                                    JsonValue::Number(global_coverage(&merged, &global)),
                                ),
                            ])
                        })
                        .collect(),
                );
                JsonValue::Object(vec![
                    ("scenario".to_string(), JsonValue::String(scenario)),
                    (
                        "global_front_size".to_string(),
                        JsonValue::Int(global.len() as i64),
                    ),
                    (
                        "reference_point".to_string(),
                        reference.map_or(JsonValue::Null, |reference| {
                            JsonValue::Array(reference.into_iter().map(JsonValue::Number).collect())
                        }),
                    ),
                    ("methods".to_string(), method_entries),
                ])
            })
            .collect(),
    )
}

/// What [`validate_bench_json`] found in a healthy ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerCheck {
    /// The ledger's sweep hash, as printed.
    pub sweep_hash: String,
    /// Total cells in the grid.
    pub cells_total: usize,
    /// Cells with completed rows.
    pub cells_complete: usize,
}

/// Validates a `BENCH_sweep.json` document against the ledger schema: the
/// format/version tags, the hash shape, cell count vs. the axes' product,
/// per-cell field presence and ranges, and the summary's metric ranges.
/// This is what CI runs against both freshly emitted and committed ledgers
/// to catch format drift.
///
/// # Errors
///
/// Every problem found, as one human-readable string each.
pub fn validate_bench_json(text: &str) -> Result<LedgerCheck, Vec<String>> {
    let mut problems = Vec::new();
    let document = match JsonValue::parse(text) {
        Ok(document) => document,
        Err(err) => return Err(vec![format!("not valid JSON: {err}")]),
    };
    let is_hash = |value: Option<&JsonValue>| {
        value.and_then(JsonValue::as_str).is_some_and(|hash| {
            hash.len() == 18
                && hash.starts_with("0x")
                && hash[2..].chars().all(|c| c.is_ascii_hexdigit())
        })
    };
    if document.get("format").and_then(JsonValue::as_str) != Some(BENCH_FORMAT) {
        problems.push(format!("'format' must be \"{BENCH_FORMAT}\""));
    }
    if document.get("version").and_then(JsonValue::as_i64) != Some(BENCH_VERSION) {
        problems.push(format!("'version' must be {BENCH_VERSION}"));
    }
    if !is_hash(document.get("sweep_hash")) {
        problems.push("'sweep_hash' must be an 0x-prefixed 16-digit hex string".to_string());
    }
    let mut expected_cells = 1usize;
    let mut axis_fields = Vec::new();
    match document.get("axes").and_then(JsonValue::as_array) {
        Some(axes) if !axes.is_empty() => {
            for (at, axis) in axes.iter().enumerate() {
                match axis.get("field").and_then(JsonValue::as_str) {
                    Some(field) => axis_fields.push(field.to_string()),
                    None => problems.push(format!("axis {at} is missing 'field'")),
                }
                match axis.get("values").and_then(JsonValue::as_array) {
                    Some(values) if !values.is_empty() => {
                        expected_cells = expected_cells.saturating_mul(values.len());
                        if values.iter().any(|value| value.as_str().is_none()) {
                            problems.push(format!("axis {at} has a non-string value"));
                        }
                    }
                    _ => problems.push(format!("axis {at} needs a non-empty 'values' array")),
                }
            }
        }
        _ => problems.push("'axes' must be a non-empty array".to_string()),
    }
    let cells_total = document
        .get("cells_total")
        .and_then(JsonValue::as_i64)
        .unwrap_or(-1);
    let cells = document
        .get("cells")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    if cells_total != cells.len() as i64 {
        problems.push(format!(
            "'cells_total' is {cells_total} but 'cells' holds {} entries",
            cells.len()
        ));
    }
    if !axis_fields.is_empty() && cells.len() != expected_cells {
        problems.push(format!(
            "'cells' holds {} entries but the axes multiply to {expected_cells}",
            cells.len()
        ));
    }
    let mut complete = 0usize;
    for (at, cell) in cells.iter().enumerate() {
        if cell.get("cell").and_then(JsonValue::as_i64) != Some(at as i64) {
            problems.push(format!("cell {at}: 'cell' index out of order"));
        }
        if !is_hash(cell.get("spec_hash")) {
            problems.push(format!("cell {at}: bad 'spec_hash'"));
        }
        match cell.get("coordinates") {
            Some(JsonValue::Object(fields)) => {
                let names: Vec<&String> = fields.iter().map(|(name, _)| name).collect();
                if !axis_fields.is_empty() && names.len() != axis_fields.len() {
                    problems.push(format!(
                        "cell {at}: coordinates name {} fields, the sweep has {} axes",
                        names.len(),
                        axis_fields.len()
                    ));
                }
            }
            _ => problems.push(format!("cell {at}: 'coordinates' must be an object")),
        }
        let finite_or_null = |key: &str| match cell.get(key) {
            Some(JsonValue::Null) => true,
            Some(value) => value.as_f64().is_some_and(f64::is_finite),
            None => false,
        };
        match cell.get("status").and_then(JsonValue::as_str) {
            Some("complete") => {
                complete += 1;
                for key in [
                    "generations",
                    "evaluations",
                    "front_size",
                    "wall_ms",
                    "unix",
                ] {
                    if cell
                        .get(key)
                        .and_then(JsonValue::as_i64)
                        .is_none_or(|value| value < 0)
                    {
                        problems.push(format!(
                            "cell {at}: complete but '{key}' is not a non-negative integer"
                        ));
                    }
                }
                if !finite_or_null("hypervolume") {
                    problems.push(format!(
                        "cell {at}: 'hypervolume' must be a finite number or null"
                    ));
                }
            }
            Some("never") => {
                for key in ["generations", "evaluations", "front_size", "hypervolume"] {
                    if !cell.get(key).is_some_and(JsonValue::is_null) {
                        problems.push(format!("cell {at}: never ran but '{key}' is not null"));
                    }
                }
            }
            other => problems.push(format!(
                "cell {at}: 'status' must be \"complete\" or \"never\", got {other:?}"
            )),
        }
    }
    if document.get("cells_complete").and_then(JsonValue::as_i64) != Some(complete as i64) {
        problems.push(format!(
            "'cells_complete' disagrees with the {complete} complete cells"
        ));
    }
    match document.get("summary").and_then(JsonValue::as_array) {
        Some(summary) => {
            for scenario in summary {
                let name = scenario
                    .get("scenario")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?");
                let methods = scenario
                    .get("methods")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&[]);
                if methods.is_empty() {
                    problems.push(format!("summary '{name}': no methods"));
                }
                for method in methods {
                    let coverage = method.get("coverage").and_then(JsonValue::as_f64);
                    if !coverage.is_some_and(|value| (0.0..=1.0).contains(&value)) {
                        problems.push(format!("summary '{name}': coverage must be within [0, 1]"));
                    }
                    match method.get("hypervolume") {
                        Some(JsonValue::Null) => {}
                        Some(value) if value.as_f64().is_some_and(f64::is_finite) => {}
                        _ => problems.push(format!(
                            "summary '{name}': hypervolume must be finite or null"
                        )),
                    }
                }
            }
        }
        None => problems.push("'summary' must be an array".to_string()),
    }
    if problems.is_empty() {
        Ok(LedgerCheck {
            sweep_hash: document
                .get("sweep_hash")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
            cells_total: cells.len(),
            cells_complete: complete,
        })
    } else {
        Err(problems)
    }
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
            "- sweep-hash: 0xdeadbeefdeadbeef\n{LEDGER_COLUMNS}\n|---|\n{}{}",
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
        let check = validate_bench_json(&json_text).unwrap();
        assert_eq!(check.cells_total, 2);
        assert_eq!(check.cells_complete, 2);
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
        assert!(validate_bench_json(&broken).is_err());
        let broken = text.replace("\"status\": \"complete\"", "\"status\": \"done\"");
        assert!(validate_bench_json(&broken).is_err());
        assert!(validate_bench_json("{not json").is_err());
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
