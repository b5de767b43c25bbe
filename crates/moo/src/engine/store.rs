//! Durable, cross-process checkpoints.
//!
//! [`crate::engine::Driver::checkpoint`] produces a plain-data
//! [`RunCheckpoint`]; this module makes it *durable*: a self-contained byte
//! codec (every `f64` stored via its IEEE-754 bits, so restored runs are
//! bit-identical), a versioned header with an FNV-1a integrity checksum, the
//! canonical spec text embedded alongside the state, and atomic
//! write-then-rename persistence so a crash mid-write never leaves a
//! half-checkpoint behind.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! magic    4 bytes  b"PWCK"
//! version  u32      currently 1
//! spec     u64 hash, u32 length, UTF-8 canonical spec text
//! payload  u64 length, encoded RunCheckpoint
//! checksum u64      FNV-1a over every preceding byte
//! ```
//!
//! Embedding the spec makes a checkpoint self-describing: `pathway resume`
//! needs only the checkpoint file, and a resume attempted against a
//! *different* spec is rejected by hash ([`StoredCheckpoint::ensure_matches`])
//! instead of silently diverging.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::engine::spec::fnv1a64;
use crate::engine::{
    ArchipelagoState, MoeadState, Nsga2State, OptimizerState, RngState, RunCheckpoint, RunSpec,
};
use crate::Individual;

const MAGIC: &[u8; 4] = b"PWCK";
const VERSION: u32 = 1;
const EXTENSION: &str = "ckpt";

/// Errors surfaced by checkpoint persistence.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The integrity checksum does not match — truncated or bit-rotted file.
    ChecksumMismatch {
        /// Checksum recomputed from the file contents.
        computed: u64,
        /// Checksum stored in the file.
        stored: u64,
    },
    /// The file is structurally broken (short reads, impossible lengths).
    Corrupted {
        /// What failed to decode.
        detail: String,
    },
    /// The checkpoint belongs to a different spec than the one resuming.
    SpecMismatch {
        /// Content hash of the spec attempting to resume.
        expected: u64,
        /// Content hash recorded in the checkpoint.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(err) => write!(f, "checkpoint I/O error: {err}"),
            CheckpointError::BadMagic => {
                write!(f, "not a pathway checkpoint (bad magic)")
            }
            CheckpointError::UnsupportedVersion(version) => {
                write!(f, "unsupported checkpoint version {version} (this build reads v{VERSION})")
            }
            CheckpointError::ChecksumMismatch { computed, stored } => write!(
                f,
                "checkpoint integrity check failed (computed {computed:#018x}, stored {stored:#018x}): file is truncated or corrupted"
            ),
            CheckpointError::Corrupted { detail } => {
                write!(f, "corrupted checkpoint: {detail}")
            }
            CheckpointError::SpecMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different run spec (resuming spec hash {expected:#018x}, checkpoint spec hash {found:#018x}); resuming would silently diverge — pass the original spec or drop the override"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(err: std::io::Error) -> Self {
        CheckpointError::Io(err)
    }
}

/// A checkpoint read back from disk: the engine state plus the canonical
/// spec text it was produced under.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredCheckpoint {
    /// Canonical text of the spec the run was launched from.
    pub spec_text: String,
    /// [`RunSpec::content_hash`] of that spec.
    pub spec_hash: u64,
    /// The engine state.
    pub checkpoint: RunCheckpoint,
}

impl StoredCheckpoint {
    /// Generations completed when the checkpoint was taken.
    pub fn generation(&self) -> usize {
        self.checkpoint.generation
    }

    /// Cumulative candidate evaluations recorded in the optimizer snapshot.
    pub fn evaluations(&self) -> usize {
        match &self.checkpoint.optimizer {
            OptimizerState::Nsga2(state) => state.evaluations,
            OptimizerState::Moead(state) => state.evaluations,
            OptimizerState::Archipelago(state) => {
                state.islands.iter().map(|island| island.evaluations).sum()
            }
        }
    }

    /// Rejects the checkpoint unless it was produced by exactly `spec`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::SpecMismatch`] when the content hashes differ.
    pub fn ensure_matches(&self, spec: &RunSpec) -> Result<(), CheckpointError> {
        let expected = spec.content_hash();
        if expected != self.spec_hash {
            return Err(CheckpointError::SpecMismatch {
                expected,
                found: self.spec_hash,
            });
        }
        Ok(())
    }
}

/// Serializes a checkpoint (and its spec text) into the on-disk byte format.
pub fn encode_checkpoint(spec_text: &str, checkpoint: &RunCheckpoint) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4096);
    write_checkpoint_payload(&mut payload, checkpoint);

    let mut bytes = Vec::with_capacity(payload.len() + spec_text.len() + 64);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&fnv1a64(spec_text.as_bytes()).to_le_bytes());
    bytes.extend_from_slice(&(spec_text.len() as u32).to_le_bytes());
    bytes.extend_from_slice(spec_text.as_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let checksum = fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Deserializes the on-disk byte format back into a [`StoredCheckpoint`].
///
/// # Errors
///
/// Any [`CheckpointError`] except `Io`/`SpecMismatch`: bad magic, version,
/// checksum or structural corruption.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<StoredCheckpoint, CheckpointError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(CheckpointError::Corrupted {
            detail: format!("file is only {} bytes long", bytes.len()),
        });
    }
    if &bytes[..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("length checked"));
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let body_len = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_len..].try_into().expect("length checked"));
    let computed = fnv1a64(&bytes[..body_len]);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { computed, stored });
    }

    let mut reader = Reader {
        bytes: &bytes[..body_len],
        at: 8,
    };
    let spec_hash = reader.u64("spec hash")?;
    let spec_len = reader.u32("spec length")? as usize;
    let spec_bytes = reader.take(spec_len, "spec text")?;
    let spec_text = std::str::from_utf8(spec_bytes)
        .map_err(|_| CheckpointError::Corrupted {
            detail: "spec text is not UTF-8".to_string(),
        })?
        .to_string();
    if fnv1a64(spec_text.as_bytes()) != spec_hash {
        return Err(CheckpointError::Corrupted {
            detail: "embedded spec text does not match the recorded spec hash".to_string(),
        });
    }
    let payload_len = reader.u64("payload length")? as usize;
    let payload = reader.take(payload_len, "payload")?;
    let mut payload_reader = Reader {
        bytes: payload,
        at: 0,
    };
    let checkpoint = read_checkpoint_payload(&mut payload_reader)?;
    if payload_reader.at != payload.len() {
        return Err(CheckpointError::Corrupted {
            detail: format!(
                "{} trailing payload bytes after the checkpoint",
                payload.len() - payload_reader.at
            ),
        });
    }
    Ok(StoredCheckpoint {
        spec_text,
        spec_hash,
        checkpoint,
    })
}

/// Writes a checkpoint file atomically with [`atomic_write`], so readers
/// only ever observe complete checkpoints.
///
/// # Errors
///
/// Propagates filesystem failures as [`CheckpointError::Io`].
pub fn write_checkpoint_file(
    path: &Path,
    spec_text: &str,
    checkpoint: &RunCheckpoint,
) -> Result<(), CheckpointError> {
    atomic_write(path, &encode_checkpoint(spec_text, checkpoint))?;
    Ok(())
}

/// Replaces `path` with `bytes` atomically: the bytes go to a sibling
/// temporary file (`.<name>.tmp`) which is fsynced and then renamed over
/// `path`, so a reader — or a restart after a crash — sees either the old
/// file or the complete new one, never a torn one.
///
/// # Errors
///
/// Propagates filesystem failures, including a missing parent directory;
/// nothing is created then.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // The rename itself lives in the directory entry; without syncing the
    // directory a power loss could lose the (complete, synced) file. Best
    // effort: directories cannot be opened for sync on all platforms.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Reads and verifies a checkpoint file.
///
/// # Errors
///
/// [`CheckpointError::Io`] for filesystem failures, otherwise the decode
/// errors of [`decode_checkpoint`].
pub fn read_checkpoint_file(path: &Path) -> Result<StoredCheckpoint, CheckpointError> {
    let bytes = fs::read(path)?;
    decode_checkpoint(&bytes)
}

/// Which `gen-<n>.ckpt` files a [`CheckpointStore`] keeps on disk.
///
/// A long run with a tight checkpoint cadence writes thousands of files the
/// run will never resume from; a retention policy bounds that. After every
/// save the store deletes any checkpoint that is neither among the newest
/// `keep_last` generations nor (when `keep_every > 0`) at a generation
/// divisible by `keep_every`. The default store keeps everything — retention
/// is strictly opt-in, via the `checkpoint_keep_last` /
/// `checkpoint_keep_every` keys of a run spec's `[run]` section, which
/// [`CheckpointStore::create`] installs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointRetention {
    /// Always keep the newest `keep_last` checkpoints (at least 1 — the
    /// latest checkpoint is what `resume` needs and is never deleted).
    pub keep_last: usize,
    /// Additionally keep every checkpoint whose generation is a multiple of
    /// this; `0` disables the modular keeps.
    pub keep_every: usize,
}

impl CheckpointRetention {
    /// `true` when a checkpoint at `generation`, currently the
    /// `newest_rank`-th newest on disk (0 = newest), survives this policy.
    fn keeps(&self, generation: usize, newest_rank: usize) -> bool {
        newest_rank < self.keep_last.max(1)
            || (self.keep_every > 0 && generation.is_multiple_of(self.keep_every))
    }
}

/// A directory of checkpoints for one run.
///
/// The store remembers the run's canonical spec text, names files by
/// generation (`gen-<n>.ckpt`) and writes them atomically, so a `pathway
/// resume` (or any other process) can pick up [`CheckpointStore::latest`] at
/// any time — including while the run is still writing. An optional
/// [`CheckpointRetention`] policy prunes old generations after each save;
/// without one (the default) every checkpoint is kept.
///
/// # Example
///
/// ```no_run
/// use pathway_moo::engine::{CheckpointStore, RunSpec};
/// # fn demo(spec: &RunSpec, checkpoint: &pathway_moo::engine::RunCheckpoint) {
/// let store = CheckpointStore::create("checkpoints", spec).unwrap();
/// let path = store.save(checkpoint).unwrap();
/// let restored = CheckpointStore::load_matching(&path, spec).unwrap();
/// assert_eq!(&restored.checkpoint, checkpoint);
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    spec_text: String,
    retention: Option<CheckpointRetention>,
}

impl CheckpointStore {
    /// Creates the store directory (and parents) if needed and binds it to
    /// `spec`'s canonical text. Retention follows the spec: a
    /// `checkpoint_keep_last` in the spec's `[run]` section is installed
    /// automatically, otherwise every checkpoint is kept.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(dir: impl Into<PathBuf>, spec: &RunSpec) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            spec_text: spec.to_text(),
            retention: spec.retention,
        })
    }

    /// The active retention policy, if any.
    pub fn retention(&self) -> Option<CheckpointRetention> {
        self.retention
    }

    /// The directory checkpoints are written into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Atomically writes `checkpoint` as `gen-<generation>.ckpt`, applies
    /// the retention policy, and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures. The new checkpoint is durable before
    /// any pruning starts, so a prune failure never loses the save.
    pub fn save(&self, checkpoint: &RunCheckpoint) -> Result<PathBuf, CheckpointError> {
        let path = self
            .dir
            .join(format!("gen-{}.{EXTENSION}", checkpoint.generation));
        write_checkpoint_file(&path, &self.spec_text, checkpoint)?;
        // The file just written is exempt from its own prune: a directory
        // holding stale *higher* generations (a resume extended past an old
        // run's leftovers) must not swallow the checkpoint this save
        // produced.
        self.prune_keeping(Some(checkpoint.generation))?;
        Ok(path)
    }

    /// Deletes every checkpoint the retention policy does not keep. No-op
    /// without a policy.
    ///
    /// # Errors
    ///
    /// Propagates directory-read and file-removal failures.
    pub fn prune(&self) -> Result<(), CheckpointError> {
        self.prune_keeping(None)
    }

    fn prune_keeping(&self, exempt: Option<usize>) -> Result<(), CheckpointError> {
        let Some(retention) = self.retention else {
            return Ok(());
        };
        let mut stored: Vec<(usize, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if let Some(generation) = Self::generation_of(&path) {
                stored.push((generation, path));
            }
        }
        // Newest first, so the index is the "newest rank" the policy reads.
        stored.sort_by_key(|(generation, _)| std::cmp::Reverse(*generation));
        for (rank, (generation, path)) in stored.iter().enumerate() {
            if Some(*generation) == exempt {
                continue;
            }
            if !retention.keeps(*generation, rank) {
                match fs::remove_file(path) {
                    Ok(()) => {}
                    // Another process (a concurrent resume's own prune, a
                    // user cleanup) may have deleted it first; the goal —
                    // the file being gone — is met either way, and a save
                    // must not fail after durably writing its checkpoint.
                    Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
                    Err(err) => return Err(err.into()),
                }
            }
        }
        Ok(())
    }

    /// The stored checkpoint with the highest generation, if any.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn latest(&self) -> Result<Option<PathBuf>, CheckpointError> {
        let mut best: Option<(usize, PathBuf)> = None;
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(generation) = Self::generation_of(&path) else {
                continue;
            };
            if best.as_ref().is_none_or(|(g, _)| generation > *g) {
                best = Some((generation, path));
            }
        }
        Ok(best.map(|(_, path)| path))
    }

    /// Loads the newest stored checkpoint, if any, and rejects it unless it
    /// was produced by exactly `spec` — the "resume if there is anything to
    /// resume" step of sweep cells and daemon jobs.
    ///
    /// # Errors
    ///
    /// The errors of [`CheckpointStore::latest`] and
    /// [`CheckpointStore::load_matching`].
    pub fn latest_matching(
        &self,
        spec: &RunSpec,
    ) -> Result<Option<StoredCheckpoint>, CheckpointError> {
        self.latest()?
            .map(|path| Self::load_matching(&path, spec))
            .transpose()
    }

    /// Parses the generation number out of a `gen-<n>.ckpt` file name.
    pub fn generation_of(path: &Path) -> Option<usize> {
        let name = path.file_name()?.to_str()?;
        name.strip_prefix("gen-")?
            .strip_suffix(&format!(".{EXTENSION}"))?
            .parse()
            .ok()
    }

    /// Reads a checkpoint file without any spec check (the embedded spec is
    /// still integrity-verified against its recorded hash).
    ///
    /// # Errors
    ///
    /// See [`read_checkpoint_file`].
    pub fn load(path: &Path) -> Result<StoredCheckpoint, CheckpointError> {
        read_checkpoint_file(path)
    }

    /// Reads a checkpoint file and rejects it unless it was produced by
    /// exactly `spec` (by canonical content hash).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::SpecMismatch`] on hash divergence, otherwise the
    /// errors of [`read_checkpoint_file`].
    pub fn load_matching(path: &Path, spec: &RunSpec) -> Result<StoredCheckpoint, CheckpointError> {
        let stored = read_checkpoint_file(path)?;
        stored.ensure_matches(spec)?;
        Ok(stored)
    }
}

// ----------------------------------------------------------- byte codec --

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .at
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.at..end];
                self.at = end;
                Ok(slice)
            }
            None => Err(CheckpointError::Corrupted {
                detail: format!(
                    "truncated while reading {what} ({len} bytes at offset {}, {} available)",
                    self.at,
                    self.bytes.len() - self.at
                ),
            }),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn usize(&mut self, what: &str) -> Result<usize, CheckpointError> {
        let value = self.u64(what)?;
        usize::try_from(value).map_err(|_| CheckpointError::Corrupted {
            detail: format!("{what} {value} does not fit in usize"),
        })
    }

    /// Length prefix for a sequence of elements each at least `element_size`
    /// bytes — bounds the length against the remaining input so corrupt
    /// lengths fail fast instead of attempting huge allocations.
    fn sequence_len(&mut self, element_size: usize, what: &str) -> Result<usize, CheckpointError> {
        let len = self.usize(what)?;
        let remaining = self.bytes.len() - self.at;
        if len.saturating_mul(element_size.max(1)) > remaining {
            return Err(CheckpointError::Corrupted {
                detail: format!("{what} claims {len} elements but only {remaining} bytes remain"),
            });
        }
        Ok(len)
    }

    fn f64(&mut self, what: &str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
}

fn write_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn write_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn write_f64(out: &mut Vec<u8>, value: f64) {
    write_u64(out, value.to_bits());
}

fn write_f64_slice(out: &mut Vec<u8>, values: &[f64]) {
    write_u32(out, values.len() as u32);
    for &value in values {
        write_f64(out, value);
    }
}

fn read_f64_vec(reader: &mut Reader<'_>, what: &str) -> Result<Vec<f64>, CheckpointError> {
    let len = reader.u32(what)? as usize;
    let mut values = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        values.push(reader.f64(what)?);
    }
    Ok(values)
}

fn write_individual(out: &mut Vec<u8>, individual: &Individual) {
    write_f64_slice(out, &individual.variables);
    write_f64_slice(out, &individual.objectives);
    write_f64(out, individual.violation);
    write_u64(out, individual.rank as u64);
    write_f64(out, individual.crowding);
}

fn read_individual(reader: &mut Reader<'_>) -> Result<Individual, CheckpointError> {
    let variables = read_f64_vec(reader, "individual variables")?;
    let objectives = read_f64_vec(reader, "individual objectives")?;
    let violation = reader.f64("individual violation")?;
    let rank = reader.u64("individual rank")? as usize;
    let crowding = reader.f64("individual crowding")?;
    let mut individual = Individual::from_evaluated(variables, objectives, violation);
    individual.rank = rank;
    individual.crowding = crowding;
    Ok(individual)
}

fn write_individuals(out: &mut Vec<u8>, individuals: &[Individual]) {
    write_u64(out, individuals.len() as u64);
    for individual in individuals {
        write_individual(out, individual);
    }
}

fn read_individuals(reader: &mut Reader<'_>) -> Result<Vec<Individual>, CheckpointError> {
    // Each individual is at least two length prefixes + three scalars.
    let len = reader.sequence_len(32, "population length")?;
    let mut individuals = Vec::with_capacity(len);
    for _ in 0..len {
        individuals.push(read_individual(reader)?);
    }
    Ok(individuals)
}

fn write_rng(out: &mut Vec<u8>, rng: &RngState) {
    for &word in &rng.0 {
        write_u64(out, word);
    }
}

fn read_rng(reader: &mut Reader<'_>) -> Result<RngState, CheckpointError> {
    let mut words = [0u64; 4];
    for word in &mut words {
        *word = reader.u64("rng state")?;
    }
    Ok(RngState(words))
}

fn write_nsga2_state(out: &mut Vec<u8>, state: &Nsga2State) {
    write_rng(out, &state.rng);
    write_u64(out, state.evaluations as u64);
    write_individuals(out, &state.population);
}

fn read_nsga2_state(reader: &mut Reader<'_>) -> Result<Nsga2State, CheckpointError> {
    Ok(Nsga2State {
        rng: read_rng(reader)?,
        evaluations: reader.usize("evaluations")?,
        population: read_individuals(reader)?,
    })
}

fn write_checkpoint_payload(out: &mut Vec<u8>, checkpoint: &RunCheckpoint) {
    write_u64(out, checkpoint.generation as u64);
    match &checkpoint.reference_point {
        None => out.push(0),
        Some(reference) => {
            out.push(1);
            write_f64_slice(out, reference);
        }
    }
    write_u32(out, checkpoint.hypervolume_history.len() as u32);
    for &value in &checkpoint.hypervolume_history {
        write_f64(out, value);
    }
    match &checkpoint.optimizer {
        OptimizerState::Nsga2(state) => {
            out.push(0);
            write_nsga2_state(out, state);
        }
        OptimizerState::Moead(state) => {
            out.push(1);
            write_rng(out, &state.rng);
            write_u64(out, state.evaluations as u64);
            write_f64_slice(out, &state.ideal);
            write_individuals(out, &state.population);
        }
        OptimizerState::Archipelago(state) => {
            out.push(2);
            write_u64(out, state.islands.len() as u64);
            for island in &state.islands {
                write_nsga2_state(out, island);
            }
            write_u64(out, state.archives.len() as u64);
            for archive in &state.archives {
                write_individuals(out, archive);
            }
            write_rng(out, &state.migration_rng);
            write_u64(out, state.generations_done as u64);
        }
    }
}

fn read_checkpoint_payload(reader: &mut Reader<'_>) -> Result<RunCheckpoint, CheckpointError> {
    let generation = reader.usize("generation")?;
    let reference_point = match reader.take(1, "reference point flag")?[0] {
        0 => None,
        1 => Some(read_f64_vec(reader, "reference point")?),
        other => {
            return Err(CheckpointError::Corrupted {
                detail: format!("invalid reference point flag {other}"),
            })
        }
    };
    let hypervolume_history = read_f64_vec(reader, "hypervolume history")?;
    let optimizer = match reader.take(1, "optimizer tag")?[0] {
        0 => OptimizerState::Nsga2(read_nsga2_state(reader)?),
        1 => OptimizerState::Moead(MoeadState {
            rng: read_rng(reader)?,
            evaluations: reader.usize("evaluations")?,
            ideal: read_f64_vec(reader, "ideal point")?,
            population: read_individuals(reader)?,
        }),
        2 => {
            let island_count = reader.sequence_len(44, "island count")?;
            let mut islands = Vec::with_capacity(island_count);
            for _ in 0..island_count {
                islands.push(read_nsga2_state(reader)?);
            }
            let archive_count = reader.sequence_len(8, "archive count")?;
            let mut archives = Vec::with_capacity(archive_count);
            for _ in 0..archive_count {
                archives.push(read_individuals(reader)?);
            }
            OptimizerState::Archipelago(ArchipelagoState {
                islands,
                archives,
                migration_rng: read_rng(reader)?,
                generations_done: reader.usize("generations done")?,
            })
        }
        other => {
            return Err(CheckpointError::Corrupted {
                detail: format!("invalid optimizer tag {other}"),
            })
        }
    };
    Ok(RunCheckpoint {
        generation,
        optimizer,
        hypervolume_history,
        reference_point,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Driver, ProblemSpec, StoppingRule};
    use crate::problems::Schaffer;
    use crate::{Nsga2, Nsga2Spec};

    fn sample_checkpoint() -> RunCheckpoint {
        let mut driver = Driver::new(
            Nsga2::new(
                Nsga2Spec {
                    population: 8,
                    ..Default::default()
                },
                3,
            ),
            &Schaffer,
        )
        .with_stopping(StoppingRule::MaxGenerations(4));
        driver.step();
        driver.step();
        driver.checkpoint()
    }

    fn sample_spec() -> RunSpec {
        RunSpec {
            problem: ProblemSpec::named("schaffer"),
            ..Default::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pathway-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn atomic_write_replaces_a_file_in_full_and_leaves_no_temp_sibling() {
        let dir = temp_dir("atomic");
        let path = dir.join("front.front");
        fs::write(&path, b"an older, much longer file body").unwrap();
        atomic_write(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("front.front")]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_into_a_missing_directory_fails_and_creates_nothing() {
        let dir = temp_dir("atomic-missing");
        let missing = dir.join("absent");
        let err = atomic_write(&missing.join("job.spec"), b"text").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        assert!(!missing.exists());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_matching_loads_the_newest_checkpoint_of_the_same_spec() {
        let dir = temp_dir("latest-matching");
        let spec = sample_spec();
        let store = CheckpointStore::create(&dir, &spec).unwrap();
        assert_eq!(store.latest_matching(&spec).unwrap(), None);
        let mut checkpoint = sample_checkpoint();
        store.save(&checkpoint).unwrap();
        checkpoint.generation = 12;
        store.save(&checkpoint).unwrap();
        let stored = store.latest_matching(&spec).unwrap().expect("a checkpoint");
        assert_eq!(stored.checkpoint, checkpoint);
        let other = RunSpec {
            seed: 9,
            ..sample_spec()
        };
        assert!(matches!(
            store.latest_matching(&other),
            Err(CheckpointError::SpecMismatch { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encode_decode_round_trips_bit_for_bit() {
        let spec = sample_spec();
        let checkpoint = sample_checkpoint();
        let bytes = encode_checkpoint(&spec.to_text(), &checkpoint);
        let stored = decode_checkpoint(&bytes).expect("decodes");
        assert_eq!(stored.checkpoint, checkpoint);
        assert_eq!(stored.spec_text, spec.to_text());
        assert_eq!(stored.spec_hash, spec.content_hash());
        assert!(stored.evaluations() > 0);
    }

    #[test]
    fn store_saves_and_reloads_with_matching_spec() {
        let dir = std::env::temp_dir().join(format!("pathway-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = sample_spec();
        let store = CheckpointStore::create(&dir, &spec).expect("create store");
        let checkpoint = sample_checkpoint();
        let path = store.save(&checkpoint).expect("save");
        assert_eq!(CheckpointStore::generation_of(&path), Some(2));
        assert_eq!(store.latest().expect("latest"), Some(path.clone()));
        let stored = CheckpointStore::load_matching(&path, &spec).expect("load");
        assert_eq!(stored.checkpoint, checkpoint);
        // A different spec is rejected with a clear error.
        let mut other = spec.clone();
        other.seed = 999;
        match CheckpointStore::load_matching(&path, &other) {
            Err(CheckpointError::SpecMismatch { expected, found }) => {
                assert_eq!(expected, other.content_hash());
                assert_eq!(found, spec.content_hash());
            }
            other => panic!("expected SpecMismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let spec = sample_spec();
        let bytes = encode_checkpoint(&spec.to_text(), &sample_checkpoint());

        // Truncation: checksum no longer matches.
        let truncated = &bytes[..bytes.len() - 9];
        assert!(matches!(
            decode_checkpoint(truncated),
            Err(CheckpointError::ChecksumMismatch { .. }) | Err(CheckpointError::Corrupted { .. })
        ));

        // A flipped payload byte trips the checksum.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            decode_checkpoint(&flipped),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));

        // Wrong magic.
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode_checkpoint(&wrong_magic),
            Err(CheckpointError::BadMagic)
        ));

        // Future version (checksum fixed up so the version check is what
        // fires).
        let mut future = bytes.clone();
        future[4] = 9;
        let body_len = future.len() - 8;
        let checksum = fnv1a64(&future[..body_len]);
        future[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            decode_checkpoint(&future),
            Err(CheckpointError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn errors_render_actionable_messages() {
        let error = CheckpointError::SpecMismatch {
            expected: 1,
            found: 2,
        };
        assert!(error.to_string().contains("different run spec"));
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
    }
}
