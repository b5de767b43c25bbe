//! Durable-checkpoint integration tests: golden-file format stability,
//! corruption/truncation error paths, and store-level spec-hash rejection.
//!
//! The golden file (`tests/golden/checkpoint-v1.ckpt`) pins the v1 byte
//! format: if the encoder drifts, old checkpoints silently stop loading, so
//! the test fails loudly instead. Regenerate deliberately with
//! `PATHWAY_REGEN_GOLDEN=1 cargo test -p pathway-moo --test checkpoint_store`
//! after bumping the format version.

use std::path::{Path, PathBuf};

use pathway_moo::engine::{
    decode_checkpoint, encode_checkpoint, read_checkpoint_file, write_checkpoint_file,
    ArchipelagoSpec, ArchipelagoState, CheckpointError, CheckpointRetention, CheckpointStore,
    Nsga2Spec, Nsga2State, OptimizerSpec, OptimizerState, ProblemSpec, RngState, RunCheckpoint,
    RunSpec, StoppingSpec,
};
use pathway_moo::{Individual, MigrationTopology};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/checkpoint-v1.ckpt")
}

fn fixture_spec() -> RunSpec {
    RunSpec {
        problem: ProblemSpec::named("schaffer"),
        optimizer: OptimizerSpec::Archipelago(ArchipelagoSpec {
            islands: 2,
            island: Nsga2Spec {
                population: 4,
                ..Default::default()
            },
            migration_interval: 2,
            migration_probability: 0.5,
            topology: MigrationTopology::Ring,
        }),
        seed: 7,
        checkpoint_every: 2,
        retention: None,
        reference_point: Some(vec![30.0, 30.0]),
        stopping: StoppingSpec {
            max_generations: 6,
            ..Default::default()
        },
        log_every: None,
    }
}

/// An individual with hand-picked values, including the edge values the
/// codec must preserve bit-exactly (unassigned rank, infinite crowding,
/// negative zero).
fn fixture_individual(offset: f64, boundary: bool) -> Individual {
    let mut individual = Individual::from_evaluated(
        vec![offset, offset + 0.5, -0.0],
        vec![offset * offset, (offset - 2.0) * (offset - 2.0)],
        if boundary { 0.0 } else { 0.125 },
    );
    individual.rank = if boundary { usize::MAX } else { 1 };
    individual.crowding = if boundary { f64::INFINITY } else { 0.75 };
    individual
}

fn fixture_checkpoint() -> RunCheckpoint {
    RunCheckpoint {
        generation: 3,
        optimizer: OptimizerState::Archipelago(ArchipelagoState {
            islands: vec![
                Nsga2State {
                    rng: RngState([1, 2, 3, 4]),
                    evaluations: 16,
                    population: vec![
                        fixture_individual(0.25, false),
                        fixture_individual(1.5, true),
                    ],
                },
                Nsga2State {
                    rng: RngState([u64::MAX, 0, 42, 7]),
                    evaluations: 16,
                    population: vec![fixture_individual(0.75, false)],
                },
            ],
            archives: vec![vec![fixture_individual(1.0, true)], vec![]],
            migration_rng: RngState([9, 8, 7, 6]),
            generations_done: 3,
        }),
        // NaN entries must survive the trip (hypervolume can be
        // unmeasurable); NaN bit patterns are preserved via to_bits.
        hypervolume_history: vec![1.5, f64::NAN, 2.25],
        reference_point: Some(vec![30.0, 30.0]),
    }
}

/// Structural equality that treats NaN as equal to itself (PartialEq on the
/// checkpoint would fail on the NaN history entry).
fn assert_checkpoint_eq(a: &RunCheckpoint, b: &RunCheckpoint) {
    assert_eq!(a.generation, b.generation);
    assert_eq!(a.reference_point, b.reference_point);
    assert_eq!(a.hypervolume_history.len(), b.hypervolume_history.len());
    for (x, y) in a.hypervolume_history.iter().zip(&b.hypervolume_history) {
        assert_eq!(x.to_bits(), y.to_bits(), "hypervolume bits must match");
    }
    assert_eq!(a.optimizer, b.optimizer);
}

#[test]
fn golden_checkpoint_bytes_are_stable() {
    let path = golden_path();
    let bytes = encode_checkpoint(&fixture_spec().to_text(), &fixture_checkpoint());
    if std::env::var("PATHWAY_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
    }
    let golden = std::fs::read(&path)
        .expect("golden checkpoint file missing — run with PATHWAY_REGEN_GOLDEN=1 to (re)generate");
    assert_eq!(
        golden, bytes,
        "encoder output drifted from the committed v1 golden bytes; \
         old checkpoints would no longer load"
    );
    let stored = decode_checkpoint(&golden).expect("golden file decodes");
    assert_checkpoint_eq(&stored.checkpoint, &fixture_checkpoint());
    assert_eq!(stored.spec_text, fixture_spec().to_text());
    assert_eq!(stored.spec_hash, fixture_spec().content_hash());
}

#[test]
fn every_truncation_errors_instead_of_panicking() {
    let bytes = encode_checkpoint(&fixture_spec().to_text(), &fixture_checkpoint());
    for len in 0..bytes.len() {
        let result = decode_checkpoint(&bytes[..len]);
        assert!(
            result.is_err(),
            "decoding a {len}-byte prefix of a {}-byte checkpoint must fail",
            bytes.len()
        );
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    let bytes = encode_checkpoint(&fixture_spec().to_text(), &fixture_checkpoint());
    // Exhaustive over offsets is slow in debug builds; stride through the
    // file and always include the first/last bytes.
    let mut offsets: Vec<usize> = (0..bytes.len()).step_by(7).collect();
    offsets.push(bytes.len() - 1);
    for offset in offsets {
        let mut corrupted = bytes.clone();
        corrupted[offset] ^= 0x01;
        assert!(
            decode_checkpoint(&corrupted).is_err(),
            "flipping byte {offset} went undetected"
        );
    }
}

#[test]
fn atomic_write_leaves_no_partial_files_behind() {
    let dir = std::env::temp_dir().join(format!("pathway-atomic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join("gen-3.ckpt");
    write_checkpoint_file(&target, &fixture_spec().to_text(), &fixture_checkpoint()).unwrap();
    let stored = read_checkpoint_file(&target).unwrap();
    assert_checkpoint_eq(&stored.checkpoint, &fixture_checkpoint());
    // The temporary file was renamed away.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|entry| entry.file_name().to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_rejects_resume_under_a_different_spec() {
    let dir = std::env::temp_dir().join(format!("pathway-mismatch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = fixture_spec();
    let store = CheckpointStore::create(&dir, &spec).unwrap();
    let path = store.save(&fixture_checkpoint()).unwrap();

    // Same spec: accepted.
    CheckpointStore::load_matching(&path, &spec).expect("matching spec loads");

    // Any semantic difference (here: topology) is a refusal, not a warning.
    let mut divergent = spec.clone();
    if let OptimizerSpec::Archipelago(arch) = &mut divergent.optimizer {
        arch.topology = MigrationTopology::Broadcast;
    }
    match CheckpointStore::load_matching(&path, &divergent) {
        Err(CheckpointError::SpecMismatch { expected, found }) => {
            assert_eq!(expected, divergent.content_hash());
            assert_eq!(found, spec.content_hash());
        }
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn latest_picks_the_highest_generation() {
    let dir = std::env::temp_dir().join(format!("pathway-latest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = fixture_spec();
    let store = CheckpointStore::create(&dir, &spec).unwrap();
    for generation in [2, 10, 6] {
        let mut checkpoint = fixture_checkpoint();
        checkpoint.generation = generation;
        store.save(&checkpoint).unwrap();
    }
    let latest = store.latest().unwrap().expect("checkpoints exist");
    assert_eq!(CheckpointStore::generation_of(&latest), Some(10));
    std::fs::remove_dir_all(&dir).ok();
}

fn stored_generations(store: &CheckpointStore) -> Vec<usize> {
    let mut generations: Vec<usize> = std::fs::read_dir(store.dir())
        .unwrap()
        .filter_map(|entry| CheckpointStore::generation_of(&entry.unwrap().path()))
        .collect();
    generations.sort_unstable();
    generations
}

fn save_generation(store: &CheckpointStore, generation: usize) {
    let mut checkpoint = fixture_checkpoint();
    checkpoint.generation = generation;
    store.save(&checkpoint).unwrap();
}

#[test]
fn retention_keeps_last_k_plus_every_mth() {
    let dir = std::env::temp_dir().join(format!("pathway-retain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = fixture_spec();
    spec.retention = Some(CheckpointRetention {
        keep_last: 2,
        keep_every: 4,
    });
    let store = CheckpointStore::create(&dir, &spec).unwrap();
    for generation in 1..=10 {
        save_generation(&store, generation);
    }
    // Newest two (9, 10) plus the multiples of four (4, 8) survive.
    assert_eq!(stored_generations(&store), vec![4, 8, 9, 10]);
    // The latest checkpoint is always among the survivors.
    let latest = store.latest().unwrap().expect("survivors exist");
    assert_eq!(CheckpointStore::generation_of(&latest), Some(10));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retention_without_modular_keeps_is_a_sliding_window() {
    let dir = std::env::temp_dir().join(format!("pathway-retain-win-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = fixture_spec();
    spec.retention = Some(CheckpointRetention {
        keep_last: 3,
        keep_every: 0,
    });
    let store = CheckpointStore::create(&dir, &spec).unwrap();
    for generation in [5, 1, 9, 3, 7] {
        save_generation(&store, generation);
    }
    assert_eq!(stored_generations(&store), vec![5, 7, 9]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retention_never_deletes_the_checkpoint_just_saved() {
    // A directory with stale *higher* generations left by an earlier run:
    // a resumed run saving gen-9 must not have its fresh checkpoint
    // swallowed just because gen-10 outranks it.
    let dir = std::env::temp_dir().join(format!("pathway-retain-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = fixture_spec();
    spec.retention = Some(CheckpointRetention {
        keep_last: 1,
        keep_every: 4,
    });
    let store = CheckpointStore::create(&dir, &spec).unwrap();
    for generation in [4, 8, 10] {
        save_generation(&store, generation);
    }
    save_generation(&store, 9);
    let stored = stored_generations(&store);
    assert!(
        stored.contains(&9),
        "the just-saved gen-9 must survive its own prune (on disk: {stored:?})"
    );
    // An explicit prune (no fresh save to protect) applies the bare policy.
    store.prune().unwrap();
    assert_eq!(stored_generations(&store), vec![4, 8, 10]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn default_store_keeps_everything_and_spec_retention_is_wired_through() {
    let dir = std::env::temp_dir().join(format!("pathway-retain-def-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Default: no retention, all ten checkpoints stay.
    let store = CheckpointStore::create(&dir, &fixture_spec()).unwrap();
    assert_eq!(store.retention(), None);
    for generation in 1..=10 {
        save_generation(&store, generation);
    }
    assert_eq!(stored_generations(&store).len(), 10);
    std::fs::remove_dir_all(&dir).ok();

    // A spec-carried policy is installed by `create` automatically.
    let mut spec = fixture_spec();
    spec.retention = Some(CheckpointRetention {
        keep_last: 1,
        keep_every: 0,
    });
    let store = CheckpointStore::create(&dir, &spec).unwrap();
    assert_eq!(
        store.retention(),
        Some(CheckpointRetention {
            keep_last: 1,
            keep_every: 0
        })
    );
    for generation in 1..=10 {
        save_generation(&store, generation);
    }
    assert_eq!(stored_generations(&store), vec![10]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn latest_orders_generations_numerically_not_lexically() {
    // "gen-9.ckpt" > "gen-100.ckpt" as strings; a lexical `latest` would
    // resume a sweep cell from the wrong (older) generation. Guard the
    // numeric comparison with generations spanning one, two and three
    // digits.
    let dir = std::env::temp_dir().join(format!("pathway-latest-num-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::create(&dir, &fixture_spec()).unwrap();
    for generation in [2, 9, 10, 11, 100] {
        save_generation(&store, generation);
    }
    let latest = store.latest().unwrap().expect("five checkpoints on disk");
    assert_eq!(
        latest.file_name().and_then(|name| name.to_str()),
        Some("gen-100.ckpt"),
        "latest() picked {} — lexical ordering?",
        latest.display()
    );
    assert_eq!(CheckpointStore::generation_of(&latest), Some(100));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn latest_and_prune_ignore_stray_files() {
    // Sweeps multiply checkpoint directories; editors, rsync and notes
    // drop stray files into them. None of those may be picked as "latest"
    // and none may be deleted by retention pruning.
    let dir = std::env::temp_dir().join(format!("pathway-stray-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = fixture_spec();
    spec.retention = Some(CheckpointRetention {
        keep_last: 2,
        keep_every: 10,
    });
    let store = CheckpointStore::create(&dir, &spec).unwrap();
    let strays = [
        "notes.txt",        // unrelated file
        "gen-x.ckpt",       // unparsable generation
        "gen-999.ckpt.tmp", // a leftover atomic-write temp file
        "zzz-gen-5.ckpt",   // lexically after every real checkpoint
    ];
    for stray in strays {
        std::fs::write(dir.join(stray), b"not a checkpoint").unwrap();
    }
    for generation in 1..=12 {
        save_generation(&store, generation);
    }
    // Retention kept the newest two (11, 12) and the every-10th (10);
    // every stray survived the pruning that deleted 1..=9.
    assert_eq!(stored_generations(&store), vec![10, 11, 12]);
    for stray in strays {
        assert!(dir.join(stray).exists(), "prune deleted stray '{stray}'");
    }
    let latest = store.latest().unwrap().expect("checkpoints on disk");
    assert_eq!(
        latest.file_name().and_then(|name| name.to_str()),
        Some("gen-12.ckpt")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_digit_generations_resume_from_the_true_newest() {
    // keep_last = 1 across the 9 -> 10 digit-count boundary: the numeric
    // rank must keep gen-10 and drop gen-9, not the other way around.
    let dir = std::env::temp_dir().join(format!("pathway-digits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = fixture_spec();
    spec.retention = Some(CheckpointRetention {
        keep_last: 1,
        keep_every: 0,
    });
    let store = CheckpointStore::create(&dir, &spec).unwrap();
    save_generation(&store, 9);
    save_generation(&store, 10);
    assert_eq!(stored_generations(&store), vec![10]);
    let stored = CheckpointStore::load(&store.latest().unwrap().unwrap()).unwrap();
    assert_eq!(stored.generation(), 10);
    std::fs::remove_dir_all(&dir).ok();
}
