//! Cross-process CLI tests.
//!
//! The acceptance bar for durable checkpoints: `pathway run <spec>`, kill
//! the process part-way (simulated deterministically with `--stop-after`,
//! which exits after writing a checkpoint exactly like a kill between
//! generations would leave one), then `pathway resume <checkpoint>` in a
//! *fresh process* — and the final front must be byte-identical to the
//! uninterrupted run's, for the Serial and the Threads(2) evaluation
//! backend alike. Fronts are compared through `--front-out` files, which
//! render every f64 as its IEEE-754 bits.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn pathway() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pathway"))
}

fn run_ok(args: &[&str]) -> Output {
    let output = pathway().args(args).output().expect("spawn pathway");
    assert!(
        output.status.success(),
        "pathway {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pathway-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_spec(dir: &Path, backend: &str) -> PathBuf {
    let text = format!(
        "pathway-spec v1\n\n\
         [problem]\nname = zdt1\nvariables = 6\n\n\
         [optimizer]\nkind = archipelago\nislands = 2\npopulation = 16\n\
         backend = {backend}\nmigration_interval = 4\ntopology = ring\n\n\
         [run]\nseed = 99\ncheckpoint_every = 3\n\n\
         [stop]\nmax_generations = 12\n"
    );
    let path = dir.join("run.spec");
    std::fs::write(&path, text).expect("write spec");
    path
}

fn assert_identical(a: &Path, b: &Path) {
    let left = std::fs::read(a).expect("file a");
    let right = std::fs::read(b).expect("file b");
    assert!(
        !left.is_empty() && left == right,
        "files differ between {} and {}",
        a.display(),
        b.display()
    );
}

fn kill_resume_roundtrip(backend: &str, tag: &str) {
    let dir = temp_dir(tag);
    let spec = write_spec(&dir, backend);
    let spec = spec.to_str().unwrap();

    // Uninterrupted run.
    let full_front = dir.join("full.front");
    let full_ckpt = dir.join("full-ckpt");
    run_ok(&[
        "run",
        spec,
        "--checkpoint-dir",
        full_ckpt.to_str().unwrap(),
        "--front-out",
        full_front.to_str().unwrap(),
        "--quiet",
    ]);

    // The same run, killed after 5 generations...
    let split_ckpt = dir.join("split-ckpt");
    run_ok(&[
        "run",
        spec,
        "--checkpoint-dir",
        split_ckpt.to_str().unwrap(),
        "--stop-after",
        "5",
        "--quiet",
    ]);
    // ... and resumed in a fresh process from the checkpoint alone (the
    // spec is embedded — no spec file is passed).
    let resumed_front = dir.join("resumed.front");
    run_ok(&[
        "resume",
        split_ckpt.join("gen-5.ckpt").to_str().unwrap(),
        "--front-out",
        resumed_front.to_str().unwrap(),
        "--quiet",
    ]);

    assert_identical(&full_front, &resumed_front);

    // The periodic checkpoints (every 3 generations) also resume to the
    // same front: resume from gen-3 of the *full* run's checkpoint dir.
    let periodic_front = dir.join("periodic.front");
    run_ok(&[
        "resume",
        full_ckpt.join("gen-3.ckpt").to_str().unwrap(),
        "--front-out",
        periodic_front.to_str().unwrap(),
        "--quiet",
    ]);
    assert_identical(&full_front, &periodic_front);

    // `--threads` swaps the executor (one pool for the whole invocation)
    // without touching the run state or the spec hash, so resuming the same
    // checkpoint under an explicit pool is still byte-identical.
    let pooled_front = dir.join("pooled.front");
    run_ok(&[
        "resume",
        split_ckpt.join("gen-5.ckpt").to_str().unwrap(),
        "--threads",
        "2",
        "--front-out",
        pooled_front.to_str().unwrap(),
        "--quiet",
    ]);
    assert_identical(&full_front, &pooled_front);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_and_resume_is_bit_identical_serial() {
    kill_resume_roundtrip("serial", "serial");
}

#[test]
fn kill_and_resume_is_bit_identical_threaded() {
    kill_resume_roundtrip("threads:2", "threads");
}

/// The paper's own oracle, the Calvin-cycle ODE steady state, across
/// processes: every solve starts cold, so a resumed run re-scores nothing
/// differently. The front and every checkpoint written after the kill are
/// byte-identical to the uninterrupted run's.
fn ode_kill_resume_roundtrip(backend: &str, tag: &str) {
    let dir = temp_dir(tag);
    let spec = dir.join("ode.spec");
    std::fs::write(
        &spec,
        format!(
            "pathway-spec v1\n\n\
             [problem]\nname = leaf-design-ode\nera = present\nexport = low\n\n\
             [optimizer]\nkind = nsga2\npopulation = 12\nbackend = {backend}\n\n\
             [run]\nseed = 7\ncheckpoint_every = 2\n\n\
             [stop]\nmax_generations = 6\n"
        ),
    )
    .expect("write spec");
    let spec = spec.to_str().unwrap();

    let full_front = dir.join("full.front");
    let full_ckpt = dir.join("full-ckpt");
    run_ok(&[
        "run",
        spec,
        "--checkpoint-dir",
        full_ckpt.to_str().unwrap(),
        "--front-out",
        full_front.to_str().unwrap(),
        "--quiet",
    ]);

    let split_ckpt = dir.join("split-ckpt");
    run_ok(&[
        "run",
        spec,
        "--checkpoint-dir",
        split_ckpt.to_str().unwrap(),
        "--stop-after",
        "3",
        "--quiet",
    ]);
    let resumed_front = dir.join("resumed.front");
    run_ok(&[
        "resume",
        split_ckpt.join("gen-3.ckpt").to_str().unwrap(),
        "--front-out",
        resumed_front.to_str().unwrap(),
        "--quiet",
    ]);

    assert_identical(&full_front, &resumed_front);
    for generation in [4, 6] {
        let name = format!("gen-{generation}.ckpt");
        assert_identical(&full_ckpt.join(&name), &split_ckpt.join(&name));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ode_leaf_kill_and_resume_is_bit_identical_serial() {
    ode_kill_resume_roundtrip("serial", "ode-serial");
}

#[test]
fn ode_leaf_kill_and_resume_is_bit_identical_threaded() {
    ode_kill_resume_roundtrip("threads:2", "ode-threads");
}

#[test]
fn resume_refuses_a_divergent_spec() {
    let dir = temp_dir("mismatch");
    let spec = write_spec(&dir, "serial");
    run_ok(&[
        "run",
        spec.to_str().unwrap(),
        "--checkpoint-dir",
        dir.join("ckpt").to_str().unwrap(),
        "--stop-after",
        "4",
        "--quiet",
    ]);
    // A spec that differs in one semantic field (the seed).
    let divergent = dir.join("divergent.spec");
    let text = std::fs::read_to_string(&spec)
        .unwrap()
        .replace("seed = 99", "seed = 100");
    std::fs::write(&divergent, text).unwrap();

    let output = pathway()
        .args([
            "resume",
            dir.join("ckpt/gen-4.ckpt").to_str().unwrap(),
            "--spec",
            divergent.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("spawn pathway");
    assert!(!output.status.success(), "divergent spec must be refused");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("different run spec"), "stderr: {stderr}");

    // The matching spec passed explicitly is accepted.
    run_ok(&[
        "resume",
        dir.join("ckpt/gen-4.ckpt").to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
        "--quiet",
    ]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_checkpoints_fail_loudly() {
    let dir = temp_dir("corrupt");
    let spec = write_spec(&dir, "serial");
    run_ok(&[
        "run",
        spec.to_str().unwrap(),
        "--checkpoint-dir",
        dir.join("ckpt").to_str().unwrap(),
        "--stop-after",
        "3",
        "--quiet",
    ]);
    let ckpt = dir.join("ckpt/gen-3.ckpt");
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&ckpt, &bytes).unwrap();

    let output = pathway()
        .args(["resume", ckpt.to_str().unwrap(), "--quiet"])
        .output()
        .expect("spawn pathway");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("integrity") || stderr.contains("corrupted"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_describes_specs_and_checkpoints() {
    let dir = temp_dir("inspect");
    let spec = write_spec(&dir, "serial");
    let output = run_ok(&["inspect", spec.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("valid pathway spec"), "{stdout}");
    assert!(stdout.contains("zdt1"), "{stdout}");

    run_ok(&[
        "run",
        spec.to_str().unwrap(),
        "--checkpoint-dir",
        dir.join("ckpt").to_str().unwrap(),
        "--stop-after",
        "2",
        "--quiet",
    ]);
    let output = run_ok(&["inspect", dir.join("ckpt/gen-2.ckpt").to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("pathway checkpoint v1"), "{stdout}");
    assert!(stdout.contains("generation:  2"), "{stdout}");
    assert!(stdout.contains("name = zdt1"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn list_problems_prints_the_registry() {
    let output = run_ok(&["list-problems"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    for name in [
        "leaf-design",
        "leaf-design-ode",
        "geobacter",
        "schaffer",
        "zdt1",
        "dtlz2",
    ] {
        assert!(stdout.contains(name), "missing '{name}' in:\n{stdout}");
    }
}

#[test]
fn usage_errors_exit_with_code_two() {
    let output = pathway().arg("frobnicate").output().expect("spawn pathway");
    assert_eq!(output.status.code(), Some(2));
    let output = pathway().output().expect("spawn pathway");
    assert_eq!(output.status.code(), Some(2));
    let output = pathway()
        .args(["run", "a.spec", "b.spec"])
        .output()
        .expect("spawn pathway");
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn wrong_dimension_reference_points_are_rejected_up_front() {
    // 3 components against a bi-objective problem would panic inside the
    // hypervolume computation mid-run; the CLI must refuse before running.
    let dir = temp_dir("refpoint");
    let bad = dir.join("bad-ref.spec");
    std::fs::write(
        &bad,
        "pathway-spec v1\n[problem]\nname = zdt1\n[optimizer]\nkind = nsga2\n\
         [run]\nreference_point = 30, 30, 30\n[stop]\nmax_generations = 3\n",
    )
    .unwrap();
    let output = pathway()
        .args(["run", bad.to_str().unwrap()])
        .output()
        .expect("spawn pathway");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("reference_point"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parse_errors_report_file_and_line() {
    let dir = temp_dir("parse-error");
    let bad = dir.join("bad.spec");
    std::fs::write(
        &bad,
        "pathway-spec v1\n[problem]\nname = zdt1\n[optimizer]\nkind = quantum\n",
    )
    .unwrap();
    let output = pathway()
        .args(["run", bad.to_str().unwrap()])
        .output()
        .expect("spawn pathway");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("bad.spec"), "{stderr}");
    assert!(stderr.contains("line 5"), "{stderr}");
    assert!(stderr.contains("quantum"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Grid sweeps: kill mid-grid, resume only the incomplete cells, and land on
// fronts byte-identical to an uninterrupted sweep — with completed cells
// never re-run (their ledger bytes stay a strict prefix).
// ---------------------------------------------------------------------------

fn write_sweep(dir: &Path) -> PathBuf {
    let text = "pathway-sweep v1\n\n\
        [sweep]\nproblem.name = schaffer | zdt1\nrun.seed = 1 | 2\n\n\
        [problem]\nname = schaffer\n\n\
        [optimizer]\nkind = nsga2\npopulation = 16\n\n\
        [run]\nseed = 1\ncheckpoint_every = 2\nreference_point = 25, 25\n\n\
        [stop]\nmax_generations = 6\n";
    let path = dir.join("grid.sweep");
    std::fs::write(&path, text).expect("write sweep");
    path
}

#[test]
fn sweep_kill_and_resume_is_bit_identical_and_skips_completed_cells() {
    let dir = temp_dir("sweep");
    let sweep = write_sweep(&dir);
    let sweep = sweep.to_str().unwrap();

    // Uninterrupted sweep: 4 cells x 6 generations.
    let full = dir.join("full");
    run_ok(&[
        "sweep",
        sweep,
        "--out-dir",
        full.to_str().unwrap(),
        "--quiet",
    ]);

    // The same sweep, killed 9 generations in: cell 0 completes (6), cell 1
    // is interrupted at generation 3 with a checkpoint.
    let split = dir.join("split");
    let output = run_ok(&[
        "sweep",
        sweep,
        "--out-dir",
        split.to_str().unwrap(),
        "--stop-after",
        "9",
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("interrupted"), "{stdout}");
    let ledger_after_kill = std::fs::read(split.join("ledger.md")).expect("ledger exists");

    // Resume in a fresh process: completed cells are skipped, the
    // interrupted cell continues from its checkpoint.
    let output = run_ok(&["sweep", sweep, "--out-dir", split.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("[cell-0000] skip"), "{stdout}");
    assert!(stdout.contains("resume from generation 3"), "{stdout}");

    // Every front is byte-identical to the uninterrupted sweep's.
    for cell in 0..4 {
        assert_identical(
            &full.join(format!("fronts/cell-000{cell}.front")),
            &split.join(format!("fronts/cell-000{cell}.front")),
        );
    }

    // Completed cells were not re-run: the ledger is append-only, so the
    // bytes written before the kill are a strict prefix of the resumed
    // ledger (a re-run would have rewritten or duplicated cell 0's row).
    let ledger_after_resume = std::fs::read(split.join("ledger.md")).unwrap();
    assert!(
        ledger_after_resume.starts_with(&ledger_after_kill),
        "resume rewrote earlier ledger bytes"
    );
    assert!(ledger_after_resume.len() > ledger_after_kill.len());
    let text = String::from_utf8_lossy(&ledger_after_resume);
    assert_eq!(
        text.lines()
            .filter(|line| line.starts_with("| 000"))
            .count(),
        4,
        "expected exactly one row per cell:\n{text}"
    );

    // A third pass over a complete ledger runs nothing and changes nothing.
    let before = std::fs::read(split.join("BENCH_sweep.json")).unwrap();
    let output = run_ok(&[
        "sweep",
        sweep,
        "--out-dir",
        split.to_str().unwrap(),
        "--quiet",
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("0 completed now, 4 skipped"), "{stdout}");
    assert_eq!(
        before,
        std::fs::read(split.join("BENCH_sweep.json")).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_under_a_thread_pool_is_bit_identical_to_serial() {
    let dir = temp_dir("sweep-pool");
    let sweep = write_sweep(&dir);
    let sweep = sweep.to_str().unwrap();
    let serial = dir.join("serial");
    let pooled = dir.join("pooled");
    run_ok(&[
        "sweep",
        sweep,
        "--out-dir",
        serial.to_str().unwrap(),
        "--quiet",
    ]);
    run_ok(&[
        "sweep",
        sweep,
        "--out-dir",
        pooled.to_str().unwrap(),
        "--threads",
        "2",
        "--quiet",
    ]);
    for cell in 0..4 {
        assert_identical(
            &serial.join(format!("fronts/cell-000{cell}.front")),
            &pooled.join(format!("fronts/cell-000{cell}.front")),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ledger_check_validates_and_rejects() {
    let dir = temp_dir("ledger-check");
    let sweep = write_sweep(&dir);
    let out = dir.join("out");
    // Even an immediately interrupted sweep leaves a valid all-placeholder
    // ledger behind.
    run_ok(&[
        "sweep",
        sweep.to_str().unwrap(),
        "--out-dir",
        out.to_str().unwrap(),
        "--stop-after",
        "0",
        "--quiet",
    ]);
    let json = out.join("BENCH_sweep.json");
    let output = run_ok(&["ledger-check", json.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("valid sweep ledger"), "{stdout}");
    assert!(stdout.contains("0/4 cells complete"), "{stdout}");

    // Drift the format tag: ledger-check must fail with exit 1 and say why.
    let text = std::fs::read_to_string(&json).unwrap();
    std::fs::write(&json, text.replace("pathway-bench-sweep", "renamed")).unwrap();
    let output = pathway()
        .args(["ledger-check", json.to_str().unwrap()])
        .output()
        .expect("spawn pathway");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("'format'"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `profile-diff` reports per-phase deltas between two profiles and gates
/// regressions: identical profiles pass, a 5x `eval` blow-up fails the
/// default 4x threshold with exit 1, and a loosened `--threshold` lets the
/// same pair pass again.
#[test]
fn profile_diff_reports_deltas_and_gates_regressions() {
    let dir = temp_dir("profile-diff");
    let profile = |label: &str, eval_us: u64| {
        format!(
            "{{\n  \"format\": \"pathway-profile\",\n  \"version\": 1,\n  \
             \"source\": \"run\",\n  \"label\": \"{label}\",\n  \
             \"generations\": 4,\n  \"evaluations\": 100,\n  \"wall_ms\": 10,\n  \
             \"phases\": [\n    \
             {{\"name\": \"eval\", \"calls\": 4, \"total_us\": {eval_us}}},\n    \
             {{\"name\": \"generation\", \"calls\": 4, \"total_us\": {}}}\n  ],\n  \
             \"counters\": [],\n  \"gauges\": [],\n  \"histograms\": []\n}}\n",
            eval_us + 20_000
        )
    };
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, profile("baseline", 100_000)).unwrap();
    std::fs::write(&new, profile("regressed", 500_000)).unwrap();

    // Identical profiles: every ratio is 1.00x and the gate passes.
    let output = run_ok(&["profile-diff", old.to_str().unwrap(), old.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("1.00x"), "{stdout}");
    assert!(stdout.contains("no gated phase regressed"), "{stdout}");

    // A 5x eval regression trips the default 4x gate with exit 1.
    let output = pathway()
        .args(["profile-diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .expect("spawn pathway");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("'eval'") && stderr.contains("5.00x"),
        "{stderr}"
    );

    // The same pair passes a loosened threshold.
    run_ok(&[
        "profile-diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--threshold",
        "6.0",
    ]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_describes_sweeps() {
    let dir = temp_dir("inspect-sweep");
    let sweep = write_sweep(&dir);
    let output = run_ok(&["inspect", sweep.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("valid pathway sweep"), "{stdout}");
    assert!(stdout.contains("cells:        4"), "{stdout}");
    assert!(
        stdout.contains("problem.name = schaffer | zdt1"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--profile-out` is a pure observer: the metered run's front is
/// byte-identical to an unmetered run of the same spec, and the profile it
/// leaves behind survives `profile-check` (schema + phase-timing balance).
#[test]
fn profile_out_is_observational_and_passes_profile_check() {
    let dir = temp_dir("profile");
    let spec = write_spec(&dir, "serial");
    let plain_front = dir.join("plain.front");
    let metered_front = dir.join("metered.front");
    let profile = dir.join("profile.json");
    run_ok(&[
        "run",
        spec.to_str().unwrap(),
        "--checkpoint-dir",
        dir.join("ckpt-plain").to_str().unwrap(),
        "--front-out",
        plain_front.to_str().unwrap(),
        "--quiet",
    ]);
    let output = run_ok(&[
        "run",
        spec.to_str().unwrap(),
        "--checkpoint-dir",
        dir.join("ckpt-metered").to_str().unwrap(),
        "--front-out",
        metered_front.to_str().unwrap(),
        "--profile-out",
        profile.to_str().unwrap(),
        "--quiet",
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("executor: 1 worker lane"), "{stdout}");
    assert!(stdout.contains("profile: "), "{stdout}");
    assert_identical(&plain_front, &metered_front);

    let output = run_ok(&["profile-check", profile.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("valid run profile"), "{stdout}");
    assert!(stdout.contains("12 generations"), "{stdout}");

    // Corruption fails loudly with exit 1, like ledger-check.
    let text = std::fs::read_to_string(&profile).unwrap();
    std::fs::write(&profile, text.replace("pathway-profile", "renamed")).unwrap();
    let output = pathway()
        .args(["profile-check", profile.to_str().unwrap()])
        .output()
        .expect("spawn pathway");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("'format'"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
