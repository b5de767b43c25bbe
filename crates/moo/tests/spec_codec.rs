//! Property tests for the [`RunSpec`] text codec.
//!
//! The codec's contract is exact round-tripping: for every valid spec,
//! `from_text(to_text(spec)) == spec` and the content hash is stable. These
//! tests sweep randomized specs across all optimizer kinds, optional-field
//! combinations and float-valued knobs (floats are rendered with Rust's
//! shortest round-trip formatting, so bit-exactness is expected, not
//! approximate equality).

use proptest::prelude::*;

use pathway_moo::engine::{
    ArchipelagoSpec, CheckpointRetention, MoeadSpec, Nsga2Spec, OptimizerSpec, ProblemSpec,
    RunSpec, SpecError, StoppingSpec,
};
use pathway_moo::{EvalBackend, MigrationTopology};

/// Deterministically expands a handful of drawn scalars into a full spec,
/// exercising every enum arm and optional field.
#[allow(clippy::too_many_arguments)]
fn build_spec(
    kind: usize,
    population: usize,
    probability: f64,
    eta: f64,
    options: usize,
    seed: u64,
    generations: usize,
    threads: usize,
) -> RunSpec {
    let backend = if threads == 0 {
        EvalBackend::Serial
    } else {
        EvalBackend::Threads(threads)
    };
    let mutation_probability = if options & 1 == 0 {
        None
    } else {
        Some(probability * 0.5)
    };
    let island = Nsga2Spec {
        population: population.max(2),
        crossover_probability: probability,
        eta_crossover: eta,
        mutation_probability,
        eta_mutation: eta + 1.0,
        backend,
    };
    let optimizer = match kind {
        0 => OptimizerSpec::Nsga2(island),
        1 => OptimizerSpec::Moead(MoeadSpec {
            population: population.max(2),
            neighborhood: (population / 2).max(1),
            eta_crossover: eta,
            eta_mutation: eta + 2.0,
            mutation_probability,
            backend,
        }),
        _ => OptimizerSpec::Archipelago(ArchipelagoSpec {
            islands: (population % 5).max(1),
            island,
            migration_interval: (generations / 3).max(1),
            migration_probability: probability,
            topology: match options % 3 {
                0 => MigrationTopology::Broadcast,
                1 => MigrationTopology::Ring,
                _ => MigrationTopology::Isolated,
            },
        }),
    };
    let mut problem = ProblemSpec::named("zdt1");
    if options & 2 != 0 {
        problem = problem.with_param("variables", population.to_string());
    }
    RunSpec {
        problem,
        optimizer,
        seed,
        checkpoint_every: options % 7,
        retention: if options & 64 != 0 {
            Some(CheckpointRetention {
                keep_last: (options % 5) + 1,
                // Exercise both the "keep_every omitted from the text" (0)
                // and the explicit-modular form.
                keep_every: if options & 8 != 0 { options % 13 } else { 0 },
            })
        } else {
            None
        },
        reference_point: if options & 4 != 0 {
            Some(vec![
                probability * 10.0 + 1.0,
                eta,
                seed as f64 * 0.25 + 0.5,
            ])
        } else {
            None
        },
        stopping: StoppingSpec {
            max_generations: generations.max(1),
            max_evaluations: if options & 8 != 0 {
                Some(generations * population)
            } else {
                None
            },
            stagnation: if options & 16 != 0 {
                Some(((options % 9) + 1, probability * 1e-6))
            } else {
                None
            },
        },
        log_every: if options & 32 != 0 {
            Some((options % 11) + 1)
        } else {
            None
        },
    }
}

proptest! {
    #[test]
    fn prop_canonical_text_round_trips_exactly(
        kind in 0usize..3,
        population in 2usize..300,
        probability in 0.0f64..1.0,
        eta in 0.5f64..40.0,
        options in 0usize..128,
        seed in 0u64..1_000_000,
        generations in 1usize..1000,
        threads in 0usize..9,
    ) {
        let spec = build_spec(kind, population, probability, eta, options, seed, generations, threads);
        spec.validate().expect("generated specs are valid");
        let text = spec.to_text();
        let reparsed = RunSpec::from_text(&text).expect("canonical text parses");
        prop_assert_eq!(&reparsed, &spec);
        // Hash is a pure function of the canonical form.
        prop_assert_eq!(reparsed.content_hash(), spec.content_hash());
        // Re-rendering is idempotent.
        prop_assert_eq!(reparsed.to_text(), text);
    }

    #[test]
    fn prop_formatting_noise_is_normalized_away(
        kind in 0usize..3,
        population in 2usize..100,
        probability in 0.0f64..1.0,
        eta in 0.5f64..40.0,
        options in 0usize..128,
        seed in 0u64..1000,
    ) {
        let spec = build_spec(kind, population, probability, eta, options, seed, 50, 0);
        // Extra whitespace, comments and blank lines must not affect the
        // parsed value or its hash.
        let noisy: String = spec
            .to_text()
            .lines()
            .map(|line| format!("  {}   # noise\n\n", line.replace(" = ", "   =  ")))
            .collect();
        let reparsed = RunSpec::from_text(&noisy).expect("noisy text parses");
        prop_assert_eq!(&reparsed, &spec);
        prop_assert_eq!(reparsed.content_hash(), spec.content_hash());
    }

    #[test]
    fn prop_truncated_documents_never_panic(
        kind in 0usize..3,
        cut in 0usize..2000,
        seed in 0u64..1000,
    ) {
        let spec = build_spec(kind, 20, 0.5, 15.0, 63, seed, 50, 2);
        let text = spec.to_text();
        let cut = cut.min(text.len());
        if !text.is_char_boundary(cut) {
            return; // align on a UTF-8 boundary; content is ASCII anyway
        }
        // Parsing any prefix must either succeed (a shorter but complete
        // document) or fail with a structured error — never panic.
        let _ = RunSpec::from_text(&text[..cut]);
    }
}

#[test]
fn field_errors_name_the_offending_field() {
    let mut spec = build_spec(2, 20, 0.5, 15.0, 0, 1, 50, 0);
    if let OptimizerSpec::Archipelago(arch) = &mut spec.optimizer {
        arch.island.crossover_probability = 7.0;
    }
    match spec.validate() {
        Err(SpecError::Field { field, .. }) => {
            assert_eq!(field, "optimizer.crossover_probability");
        }
        other => panic!("expected a field error, got {other:?}"),
    }
}

#[test]
fn line_errors_point_at_the_line() {
    // Line 6 holds the broken value.
    let text =
        "pathway-spec v1\n[problem]\nname = zdt1\n[optimizer]\nkind = archipelago\nislands = two\n";
    match RunSpec::from_text(text) {
        Err(SpecError::Parse { line, message }) => {
            assert_eq!(line, 6);
            assert!(message.contains("islands"), "{message}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
}

/// One FNV-1a digest over the canonical text of `build_spec` on a fixed
/// grid: every kind, every `options` bit pattern and two values of each
/// scalar. It pins key order and rendering for keys no committed example
/// uses (MOEA/D's full key list, retention, stagnation, `[observe]`), and
/// so the bytes every checkpoint, ledger and job hash.
#[test]
fn the_canonical_text_of_the_build_spec_grid_is_pinned() {
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut specs = 0;
    for kind in 0..3 {
        for options in 0..128 {
            for population in [2, 37] {
                for probability in [0.25, 1.0] {
                    for eta in [0.5, 15.0] {
                        for seed in [0, 123_456_789] {
                            for generations in [1, 999] {
                                for threads in [0, 3] {
                                    let spec = build_spec(
                                        kind,
                                        population,
                                        probability,
                                        eta,
                                        options,
                                        seed,
                                        generations,
                                        threads,
                                    );
                                    for byte in spec.to_text().bytes() {
                                        digest ^= u64::from(byte);
                                        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
                                    }
                                    specs += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(specs, 3 * 128 * 64);
    assert_eq!(
        digest, 0x8202_3c5b_6a7b_9a65,
        "build_spec grid digest {digest:#018x}"
    );
}

/// Where a malformed document's error must point.
#[derive(Debug)]
enum Expect {
    /// A [`SpecError::Parse`] on this 1-based line.
    Line(usize),
    /// A [`SpecError::Field`] naming this field.
    Field(&'static str),
}

/// Every document below starts with these four lines, so its own first
/// line is line 5.
const HEAD: &str = "pathway-spec v1\n[problem]\nname = zdt1\n[optimizer]\n";

/// Malformed documents, each with the error variant, line and field it
/// must raise: an unknown key, a bad value of every value kind, an unknown
/// kind and topology, and both cross-key rules.
const MALFORMED: [(&str, Expect); 32] = [
    // An unknown key, section or kind.
    ("kind = nsga2\ntopolgy = ring\n", Expect::Line(6)),
    (
        "kind = nsga2\n[stopping]\nmax_generations = 4\n",
        Expect::Line(6),
    ),
    ("kind = simplex\n", Expect::Line(5)),
    ("kind = nsga2\nislands = 2\n", Expect::Line(6)),
    (
        "kind = moead\ncrossover_probability = 0.5\n",
        Expect::Line(6),
    ),
    // A count (at least 1).
    ("kind = nsga2\npopulation = many\n", Expect::Line(6)),
    (
        "kind = nsga2\npopulation = 0\n",
        Expect::Field("optimizer.population"),
    ),
    (
        "kind = moead\nneighborhood = 0\n",
        Expect::Field("optimizer.neighborhood"),
    ),
    (
        "kind = archipelago\nmigration_interval = 0\n",
        Expect::Field("optimizer.migration_interval"),
    ),
    // A count that may be 0, and a seed.
    (
        "kind = nsga2\n[run]\ncheckpoint_every = -1\n",
        Expect::Line(7),
    ),
    ("kind = nsga2\n[run]\nseed = 1.5\n", Expect::Line(7)),
    (
        "kind = nsga2\n[run]\nseed = 18446744073709551615\n",
        Expect::Field("run.seed"),
    ),
    // A probability.
    ("kind = nsga2\ncrossover_probability = x\n", Expect::Line(6)),
    (
        "kind = nsga2\ncrossover_probability = 1.5\n",
        Expect::Field("optimizer.crossover_probability"),
    ),
    (
        "kind = archipelago\nmigration_probability = -0.1\n",
        Expect::Field("optimizer.migration_probability"),
    ),
    // A positive real.
    (
        "kind = moead\neta_mutation = 0\n",
        Expect::Field("optimizer.eta_mutation"),
    ),
    ("kind = nsga2\neta_crossover = fast\n", Expect::Line(6)),
    // `auto` or a probability.
    (
        "kind = nsga2\nmutation_probability = sometimes\n",
        Expect::Line(6),
    ),
    (
        "kind = moead\nmutation_probability = 2\n",
        Expect::Field("optimizer.mutation_probability"),
    ),
    // A backend and a topology.
    ("kind = nsga2\nbackend = gpu\n", Expect::Line(6)),
    ("kind = nsga2\nbackend = threads:x\n", Expect::Line(6)),
    ("kind = archipelago\ntopology = star\n", Expect::Line(6)),
    // Optional counts and the reference point.
    (
        "kind = nsga2\n[stop]\nmax_evaluations = lots\n",
        Expect::Line(7),
    ),
    (
        "kind = nsga2\n[observe]\nlog_every = 0\n",
        Expect::Field("observe.log_every"),
    ),
    (
        "kind = nsga2\n[run]\nreference_point = 1, x\n",
        Expect::Line(7),
    ),
    (
        "kind = nsga2\n[run]\nreference_point = 1, inf\n",
        Expect::Field("run.reference_point"),
    ),
    // A finite number, and the retention and stagnation counts.
    (
        "kind = nsga2\n[stop]\nstagnation_window = 5\nstagnation_epsilon = NaN\n",
        Expect::Field("stop.stagnation_epsilon"),
    ),
    (
        "kind = nsga2\n[stop]\nstagnation_window = 0\nstagnation_epsilon = 0.1\n",
        Expect::Field("stop.stagnation_window"),
    ),
    (
        "kind = nsga2\n[run]\ncheckpoint_keep_last = 0\n",
        Expect::Field("run.checkpoint_keep_last"),
    ),
    // The cross-key rules point at the key that is set.
    (
        "kind = nsga2\n[stop]\nmax_generations = 4\nmax_evaluations = 100\nstagnation_window = 5\n",
        Expect::Line(9),
    ),
    (
        "kind = nsga2\n[run]\nseed = 1\ncheckpoint_keep_every = 5\n",
        Expect::Line(8),
    ),
    (
        "kind = nsga2\n[stop]\nstagnation_epsilon = 0.1\n",
        Expect::Line(7),
    ),
];

#[test]
fn malformed_documents_raise_the_pinned_error() {
    for (body, expect) in &MALFORMED {
        let text = format!("{HEAD}{body}");
        let err = RunSpec::from_text(&text).expect_err(body);
        match (expect, &err) {
            (Expect::Line(want), SpecError::Parse { line, .. }) => {
                assert_eq!(line, want, "{body:?}: {err}");
            }
            (Expect::Field(want), SpecError::Field { field, .. }) => {
                assert_eq!(field, want, "{body:?}: {err}");
            }
            _ => panic!("{body:?}: expected {expect:?}, got {err:?}"),
        }
    }
}
