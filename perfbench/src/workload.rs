//! The paper's three workloads and the size of one study of each.
//!
//! Each workload stresses a different layer (see `perfbench/README.md`):
//! `leaf-ode` the ODE oracle and the pool's stealing, `geobacter-608` the
//! simplex set-up, variation over 608 genes and a microsecond-grain pooled
//! oracle, `leaf-analytic` the engine itself on the serial path, with
//! frequent checkpoints and one resume.

use pathway_moo::engine::{
    ArchipelagoSpec, Nsga2Spec, OptimizerSpec, ProblemSpec, RunSpec, StoppingSpec,
};
use pathway_moo::{EvalBackend, MigrationTopology};

use crate::oracle::Grain;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `OdeLeafRedesignProblem` (present CO₂, low export) under NSGA-II on
    /// a 2-lane pool, without checkpoints.
    LeafOde,
    /// The registry's `geobacter` problem at 608 reactions under a 2×100
    /// archipelago on a 2-lane pool, checkpointing rarely.
    Geobacter608,
    /// The registry's `leaf-design` problem under a 2×100 archipelago on
    /// the serial executor, checkpointing often and resuming once.
    LeafAnalytic,
}

/// How much work one study of a workload does. [`Workload::full_size`] is what the
/// benchmark measures; tests use smaller sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Size {
    /// Individuals per population (per island for the archipelago).
    pub population: usize,
    /// Generations per study.
    pub generations: usize,
    /// Reactions in the Geobacter model (ignored by the leaf workloads).
    pub reactions: usize,
    /// Checkpoint cadence in generations; 0 writes no checkpoints.
    pub checkpoint_every: usize,
    /// Generation at which the study drops its driver and resumes from its
    /// own latest checkpoint file.
    pub resume_at: Option<usize>,
    /// Evaluation lanes: 1 is the serial executor, 2 a pool.
    pub lanes: usize,
    /// Distinct search trajectories a run cycles through: study `i` of a
    /// run searches with [`search_seed`]`(seed, i % trajectories)`, so a
    /// run's medians cover several trajectories, not one. A run makes
    /// whole cycles, at least one.
    pub trajectories: usize,
    /// Wall seconds one study takes on the reference host (2 vCPUs): a run
    /// of `--seconds s` makes about `s / nominal_study_s` studies, rounded
    /// to whole cycles of trajectories, at least one.
    pub nominal_study_s: f64,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::LeafOde,
        Workload::Geobacter608,
        Workload::LeafAnalytic,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LeafOde => "leaf-ode",
            Workload::Geobacter608 => "geobacter-608",
            Workload::LeafAnalytic => "leaf-analytic",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured size of one study.
    pub fn full_size(self) -> Size {
        match self {
            Workload::LeafOde => Size {
                population: 40,
                generations: 24,
                reactions: 0,
                checkpoint_every: 0,
                resume_at: None,
                lanes: 2,
                trajectories: 5,
                nominal_study_s: 4.6,
            },
            Workload::Geobacter608 => Size {
                population: 100,
                generations: 3000,
                reactions: 608,
                checkpoint_every: 250,
                resume_at: None,
                lanes: 2,
                trajectories: 3,
                nominal_study_s: 20.0,
            },
            Workload::LeafAnalytic => Size {
                population: 100,
                generations: 300,
                reactions: 0,
                checkpoint_every: 10,
                resume_at: Some(150),
                lanes: 1,
                trajectories: 5,
                nominal_study_s: 0.55,
            },
        }
    }

    /// How traced studies time the oracle (see [`Grain`]).
    pub fn grain(self) -> Grain {
        match self {
            Workload::LeafOde => Grain::Candidate,
            Workload::Geobacter608 | Workload::LeafAnalytic => Grain::Chunk,
        }
    }

    /// Whether a first objective of exactly zero is a failed evaluation
    /// (the ODE oracle's encoding of an integration that never settled).
    pub fn zero_uptake_fails(self) -> bool {
        self == Workload::LeafOde
    }

    /// The fixed hypervolume reference point of the workload's fronts: the
    /// worst corner of the objective box the search can reach.
    pub fn reference_point(self) -> Vec<f64> {
        match self {
            // (-uptake, nitrogen): zero uptake, and the nitrogen of a leaf
            // at the 4x upper bound of every enzyme.
            Workload::LeafOde | Workload::LeafAnalytic => {
                let upper = pathway_photosynthesis::EnzymePartition::natural().scaled(4.0);
                vec![0.0, upper.total_nitrogen()]
            }
            // (-electron, -biomass) production: no production of either.
            Workload::Geobacter608 => vec![0.0, 0.0],
        }
    }

    /// The run description of one study: what a `pathway run` spec of this
    /// workload says. `leaf-ode`'s problem is not in the spec registry, so
    /// its problem name only labels the spec.
    pub fn spec(self, seed: u64, size: &Size) -> RunSpec {
        let backend = if size.lanes > 1 {
            EvalBackend::Threads(size.lanes)
        } else {
            EvalBackend::Serial
        };
        let island = Nsga2Spec {
            population: size.population,
            backend,
            ..Nsga2Spec::default()
        };
        let (problem, optimizer) = match self {
            Workload::LeafOde => (
                ProblemSpec::named("leaf-design-ode"),
                OptimizerSpec::Nsga2(island),
            ),
            Workload::Geobacter608 => (
                ProblemSpec::named("geobacter").with_param("reactions", size.reactions.to_string()),
                archipelago(island),
            ),
            Workload::LeafAnalytic => (ProblemSpec::named("leaf-design"), archipelago(island)),
        };
        RunSpec {
            problem,
            optimizer,
            seed,
            checkpoint_every: size.checkpoint_every,
            reference_point: Some(self.reference_point()),
            stopping: StoppingSpec {
                max_generations: size.generations,
                ..StoppingSpec::default()
            },
            ..RunSpec::default()
        }
    }
}

/// The search seed of trajectory `k` of a run made with workload seed
/// `seed`.
pub fn search_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64)
}

/// Two islands with broadcast migration every 25 generations, the paper's
/// PMO2 shape.
fn archipelago(island: Nsga2Spec) -> OptimizerSpec {
    OptimizerSpec::Archipelago(ArchipelagoSpec {
        islands: 2,
        island,
        migration_interval: 25,
        migration_probability: 0.5,
        topology: MigrationTopology::Broadcast,
    })
}
