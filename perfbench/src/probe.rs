//! Kernel probes: direct calls into one layer's public functions on fixed
//! inputs, each reporting exact work counts next to its time.
//!
//! Every probe that repeats checks that its counts repeat exactly; a count
//! that differs between repetitions is listed in [`ProbeReport::unstable`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use pathway_fba::geobacter::GeobacterModel;
use pathway_fba::{steady_state_violation_batch, FluxBalanceAnalysis};
use pathway_linalg::{LuDecomposition, Matrix, Vector};
use pathway_ode::{IntegrationStats, OdeSystem};
use pathway_photosynthesis::{
    CalvinCycleOde, EnzymePartition, OdeUptakeEvaluator, Scenario, POOL_COUNT,
};

use crate::stats;

/// Seed of the registry's default Geobacter model (`model_seed`), so the
/// probes see the same 608-reaction model the workload builds.
pub const GEOBACTER_MODEL_SEED: u64 = 0x6E0B;

/// Candidates in the CSR violation-batch probe.
const VIOLATION_BATCH: usize = 100;

/// What the probes measured.
#[derive(Debug, Clone, Default)]
pub struct ProbeReport {
    /// Times, by metric name (units in the name's suffix).
    pub times: BTreeMap<String, f64>,
    /// Exact work counts, by metric name.
    pub counts: BTreeMap<String, u64>,
    /// Counts that differed between repetitions of one probe.
    pub unstable: Vec<String>,
}

impl ProbeReport {
    fn count(&mut self, name: &str, value: u64) {
        match self.counts.insert(name.to_string(), value) {
            Some(previous) if previous != value => self.unstable.push(name.to_string()),
            _ => {}
        }
    }
}

/// A tiny deterministic generator for probe inputs.
struct Lcg(u64);

impl Lcg {
    /// Uniform in `[-1, 1)`.
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// Median nanoseconds per call of `f`, over `batches` batches of `calls`.
fn ns_per_call(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                f();
            }
            started.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    stats::median(&samples)
}

fn record_ode(report: &mut ProbeReport, prefix: &str, stats: &IntegrationStats) {
    report.count(&format!("{prefix}.steps"), stats.steps_attempted() as u64);
    report.count(&format!("{prefix}.rhs_evals"), stats.rhs_evaluations as u64);
    report.count(
        &format!("{prefix}.jacobians"),
        stats.jacobian_evaluations as u64,
    );
    report.count(
        &format!("{prefix}.newton_iters"),
        stats.newton_iterations as u64,
    );
}

/// Cold and warm steady-state solves of the natural leaf with the oracle's
/// integrator. The warm solve starts from the steady state of a design 2%
/// away, as a child starts from its parent in the search.
///
/// # Errors
///
/// When the natural or the nearby design does not settle.
pub fn ode(report: &mut ProbeReport) -> Result<(), String> {
    const REPEATS: usize = 3;
    let evaluator = OdeUptakeEvaluator::fast();
    let scenario = Scenario::present_low_export();
    let natural = EnzymePartition::natural();
    let (nearby, _) = evaluator
        .steady_state(&natural.scaled(1.02), &scenario)
        .map_err(|e| format!("the design 2% from natural does not settle: {e}"))?;
    let mut cold_ms = Vec::new();
    let mut warm_ms = Vec::new();
    for _ in 0..REPEATS {
        let started = Instant::now();
        let (cold, _) = evaluator
            .steady_state(&natural, &scenario)
            .map_err(|e| format!("the natural design does not settle: {e}"))?;
        cold_ms.push(started.elapsed().as_secs_f64() * 1e3);
        record_ode(report, "ode.cold", &cold.stats);

        let started = Instant::now();
        let (warm, _) = evaluator
            .steady_state_from(&natural, &scenario, nearby.state.clone())
            .map_err(|e| format!("the warm-started natural design does not settle: {e}"))?;
        warm_ms.push(started.elapsed().as_secs_f64() * 1e3);
        record_ode(report, "ode.warm", &warm.stats);
    }
    report
        .times
        .insert("ode.cold_ms".into(), stats::median(&cold_ms));
    report
        .times
        .insert("ode.warm_ms".into(), stats::median(&warm_ms));
    Ok(())
}

/// LU factor (with partial pivoting, into existing storage) and solve at
/// the ODE's Newton-matrix size, on a fixed diagonally dominant matrix.
///
/// # Errors
///
/// Never in practice: the matrix is diagonally dominant.
pub fn lu(report: &mut ProbeReport) -> Result<(), String> {
    let n = POOL_COUNT;
    let mut rng = Lcg(24);
    let data: Vec<f64> = (0..n * n)
        .map(|k| rng.next() + if k % (n + 1) == 0 { n as f64 } else { 0.0 })
        .collect();
    let a = Matrix::from_flat(n, n, data).map_err(|e| e.to_string())?;
    let b = Vector::from((0..n).map(|_| rng.next()).collect::<Vec<f64>>());
    let mut lu = LuDecomposition::new(&a).map_err(|e| e.to_string())?;
    let mut x = Vector::zeros(n);
    let factor_ns = ns_per_call(7, 2000, || {
        lu.refactor(black_box(&a)).expect("diagonally dominant");
    });
    let solve_ns = ns_per_call(7, 20000, || {
        lu.solve_into(black_box(&b), &mut x).expect("factored");
        black_box(&x);
    });
    report.times.insert("linalg.lu_factor_ns".into(), factor_ns);
    report.times.insert("linalg.lu_solve_ns".into(), solve_ns);
    Ok(())
}

/// One right-hand-side evaluation of the Calvin-cycle model of the natural
/// leaf at its cold-start state.
pub fn rhs(report: &mut ProbeReport) {
    let model = CalvinCycleOde::new(&EnzymePartition::natural(), &Scenario::present_low_export());
    let y = model.initial_state();
    let mut dydt = Vector::zeros(POOL_COUNT);
    let ns = ns_per_call(7, 50000, || {
        model.rhs(0.0, black_box(&y), &mut dydt);
        black_box(&dydt);
    });
    report.times.insert("photosynthesis.rhs_ns".into(), ns);
}

/// The registry's 608-reaction Geobacter model.
pub fn geobacter_model(reactions: usize) -> GeobacterModel {
    GeobacterModel::builder()
        .reactions(reactions)
        .seed(GEOBACTER_MODEL_SEED)
        .build()
}

/// One `steady_state_violation_batch` over fixed candidates: the oracle's
/// whole kernel, one sparse x dense product plus column norms. The flop
/// count is computed from the matrix: a multiply and an add per stored
/// coefficient and per squared residual, per candidate.
///
/// # Errors
///
/// When the kernel rejects the batch.
pub fn violation_batch(report: &mut ProbeReport, model: &GeobacterModel) -> Result<(), String> {
    let model = model.model();
    let mut rng = Lcg(608);
    let batch: Vec<Vec<f64>> = (0..VIOLATION_BATCH)
        .map(|_| {
            (0..model.num_reactions())
                .map(|_| 10.0 * rng.next())
                .collect()
        })
        .collect();
    let mut failure = None;
    let us = ns_per_call(9, 10, || {
        if let Err(e) = steady_state_violation_batch(model, black_box(&batch)) {
            failure = Some(e.to_string());
        }
    }) / 1e3;
    if let Some(e) = failure {
        return Err(e);
    }
    let s = model.stoichiometric_matrix();
    let flops = VIOLATION_BATCH as u64 * (2 * s.nnz() as u64 + 2 * s.rows() as u64);
    report.times.insert("fba.violation_batch_us".into(), us);
    report.count("fba.violation_batch_flops", flops);
    Ok(())
}

/// The two flux-balance solves the Geobacter problem makes at set-up
/// (maximum biomass, maximum electron production), timed and counted.
///
/// # Errors
///
/// When either linear program fails.
pub fn fba_solves(report: &mut ProbeReport, model: &GeobacterModel) -> Result<(), String> {
    let fba = FluxBalanceAnalysis::new(model.model());
    let mut ms = Vec::new();
    let mut pivots = 0u64;
    for reaction in [model.biomass_reaction(), model.electron_reaction()] {
        let started = Instant::now();
        let solution = fba.maximize_reaction(reaction).map_err(|e| e.to_string())?;
        ms.push(started.elapsed().as_secs_f64() * 1e3);
        pivots += solution.iterations as u64;
    }
    report
        .times
        .insert("fba.solve_ms".into(), stats::median(&ms));
    report.count("fba.simplex_pivots", pivots);
    Ok(())
}
