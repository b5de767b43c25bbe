use std::sync::OnceLock;

use pathway_kinetics::rate_laws;
use pathway_linalg::Vector;
use pathway_ode::{
    forward_difference_step, BackwardEuler, Jacobian, JacobianPattern, OdeError, OdeSystem,
    PseudoTransient, SteadyState,
};

use crate::enzymes::EnzymeKind;
use crate::partition::EnzymePartition;
use crate::scenario::Scenario;
use crate::uptake::UptakeModel;

/// Number of metabolite pools tracked by the dynamic model.
pub const POOL_COUNT: usize = 24;

/// Metabolite pools of the dynamic Calvin-cycle / photorespiration / sucrose
/// model, in state-vector order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // The variant names are the metabolite names themselves.
pub enum MetabolitePool {
    RuBP,
    Pga,
    Dpga,
    TrioseP,
    Fbp,
    F6p,
    E4p,
    Sbp,
    S7p,
    PentoseP,
    Pgca,
    Gca,
    Goa,
    Glycine,
    Serine,
    Hydroxypyruvate,
    Glycerate,
    CytosolicTrioseP,
    CytosolicFbp,
    CytosolicHexoseP,
    Udpg,
    SucroseP,
    Sucrose,
    F26bp,
}

impl MetabolitePool {
    /// All pools in state-vector order.
    pub const ALL: [MetabolitePool; POOL_COUNT] = [
        MetabolitePool::RuBP,
        MetabolitePool::Pga,
        MetabolitePool::Dpga,
        MetabolitePool::TrioseP,
        MetabolitePool::Fbp,
        MetabolitePool::F6p,
        MetabolitePool::E4p,
        MetabolitePool::Sbp,
        MetabolitePool::S7p,
        MetabolitePool::PentoseP,
        MetabolitePool::Pgca,
        MetabolitePool::Gca,
        MetabolitePool::Goa,
        MetabolitePool::Glycine,
        MetabolitePool::Serine,
        MetabolitePool::Hydroxypyruvate,
        MetabolitePool::Glycerate,
        MetabolitePool::CytosolicTrioseP,
        MetabolitePool::CytosolicFbp,
        MetabolitePool::CytosolicHexoseP,
        MetabolitePool::Udpg,
        MetabolitePool::SucroseP,
        MetabolitePool::Sucrose,
        MetabolitePool::F26bp,
    ];

    /// Index of the pool in the state vector.
    ///
    /// The enum variants are declared in `ALL` order, so the discriminant
    /// *is* the state-vector index (`pool_indices_round_trip` pins this).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Number of phosphate groups carried by one molecule of the pool, used by
    /// the free-phosphate feedback.
    pub const fn phosphate_groups(self) -> f64 {
        match self {
            MetabolitePool::RuBP
            | MetabolitePool::Dpga
            | MetabolitePool::Fbp
            | MetabolitePool::Sbp
            | MetabolitePool::CytosolicFbp
            | MetabolitePool::F26bp => 2.0,
            MetabolitePool::Pga
            | MetabolitePool::TrioseP
            | MetabolitePool::F6p
            | MetabolitePool::E4p
            | MetabolitePool::S7p
            | MetabolitePool::PentoseP
            | MetabolitePool::Pgca
            | MetabolitePool::Glycerate
            | MetabolitePool::CytosolicTrioseP
            | MetabolitePool::CytosolicHexoseP
            | MetabolitePool::Udpg
            | MetabolitePool::SucroseP => 1.0,
            _ => 0.0,
        }
    }
}

/// Phosphate groups per pool in state-vector order, so the free-phosphate
/// feedback is a single slice zip over the state instead of 24 enum
/// dispatches per right-hand-side call.
const PHOSPHATE_GROUPS: [f64; POOL_COUNT] = {
    let mut table = [0.0; POOL_COUNT];
    let mut i = 0;
    while i < POOL_COUNT {
        table[i] = MetabolitePool::ALL[i].phosphate_groups();
        i += 1;
    }
    table
};

/// The floor under free phosphate (mmol/l).
const PHOSPHATE_FLOOR: f64 = 1e-3;

/// The fluxes of interest computed alongside the state derivative.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PathwayFluxes {
    /// Rubisco carboxylation flux (mmol l⁻¹ s⁻¹).
    pub carboxylation: f64,
    /// Rubisco oxygenation flux (mmol l⁻¹ s⁻¹).
    pub oxygenation: f64,
    /// Starch synthesis flux through ADPGPP.
    pub starch_synthesis: f64,
    /// Sucrose synthesis flux through SPP.
    pub sucrose_synthesis: f64,
}

/// Dynamic ODE model of the C3 carbon-metabolism pathway.
///
/// The model tracks 24 metabolite pools in the stroma and cytosol. All
/// non-equilibrium reactions obey Michaelis–Menten kinetics whose Vmax comes
/// from the [`EnzymePartition`]; fast interconversions (triose-phosphate and
/// pentose-phosphate pools) are lumped, following the structure of the Zhu et
/// al. model. A conserved phosphate budget provides the feedback that keeps
/// the system bounded: as phosphorylated intermediates accumulate, free
/// phosphate drops and carboxylation slows down.
///
/// The model implements [`OdeSystem`] so any solver from `pathway-ode` can
/// integrate it; [`OdeUptakeEvaluator`] wraps the steady-state evaluation.
///
/// Free phosphate is the model's only dense coupling: with it held fixed,
/// the Jacobian has 63 non-zeros of 576. The [`OdeSystem::jacobian`] hook
/// therefore supplies `J = S + u·gᵀ` (sparse `S`, `u = ∂f/∂Pi`,
/// `g = ∂Pi/∂y`) in 6 right-hand-side calls instead of 24, and
/// [`PseudoTransient`] solves each Newton step by Sherman–Morrison over a
/// static-pivot sparse LU.
#[derive(Debug, Clone)]
pub struct CalvinCycleOde {
    /// Per-enzyme Vmax in volumetric units (capacity / volume factor),
    /// precomputed once so the right-hand side never divides.
    vmax: Vec<f64>,
    ci: f64,
    export_rate: f64,
    /// Conversion between leaf-area capacities (µmol m⁻² s⁻¹) and volumetric
    /// rates (mmol l⁻¹ s⁻¹).
    volume_factor: f64,
    /// Total phosphate pool (mmol/l).
    total_phosphate: f64,
    /// Oxygenation/carboxylation ratio for the scenario.
    phi: f64,
    /// First-order dilution applied to every pool (1/s); keeps the system
    /// damped and guarantees a steady state exists.
    dilution: f64,
}

impl CalvinCycleOde {
    /// Builds the dynamic model for a partition and a scenario.
    pub fn new(partition: &EnzymePartition, scenario: &Scenario) -> Self {
        let uptake_model = UptakeModel::new();
        let volume_factor = 30.0;
        CalvinCycleOde {
            vmax: partition
                .capacities()
                .iter()
                .map(|&c| c / volume_factor)
                .collect(),
            ci: scenario.ci(),
            export_rate: scenario.export.rate(),
            volume_factor,
            total_phosphate: 30.0,
            phi: uptake_model.oxygenation_ratio(scenario.ci()),
            dilution: 0.005,
        }
    }

    fn vmax(&self, kind: EnzymeKind) -> f64 {
        self.vmax[kind.index()]
    }

    /// The total phosphate minus the phosphate bound in the tracked pools,
    /// before the floor of [`CalvinCycleOde::free_phosphate`].
    fn unfloored_phosphate(&self, y: &Vector) -> f64 {
        let bound: f64 = PHOSPHATE_GROUPS
            .iter()
            .zip(y.as_slice())
            .map(|(&groups, &c)| groups * c.max(0.0))
            .sum();
        self.total_phosphate - bound
    }

    /// Free phosphate remaining after subtracting the phosphate bound in the
    /// tracked pools, clamped to a small positive floor.
    fn free_phosphate(&self, y: &Vector) -> f64 {
        self.unfloored_phosphate(y).max(PHOSPHATE_FLOOR)
    }

    /// Evaluates every reaction flux at the current state.
    fn fluxes(&self, y: &Vector) -> PathwayFluxes {
        self.fluxes_with_pi(y, self.free_phosphate(y))
    }

    /// [`CalvinCycleOde::fluxes`] with the free-phosphate pool already known,
    /// so the right-hand side evaluates the phosphate budget exactly once per
    /// call instead of once here and once for its own rate laws.
    fn fluxes_with_pi(&self, y: &Vector, pi: f64) -> PathwayFluxes {
        use MetabolitePool as P;
        let pi_factor = pi / (pi + 1.0);

        let rubp = y[P::RuBP.index()];
        let kc_eff = 160.0 * (1.0 + 210.0 / 250.0);
        let co2_saturation = self.ci / (self.ci + kc_eff);
        let carboxylation = rate_laws::michaelis_menten(
            self.vmax(EnzymeKind::Rubisco) * co2_saturation * pi_factor,
            0.3,
            rubp,
        );
        let oxygenation = carboxylation * self.phi;

        let starch_synthesis = rate_laws::michaelis_menten(
            self.vmax(EnzymeKind::Adpgpp) / 2.0,
            1.0,
            y[P::F6p.index()],
        );
        let sucrose_synthesis = rate_laws::michaelis_menten(
            self.vmax(EnzymeKind::Spp) / 1.6,
            0.1,
            y[P::SucroseP.index()],
        );

        PathwayFluxes {
            carboxylation,
            oxygenation,
            starch_synthesis,
            sucrose_synthesis,
        }
    }

    /// Net CO₂ uptake (µmol m⁻² s⁻¹) implied by the fluxes at state `y`:
    /// carboxylation minus the CO₂ released by glycine decarboxylation.
    pub fn net_uptake(&self, y: &Vector) -> f64 {
        let fluxes = self.fluxes(y);
        (fluxes.carboxylation - 0.5 * fluxes.oxygenation) * self.volume_factor
    }

    /// A reasonable initial condition: every pool at a small positive value,
    /// with the Calvin-cycle carriers primed so the autocatalytic cycle can
    /// spool up.
    pub fn initial_state(&self) -> Vector {
        let mut y = Vector::filled(POOL_COUNT, 0.5);
        y[MetabolitePool::RuBP.index()] = 2.0;
        y[MetabolitePool::Pga.index()] = 2.0;
        y[MetabolitePool::TrioseP.index()] = 1.0;
        y[MetabolitePool::F26bp.index()] = 0.05;
        y
    }
}

impl OdeSystem for CalvinCycleOde {
    fn dim(&self) -> usize {
        POOL_COUNT
    }

    fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
        self.rhs_with_pi(y, self.free_phosphate(y), dydt);
    }

    /// `J = S + u·gᵀ`, with free phosphate `Pi` as the coupling: `S` by
    /// compressed differences with `Pi` held fixed (one call per column group
    /// of [`CalvinCycleOde::jacobian_pattern`]), `u = ∂f/∂Pi` by one more
    /// forward difference, and `g = ∂Pi/∂y` exactly: `−groups_j` for a
    /// phosphate-carrying pool at `y_j ≥ 0` (the right derivative, as a
    /// forward difference sees it at a pool clamped to 0), and 0 where
    /// `y_j < 0` or the floor binds.
    fn jacobian(&self, _t: f64, y: &Vector, f: &Vector, jacobian: &mut Jacobian) -> usize {
        let unfloored = self.unfloored_phosphate(y);
        let pi = unfloored.max(PHOSPHATE_FLOOR);
        let structured = jacobian.sparse_plus_rank_one(Self::jacobian_pattern());
        let calls = structured.difference_sparse_part(y, f, |y, out| self.rhs_with_pi(y, pi, out));
        let (u, g) = structured.rank_one_mut();
        let h = forward_difference_step(pi);
        self.rhs_with_pi(y, pi + h, u);
        for (du, &fi) in u.as_mut_slice().iter_mut().zip(f.as_slice()) {
            *du = (*du - fi) / h;
        }
        let floored = unfloored <= PHOSPHATE_FLOOR;
        for ((dg, &groups), &c) in g
            .as_mut_slice()
            .iter_mut()
            .zip(&PHOSPHATE_GROUPS)
            .zip(y.as_slice())
        {
            *dg = if floored || c < 0.0 { 0.0 } else { -groups };
        }
        calls + 1
    }

    fn project(&self, _t: f64, y: &mut Vector) {
        y.clamp_mut(0.0, 100.0);
    }
}

impl CalvinCycleOde {
    /// The structural non-zeros of [`CalvinCycleOde`]'s Jacobian with free
    /// phosphate held fixed, the sparse part `S` of `J = S + u·gᵀ`. Found once,
    /// by probing the right-hand side itself: at two interior states, each pool
    /// is moved in turn by a finite amount under the natural leaf in the
    /// present scenario (every rate constant positive), and the rows that
    /// change form its column. A design's Jacobian can only lack an entry
    /// here, never add one: every flux is monotone in each substrate, so a
    /// dependence that exists shows at any interior state.
    pub fn jacobian_pattern() -> &'static JacobianPattern {
        static PATTERN: OnceLock<JacobianPattern> = OnceLock::new();
        PATTERN.get_or_init(|| {
            let model =
                CalvinCycleOde::new(&EnzymePartition::natural(), &Scenario::present_low_export());
            let pi = model.total_phosphate / 2.0;
            let mut base = Vector::zeros(POOL_COUNT);
            let mut moved = Vector::zeros(POOL_COUNT);
            let mut entries = Vec::new();
            for offset in [0.3, 2.0] {
                let mut y: Vector = (0..POOL_COUNT).map(|j| offset + 0.07 * j as f64).collect();
                model.rhs_with_pi(&y, pi, &mut base);
                for j in 0..POOL_COUNT {
                    let held = y[j];
                    y[j] = held + 0.5;
                    model.rhs_with_pi(&y, pi, &mut moved);
                    y[j] = held;
                    entries.extend(
                        (0..POOL_COUNT)
                            .filter(|&i| moved[i] != base[i])
                            .map(|i| (i, j)),
                    );
                }
            }
            JacobianPattern::new(POOL_COUNT, entries)
        })
    }

    /// The right-hand side with free phosphate given as `pi` instead of
    /// computed from `y`; [`OdeSystem::rhs`] passes the computed value.
    fn rhs_with_pi(&self, y: &Vector, pi: f64, dydt: &mut Vector) {
        use MetabolitePool as P;
        let idx = |p: P| p.index();
        let conc = |p: P| y[idx(p)].max(0.0);

        let pi_factor = pi / (pi + 1.0);

        let fluxes = self.fluxes_with_pi(y, pi);
        let vc = fluxes.carboxylation;
        let vo = fluxes.oxygenation;

        // Calvin cycle.
        let v_pga_kinase = rate_laws::michaelis_menten(
            self.vmax(EnzymeKind::PgaKinase) * pi_factor,
            0.5,
            conc(P::Pga),
        );
        let v_gapdh = rate_laws::michaelis_menten(self.vmax(EnzymeKind::Gapdh), 0.3, conc(P::Dpga));
        let v_fbp_aldolase =
            rate_laws::michaelis_menten(self.vmax(EnzymeKind::FbpAldolase), 0.4, conc(P::TrioseP));
        let v_fbpase = rate_laws::competitive_inhibition(
            self.vmax(EnzymeKind::Fbpase),
            0.15,
            conc(P::Fbp),
            conc(P::F26bp),
            0.05,
        );
        let v_transketolase = rate_laws::michaelis_menten_two_substrates(
            self.vmax(EnzymeKind::Transketolase),
            0.3,
            conc(P::F6p),
            0.3,
            conc(P::TrioseP),
        );
        let v_sbp_aldolase = rate_laws::michaelis_menten_two_substrates(
            self.vmax(EnzymeKind::SbpAldolase),
            0.3,
            conc(P::E4p),
            0.3,
            conc(P::TrioseP),
        );
        let v_sbpase =
            rate_laws::michaelis_menten(self.vmax(EnzymeKind::Sbpase), 0.1, conc(P::Sbp));
        let v_transketolase2 = rate_laws::michaelis_menten_two_substrates(
            self.vmax(EnzymeKind::Transketolase),
            0.3,
            conc(P::S7p),
            0.3,
            conc(P::TrioseP),
        );
        let v_prk = rate_laws::michaelis_menten(
            self.vmax(EnzymeKind::Prk) * pi_factor,
            0.2,
            conc(P::PentoseP),
        );

        // Starch branch (sink).
        let v_adpgpp = fluxes.starch_synthesis;

        // Photorespiration.
        let v_pgcapase =
            rate_laws::michaelis_menten(self.vmax(EnzymeKind::Pgcapase), 0.1, conc(P::Pgca));
        let v_goa_oxidase =
            rate_laws::michaelis_menten(self.vmax(EnzymeKind::GoaOxidase), 0.1, conc(P::Gca));
        let v_ggat = rate_laws::michaelis_menten(self.vmax(EnzymeKind::Ggat), 0.2, conc(P::Goa));
        let v_gdc = rate_laws::michaelis_menten(self.vmax(EnzymeKind::Gdc), 0.5, conc(P::Glycine));
        let v_gsat = rate_laws::michaelis_menten(self.vmax(EnzymeKind::Gsat), 0.2, conc(P::Serine));
        let v_hpr = rate_laws::michaelis_menten(
            self.vmax(EnzymeKind::HprReductase),
            0.1,
            conc(P::Hydroxypyruvate),
        );
        let v_gcea_kinase = rate_laws::michaelis_menten(
            self.vmax(EnzymeKind::GceaKinase) * pi_factor,
            0.2,
            conc(P::Glycerate),
        );

        // Triose-phosphate export to the cytosol, saturating at the scenario's
        // transporter capacity. The high K_m keeps the exporter from draining
        // the cycle while it is still spooling up.
        let v_export = rate_laws::michaelis_menten(self.export_rate, 2.0, conc(P::TrioseP));

        // Cytosolic sucrose synthesis.
        let v_cyt_aldolase = rate_laws::michaelis_menten(
            self.vmax(EnzymeKind::CytosolicFbpAldolase),
            0.3,
            conc(P::CytosolicTrioseP),
        );
        let v_cyt_fbpase = rate_laws::competitive_inhibition(
            self.vmax(EnzymeKind::CytosolicFbpase),
            0.15,
            conc(P::CytosolicFbp),
            conc(P::F26bp),
            0.02,
        );
        let v_udpgp = rate_laws::michaelis_menten(
            self.vmax(EnzymeKind::Udpgp),
            0.2,
            conc(P::CytosolicHexoseP),
        );
        let v_sps = rate_laws::michaelis_menten_two_substrates(
            self.vmax(EnzymeKind::Sps),
            0.3,
            conc(P::Udpg),
            0.3,
            conc(P::CytosolicHexoseP),
        );
        let v_spp = fluxes.sucrose_synthesis;
        // Sucrose leaves the system (phloem loading), first order.
        let v_sucrose_sink = 0.2 * conc(P::Sucrose);

        // Basal pentose-phosphate supply from stored reserves (oxidative
        // pentose-phosphate pathway); keeps the autocatalytic cycle from
        // collapsing into the trivial washout steady state.
        let v_pentose_basal = 0.02;

        // F2,6BP regulatory pool: synthesized at a constant rate, degraded by
        // F26BPase.
        let v_f26_synthesis = 0.01;
        let v_f26bpase =
            rate_laws::michaelis_menten(self.vmax(EnzymeKind::F26Bpase), 0.02, conc(P::F26bp));

        // Assemble the derivative: dilution term over the whole state first
        // (a slice zip the compiler vectorizes), then the reaction terms.
        for (d, &c) in dydt.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *d = -self.dilution * c;
        }
        let mut add = |pool: P, v: f64| {
            dydt[idx(pool)] += v;
        };

        // RuBP consumed by carboxylation and oxygenation, produced by PRK.
        add(P::RuBP, v_prk - vc - vo);
        // PGA: 2 per carboxylation, 1 per oxygenation, 1 from glycerate kinase.
        add(P::Pga, 2.0 * vc + vo + v_gcea_kinase - v_pga_kinase);
        add(P::Dpga, v_pga_kinase - v_gapdh);
        // Triose phosphate: produced by GAPDH, consumed by the aldolases,
        // transketolases and export.
        add(
            P::TrioseP,
            v_gapdh
                - 2.0 * v_fbp_aldolase
                - v_transketolase
                - v_sbp_aldolase
                - v_transketolase2
                - v_export,
        );
        add(P::Fbp, v_fbp_aldolase - v_fbpase);
        add(P::F6p, v_fbpase - v_transketolase - v_adpgpp);
        add(P::E4p, v_transketolase - v_sbp_aldolase);
        add(P::Sbp, v_sbp_aldolase - v_sbpase);
        add(P::S7p, v_sbpase - v_transketolase2);
        // Pentose phosphates: one from TK1, two from TK2, a basal supply from
        // reserves, consumed by PRK.
        add(
            P::PentoseP,
            v_transketolase + 2.0 * v_transketolase2 + v_pentose_basal - v_prk,
        );
        // Photorespiratory loop.
        add(P::Pgca, vo - v_pgcapase);
        add(P::Gca, v_pgcapase - v_goa_oxidase);
        add(P::Goa, v_goa_oxidase - v_ggat);
        add(P::Glycine, v_ggat - v_gdc);
        add(P::Serine, 0.5 * v_gdc - v_gsat);
        add(P::Hydroxypyruvate, v_gsat - v_hpr);
        add(P::Glycerate, v_hpr - v_gcea_kinase);
        // Cytosol.
        add(P::CytosolicTrioseP, v_export - 2.0 * v_cyt_aldolase);
        add(P::CytosolicFbp, v_cyt_aldolase - v_cyt_fbpase);
        add(P::CytosolicHexoseP, v_cyt_fbpase - v_udpgp - v_sps);
        add(P::Udpg, v_udpgp - v_sps);
        add(P::SucroseP, v_sps - v_spp);
        add(P::Sucrose, v_spp - v_sucrose_sink);
        add(P::F26bp, v_f26_synthesis - v_f26bpase);
    }
}

/// Evaluates leaf CO₂ uptake at the steady state of [`CalvinCycleOde`], the
/// dynamic counterpart of the analytic [`UptakeModel`].
///
/// The steady state is found by pseudo-transient continuation
/// ([`PseudoTransient`]), which converges on the scaled residual
/// `‖f(y)‖∞ / (1 + ‖y‖∞)` and so scores true steady states, never points on
/// a slow transient.
#[derive(Debug, Clone)]
pub struct OdeUptakeEvaluator {
    solver: PseudoTransient,
}

impl Default for OdeUptakeEvaluator {
    fn default() -> Self {
        OdeUptakeEvaluator {
            solver: PseudoTransient::new(0.05, 1e-10, 1000),
        }
    }
}

impl OdeUptakeEvaluator {
    /// Creates an evaluator with default settings: initial pseudo-time step
    /// 0.05, scaled-residual tolerance `1e-10`, at most 1000 steps.
    pub fn new() -> Self {
        Self::default()
    }

    /// The evaluator an optimization loop uses: initial pseudo-time step
    /// 0.1, scaled-residual tolerance `1e-8` and at most 400 steps. The ODE
    /// leaf oracle starts every solve cold ([`OdeUptakeEvaluator::steady_state`]),
    /// so a design's score never depends on what was solved before it. A
    /// cold start of the natural leaf takes 65 steps of 7 right-hand-side
    /// calls each (the structured Jacobian's 6 and the trial); upscaled
    /// leaves settle in 14–27 steps, starved ones in about 150. Its uptakes
    /// agree with [`OdeUptakeEvaluator::new`] to about `1e-8` relative.
    pub fn fast() -> Self {
        OdeUptakeEvaluator {
            solver: PseudoTransient::new(0.1, 1e-8, 400),
        }
    }

    /// Solves the dynamic model for its steady state from the cold-start
    /// state and returns the steady state together with the implied net CO₂
    /// uptake (µmol m⁻² s⁻¹).
    ///
    /// # Errors
    ///
    /// Propagates solver failures, in particular
    /// [`OdeError::SteadyStateNotReached`] when the pathway does not settle
    /// within the step budget.
    pub fn steady_state(
        &self,
        partition: &EnzymePartition,
        scenario: &Scenario,
    ) -> Result<(SteadyState, f64), OdeError> {
        let model = CalvinCycleOde::new(partition, scenario);
        let steady = self.solver.solve(&model, model.initial_state())?;
        let uptake = model.net_uptake(&steady.state);
        Ok((steady, uptake))
    }

    /// Like [`OdeUptakeEvaluator::steady_state`], but starts the solve from
    /// an explicit state instead of the model's cold-start default.
    ///
    /// Seeding the solve with the steady state of a *similar* partition
    /// starts it near the root. The first pseudo-time step is scaled by how
    /// much smaller the residual is there than at the cold start
    /// ([`PseudoTransient::solve_from`]), so a close warm start begins with
    /// a near-Newton step and settles in a few steps. The search does not
    /// use it: the model is bistable, and which branch a warm start lands
    /// on depends on the state it starts from, so a warm-started score
    /// would depend on search history. It serves the benchmark's solver
    /// probes and the tests that pin that bistability.
    ///
    /// # Errors
    ///
    /// Same as [`OdeUptakeEvaluator::steady_state`].
    pub fn steady_state_from(
        &self,
        partition: &EnzymePartition,
        scenario: &Scenario,
        y0: Vector,
    ) -> Result<(SteadyState, f64), OdeError> {
        let model = CalvinCycleOde::new(partition, scenario);
        let steady = self.solver.solve_from(&model, y0, &model.initial_state())?;
        let uptake = model.net_uptake(&steady.state);
        Ok((steady, uptake))
    }

    /// Convenience: only the net uptake.
    ///
    /// # Errors
    ///
    /// Same as [`OdeUptakeEvaluator::steady_state`].
    pub fn co2_uptake(
        &self,
        partition: &EnzymePartition,
        scenario: &Scenario,
    ) -> Result<f64, OdeError> {
        Ok(self.steady_state(partition, scenario)?.1)
    }

    /// Integrates the model for a fixed horizon with backward Euler at the
    /// solver's initial step and returns the trajectory endpoint; useful for
    /// inspecting transients.
    ///
    /// The march starts cold, from [`CalvinCycleOde::initial_state`], and
    /// completes only for designs near the natural partition. For uniformly
    /// scaled partitions at the default step of 0.1 s it completes up to
    /// 1.4× natural in every scenario and up to 1.5× at low export. From
    /// 1.6× (1.5× at high export) the Newton iteration of its first or second
    /// step diverges, although [`OdeUptakeEvaluator::steady_state`] still
    /// settles there: that is the upper part of the leaf problems' 0.02×–4×
    /// search box.
    ///
    /// # Errors
    ///
    /// Propagates integration failures from the underlying solver:
    /// [`OdeError::NewtonDivergence`] for the designs above.
    pub fn transient(
        &self,
        partition: &EnzymePartition,
        scenario: &Scenario,
        horizon: f64,
    ) -> Result<Vector, OdeError> {
        let model = CalvinCycleOde::new(partition, scenario);
        let result = BackwardEuler::new(self.solver.step()).integrate(
            &model,
            0.0,
            model.initial_state(),
            horizon,
        )?;
        Ok(result.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CarbonDioxideEra, TriosePhosphateExport};

    #[test]
    fn pool_indices_round_trip() {
        for (i, &pool) in MetabolitePool::ALL.iter().enumerate() {
            assert_eq!(pool.index(), i);
        }
        assert_eq!(MetabolitePool::ALL.len(), POOL_COUNT);
    }

    #[test]
    fn phosphate_groups_are_physically_sensible() {
        assert_eq!(MetabolitePool::RuBP.phosphate_groups(), 2.0);
        assert_eq!(MetabolitePool::Pga.phosphate_groups(), 1.0);
        assert_eq!(MetabolitePool::Sucrose.phosphate_groups(), 0.0);
    }

    #[test]
    fn rhs_is_finite_at_the_initial_state() {
        let model =
            CalvinCycleOde::new(&EnzymePartition::natural(), &Scenario::present_low_export());
        let y = model.initial_state();
        let mut dydt = Vector::zeros(POOL_COUNT);
        model.rhs(0.0, &y, &mut dydt);
        assert!(dydt.is_finite());
    }

    #[test]
    fn carboxylation_stops_without_rubp() {
        let model =
            CalvinCycleOde::new(&EnzymePartition::natural(), &Scenario::present_low_export());
        let mut y = model.initial_state();
        y[MetabolitePool::RuBP.index()] = 0.0;
        let fluxes = model.fluxes(&y);
        assert_eq!(fluxes.carboxylation, 0.0);
        assert_eq!(fluxes.oxygenation, 0.0);
    }

    #[test]
    fn natural_leaf_reaches_a_positive_steady_state() {
        let evaluator = OdeUptakeEvaluator::fast();
        let (steady, uptake) = evaluator
            .steady_state(&EnzymePartition::natural(), &Scenario::present_low_export())
            .expect("the natural leaf must settle");
        assert!(uptake > 0.0, "uptake {uptake} should be positive");
        assert!(steady.state.iter().all(|&c| c >= 0.0));
        assert!(steady.state.iter().all(|&c| c <= 100.0));
    }

    #[test]
    fn ode_uptake_increases_with_atmospheric_co2() {
        let evaluator = OdeUptakeEvaluator::fast();
        let natural = EnzymePartition::natural();
        let past = evaluator
            .co2_uptake(
                &natural,
                &Scenario::new(CarbonDioxideEra::Past, TriosePhosphateExport::Low),
            )
            .unwrap();
        let future = evaluator
            .co2_uptake(
                &natural,
                &Scenario::new(CarbonDioxideEra::Future, TriosePhosphateExport::Low),
            )
            .unwrap();
        assert!(
            future > past,
            "future uptake {future} should exceed past uptake {past}"
        );
    }

    #[test]
    fn warm_starting_from_the_own_steady_state_settles_immediately() {
        let evaluator = OdeUptakeEvaluator::fast();
        let natural = EnzymePartition::natural();
        let scenario = Scenario::present_low_export();
        let (cold, cold_uptake) = evaluator
            .steady_state(&natural, &scenario)
            .expect("cold start settles");
        let (warm, warm_uptake) = evaluator
            .steady_state_from(&natural, &scenario, cold.state.clone())
            .expect("warm start settles");
        // Re-starting from the root is already converged: no step at all,
        // while the cold start pays for the whole approach.
        assert_eq!(warm.stats.steps_attempted(), 0);
        assert!(cold.stats.steps_attempted() > 0);
        assert_eq!(warm_uptake, cold_uptake);
    }

    #[test]
    fn transient_is_bounded() {
        let evaluator = OdeUptakeEvaluator::fast();
        let state = evaluator
            .transient(
                &EnzymePartition::natural(),
                &Scenario::present_low_export(),
                10.0,
            )
            .unwrap();
        assert!(state.iter().all(|&c| (0.0..=100.0).contains(&c)));
    }

    #[test]
    fn starving_the_calvin_cycle_reduces_ode_uptake() {
        let evaluator = OdeUptakeEvaluator::fast();
        let scenario = Scenario::present_low_export();
        let natural = EnzymePartition::natural();
        let crippled = natural
            .with_scaled(EnzymeKind::Sbpase, 0.05)
            .with_scaled(EnzymeKind::Prk, 0.05);
        let healthy = evaluator.co2_uptake(&natural, &scenario).unwrap();
        let impaired = evaluator.co2_uptake(&crippled, &scenario).unwrap();
        assert!(impaired < healthy);
    }
}
