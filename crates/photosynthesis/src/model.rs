use std::sync::OnceLock;

use pathway_linalg::Vector;
use pathway_ode::lanes::{self, LaneParts};
use pathway_ode::{
    BackwardEuler, Jacobian, JacobianPattern, OdeError, OdeSystem, PseudoTransient, SteadyState,
};

use crate::calvin_lu;
use crate::enzymes::{EnzymeKind, ENZYME_COUNT};
use crate::partition::EnzymePartition;
use crate::rate_laws;
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

/// The range [`OdeSystem::project`] clamps every pool to (mmol/l).
pub(crate) const STATE_BOUNDS: (f64, f64) = (0.0, 100.0);

/// How a reaction's rate depends on the state, given its rate constant
/// `k`; every form is linear in `k`.
#[derive(Clone, Copy)]
enum Kinetics {
    /// `k`, whatever the state.
    Constant,
    /// `k · [s]`.
    FirstOrder(MetabolitePool),
    /// [`rate_laws::michaelis_menten`] in `s` with the given `K_m`.
    MichaelisMenten(f64, MetabolitePool),
    /// [`rate_laws::michaelis_menten_two_substrates`], both `K_m` 0.3 mM.
    TwoSubstrates(MetabolitePool, MetabolitePool),
    /// [`rate_laws::competitive_inhibition`] of `s` by F2,6BP.
    InhibitedByF26bp { km: f64, s: MetabolitePool, ki: f64 },
}

/// `K_m` (mM) of both substrates of every two-substrate reaction.
const TWO_SUBSTRATE_KM: f64 = 0.3;

/// Rubisco's rate law, for carboxylation and oxygenation alike.
const RUBISCO: Kinetics = Kinetics::MichaelisMenten(0.3, MetabolitePool::RuBP);

impl Kinetics {
    /// The pools the rate reads, in the order of [`Kinetics::gradient`].
    fn substrates(self) -> impl Iterator<Item = MetabolitePool> {
        use Kinetics as K;
        let (a, b) = match self {
            K::Constant => (None, None),
            K::FirstOrder(s) | K::MichaelisMenten(_, s) => (Some(s), None),
            K::TwoSubstrates(a, b) => (Some(a), Some(b)),
            K::InhibitedByF26bp { s, .. } => (Some(s), Some(MetabolitePool::F26bp)),
        };
        a.into_iter().chain(b)
    }

    /// The rate at rate constant `k`, reading each pool's concentration
    /// through `y`.
    #[inline(always)]
    fn rate(self, k: f64, y: impl Fn(MetabolitePool) -> f64) -> f64 {
        use Kinetics as K;
        match self {
            K::Constant => k,
            K::FirstOrder(s) => k * y(s).max(0.0),
            K::MichaelisMenten(km, s) => rate_laws::michaelis_menten(k, km, y(s)),
            K::TwoSubstrates(a, b) => rate_laws::michaelis_menten_two_substrates(
                k,
                TWO_SUBSTRATE_KM,
                y(a),
                TWO_SUBSTRATE_KM,
                y(b),
            ),
            K::InhibitedByF26bp { km, s, ki } => {
                rate_laws::competitive_inhibition(k, km, y(s), y(MetabolitePool::F26bp), ki)
            }
        }
    }

    /// The rate's partial derivatives by its [`Kinetics::substrates`], in
    /// order; entries past the substrate count are 0.
    #[inline(always)]
    fn gradient(self, k: f64, y: impl Fn(MetabolitePool) -> f64) -> [f64; 2] {
        use Kinetics as K;
        match self {
            K::Constant => [0.0; 2],
            K::FirstOrder(s) => [if y(s) < 0.0 { 0.0 } else { k }, 0.0],
            K::MichaelisMenten(km, s) => [rate_laws::michaelis_menten_derivative(k, km, y(s)), 0.0],
            K::TwoSubstrates(a, b) => {
                let (da, db) = rate_laws::michaelis_menten_two_substrates_gradient(
                    k,
                    TWO_SUBSTRATE_KM,
                    y(a),
                    TWO_SUBSTRATE_KM,
                    y(b),
                );
                [da, db]
            }
            K::InhibitedByF26bp { km, s, ki } => {
                let (ds, di) = rate_laws::competitive_inhibition_gradient(
                    k,
                    km,
                    y(s),
                    y(MetabolitePool::F26bp),
                    ki,
                );
                [ds, di]
            }
        }
    }
}

/// One reaction of the model: its rate law and what it consumes and makes.
#[derive(Clone, Copy)]
struct Reaction {
    kinetics: Kinetics,
    /// Whether the rate scales with free phosphate as `Pi / (Pi + 1)`.
    phosphorylating: bool,
    /// `(pool, coefficient)`: the reaction adds `coefficient · v` to
    /// `d[pool]/dt`.
    stoichiometry: &'static [(MetabolitePool, f64)],
}

/// [`Reaction::phosphorylating`]: the rate scales with free phosphate.
const PI: bool = true;
/// [`Reaction::phosphorylating`]: the rate does not depend on phosphate.
const NO_PI: bool = false;

impl Reaction {
    /// The rate constant `k` at free-phosphate factor `pi_factor`.
    #[inline(always)]
    fn scaled(self, k: f64, pi_factor: f64) -> f64 {
        if self.phosphorylating {
            k * pi_factor
        } else {
            k
        }
    }
}

/// What [`CalvinCycleOde::visit_reactions`] hands every reaction to. Its
/// method is inlined at each of the 29 calls, where the reaction is a
/// constant, so every implementation compiles to straight-line code.
trait ReactionVisitor {
    /// Visits reaction `index` (in visiting order) with its rate constant
    /// `k`, before any phosphate scaling.
    fn visit(&mut self, index: usize, k: f64, reaction: Reaction);
}

/// The number of reactions [`CalvinCycleOde::visit_reactions`] visits.
const REACTION_COUNT: usize = 29;

/// The structural entries `(i, j)` of the Jacobian's sparse part: each
/// pool `i` a reaction changes against each pool `j` its rate reads, for
/// every substrate `j` in order and, within it, in stoichiometry order.
impl ReactionVisitor for Vec<(usize, usize)> {
    fn visit(&mut self, _index: usize, _k: f64, reaction: Reaction) {
        for j in reaction.kinetics.substrates() {
            self.extend(
                reaction
                    .stoichiometry
                    .iter()
                    .map(|&(i, _)| (i.index(), j.index())),
            );
        }
    }
}

/// The rate constants of `L` designs, lane `j` holding design `j`'s: every
/// reaction's `k` before phosphate scaling, in visiting order, and the
/// dilution and the phosphate total. The lane forms of the right-hand side
/// and the Jacobian read them here, once per design, in place of a model's
/// fields.
#[derive(Debug, Clone)]
pub(crate) struct RateConstants<const L: usize> {
    k: [[f64; L]; REACTION_COUNT],
    dilution: [f64; L],
    total_phosphate: [f64; L],
}

/// Writes every rate constant into one lane of [`RateConstants`].
struct Collect<'a, const L: usize> {
    k: &'a mut [[f64; L]; REACTION_COUNT],
    lane: usize,
}

impl<const L: usize> ReactionVisitor for Collect<'_, L> {
    fn visit(&mut self, index: usize, k: f64, _reaction: Reaction) {
        self.k[index][self.lane] = k;
    }
}

impl<const L: usize> RateConstants<L> {
    /// Every constant zero.
    pub(crate) fn zeros() -> Self {
        RateConstants {
            k: [[0.0; L]; REACTION_COUNT],
            dilution: [0.0; L],
            total_phosphate: [0.0; L],
        }
    }

    /// Reads `model`'s constants into lane `lane`.
    pub(crate) fn set(&mut self, lane: usize, model: &CalvinCycleOde) {
        model.visit_reactions(&mut Collect {
            k: &mut self.k,
            lane,
        });
        self.dilution[lane] = model.dilution;
        self.total_phosphate[lane] = model.total_phosphate;
    }
}

/// The total phosphate minus the phosphate bound in the tracked pools of
/// each lane, before the floor [`PHOSPHATE_FLOOR`].
#[inline(always)]
fn unfloored_phosphate<const L: usize>(
    total_phosphate: [f64; L],
    y: &[[f64; L]; POOL_COUNT],
) -> [f64; L] {
    let mut bound = [lanes::sum_identity(); L];
    for (&groups, y) in PHOSPHATE_GROUPS.iter().zip(y) {
        for (bound, c) in bound.iter_mut().zip(y) {
            *bound += groups * c.max(0.0);
        }
    }
    let mut unfloored = total_phosphate;
    for (unfloored, bound) in unfloored.iter_mut().zip(bound) {
        *unfloored -= bound;
    }
    unfloored
}

/// Accumulates every reaction's contribution to the right-hand side of
/// each lane.
struct RateSum<'a, const L: usize> {
    k: &'a [[f64; L]; REACTION_COUNT],
    y: &'a [[f64; L]; POOL_COUNT],
    pi_factor: [f64; L],
    dydt: &'a mut [[f64; L]; POOL_COUNT],
}

impl<const L: usize> ReactionVisitor for RateSum<'_, L> {
    #[inline(always)]
    fn visit(&mut self, index: usize, _k: f64, reaction: Reaction) {
        let (k, y) = (self.k[index], self.y);
        let mut v = [0.0; L];
        for j in 0..L {
            let k = reaction.scaled(k[j], self.pi_factor[j]);
            v[j] = reaction.kinetics.rate(k, |pool| y[pool.index()][j]);
        }
        for &(pool, n) in reaction.stoichiometry {
            for (d, v) in self.dydt[pool.index()].iter_mut().zip(v) {
                *d += n * v;
            }
        }
    }
}

/// Accumulates every reaction's partial derivatives into `S` (at the
/// slots of [`calvin_lu::PARTIAL_SLOTS`], in visiting order) and `u`, in
/// each lane.
struct PartialSum<'a, const L: usize> {
    k: &'a [[f64; L]; REACTION_COUNT],
    y: &'a [[f64; L]; POOL_COUNT],
    pi_factor: [f64; L],
    /// `d(Pi / (Pi + 1)) / dPi`.
    pi_factor_slope: [f64; L],
    /// The next of [`calvin_lu::PARTIAL_SLOTS`]: a constant once the
    /// visits are inlined, so every slot is.
    next: usize,
    s: &'a mut [[f64; L]],
    u: &'a mut [[f64; L]],
}

impl<const L: usize> ReactionVisitor for PartialSum<'_, L> {
    #[inline(always)]
    fn visit(&mut self, index: usize, _k: f64, reaction: Reaction) {
        let (k, y) = (self.k[index], self.y);
        let mut gradient = [[0.0; L]; 2];
        for j in 0..L {
            let k = reaction.scaled(k[j], self.pi_factor[j]);
            let [a, b] = reaction.kinetics.gradient(k, |pool| y[pool.index()][j]);
            (gradient[0][j], gradient[1][j]) = (a, b);
        }
        for (_, partial) in reaction.kinetics.substrates().zip(gradient) {
            for &(_, n) in reaction.stoichiometry {
                let slot = calvin_lu::PARTIAL_SLOTS[self.next];
                self.next += 1;
                for (s, partial) in self.s[slot].iter_mut().zip(partial) {
                    *s += n * partial;
                }
            }
        }
        if reaction.phosphorylating {
            // The rate is `k · law(y) · Pi / (Pi + 1)`.
            let mut dv_dpi = [0.0; L];
            for j in 0..L {
                let k = k[j] * self.pi_factor_slope[j];
                dv_dpi[j] = reaction.kinetics.rate(k, |pool| y[pool.index()][j]);
            }
            for &(pool, n) in reaction.stoichiometry {
                for (u, dv_dpi) in self.u[pool.index()].iter_mut().zip(dv_dpi) {
                    *u += n * dv_dpi;
                }
            }
        }
    }
}

/// A state vector as one lane.
fn one_lane(y: &Vector) -> &[[f64; 1]; POOL_COUNT] {
    y.as_slice()
        .as_chunks()
        .0
        .try_into()
        .expect("one entry per pool")
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
/// `g = ∂Pi/∂y`) exactly, from every rate law's closed-form partials in one
/// pass over the reactions and without a right-hand-side call, and
/// [`PseudoTransient`] solves each Newton step by Sherman–Morrison over a
/// static-pivot sparse LU in minimum-fill order, compiled to straight-line
/// code in `src/calvin_lu.rs` ([`CalvinCycleOde::emit_compiled_lu`]).
#[derive(Debug, Clone)]
pub struct CalvinCycleOde {
    /// Per-enzyme Vmax in volumetric units (capacity / volume factor),
    /// precomputed once so the right-hand side never divides.
    vmax: [f64; ENZYME_COUNT],
    /// Rubisco's Vmax at the scenario's CO₂ saturation.
    carboxylation: f64,
    /// Oxygenation/carboxylation ratio for the scenario.
    phi: f64,
    export_rate: f64,
    /// Conversion between leaf-area capacities (µmol m⁻² s⁻¹) and volumetric
    /// rates (mmol l⁻¹ s⁻¹).
    volume_factor: f64,
    /// Total phosphate pool (mmol/l).
    total_phosphate: f64,
    /// First-order dilution applied to every pool (1/s); keeps the system
    /// damped and guarantees a steady state exists.
    dilution: f64,
    /// The constants above as [`CalvinCycleOde::visit_reactions`] hands
    /// them out, for the right-hand side and the Jacobian: the `L = 1`
    /// instance of their lane forms.
    constants: RateConstants<1>,
}

/// The command that rewrites `src/calvin_lu.rs` from the reactions.
const REGENERATE_COMPILED_LU: &str = "cargo run -p pathway-photosynthesis --example emit_calvin_lu";

/// The pattern of [`CalvinCycleOde`]'s Jacobian's sparse part `S`, and
/// where the partial derivatives of its reactions land among the values of
/// `S`: [`calvin_lu::PARTIAL_SLOTS`] and [`calvin_lu::DIAGONAL_SLOTS`],
/// generated with the compiled LU.
struct JacobianSlots;

impl JacobianSlots {
    /// The `(i, j)` partial of every reaction, in visiting order.
    fn entries() -> Vec<(usize, usize)> {
        // The structure does not depend on the rate constants.
        let model =
            CalvinCycleOde::new(&EnzymePartition::natural(), &Scenario::present_low_export());
        let mut entries = Vec::new();
        model.visit_reactions(&mut entries);
        entries
    }

    /// The slot of every diagonal entry in pool order, then of every
    /// reaction's partials in visiting order (for each substrate `j` and,
    /// within it, each pool `i` of its stoichiometry, the slot of
    /// `(i, j)`).
    fn slots(pattern: &JacobianPattern, entries: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
        let slot = |(i, j): (usize, usize)| pattern.slot(i, j).expect("in the pattern");
        let diagonal = (0..POOL_COUNT).map(|i| slot((i, i))).collect();
        (diagonal, entries.iter().copied().map(slot).collect())
    }

    /// The pattern with its compiled LU ([`crate::calvin_lu`]) attached,
    /// checked against the generated slots.
    fn pattern() -> &'static JacobianPattern {
        static PATTERN: OnceLock<JacobianPattern> = OnceLock::new();
        PATTERN.get_or_init(|| {
            let entries = Self::entries();
            let pattern = JacobianPattern::new(POOL_COUNT, entries.iter().copied())
                .with_compiled_lu(calvin_lu::COMPILED_LU);
            let (diagonal, partials) = Self::slots(&pattern, &entries);
            assert!(
                diagonal == calvin_lu::DIAGONAL_SLOTS && partials == calvin_lu::PARTIAL_SLOTS,
                "src/calvin_lu.rs is stale: regenerate it with `{REGENERATE_COMPILED_LU}`"
            );
            pattern
        })
    }
}

impl CalvinCycleOde {
    /// Builds the dynamic model for a partition and a scenario.
    pub fn new(partition: &EnzymePartition, scenario: &Scenario) -> Self {
        let volume_factor = 30.0;
        let mut vmax = [0.0; ENZYME_COUNT];
        for (v, &capacity) in vmax.iter_mut().zip(partition.capacities()) {
            *v = capacity / volume_factor;
        }
        let ci = scenario.ci();
        let kc_eff = 160.0 * (1.0 + 210.0 / 250.0);
        let mut model = CalvinCycleOde {
            carboxylation: vmax[EnzymeKind::Rubisco.index()] * (ci / (ci + kc_eff)),
            vmax,
            phi: UptakeModel::new().oxygenation_ratio(ci),
            export_rate: scenario.export.rate(),
            volume_factor,
            total_phosphate: 30.0,
            dilution: 0.005,
            constants: RateConstants::zeros(),
        };
        let mut constants = RateConstants::zeros();
        constants.set(0, &model);
        model.constants = constants;
        model
    }

    /// Hands every reaction of the Calvin cycle, photorespiration and
    /// cytosolic sucrose synthesis to `visitor`, in a fixed order, with its
    /// rate constant before any phosphate scaling. Together with a
    /// first-order dilution of every pool they are the whole right-hand
    /// side. One row per reaction: rate constant, phosphate scaling, rate
    /// law, and `(pool, coefficient)` for what it consumes and makes.
    #[rustfmt::skip]
    #[inline(always)]
    fn visit_reactions(&self, visitor: &mut impl ReactionVisitor) {
        use EnzymeKind as E;
        use Kinetics::{
            Constant, FirstOrder, InhibitedByF26bp, MichaelisMenten as Mm, TwoSubstrates,
        };
        use MetabolitePool as P;
        let vmax = |kind: EnzymeKind| self.vmax[kind.index()];
        let mut index = 0;
        let mut visit = |k, phosphorylating, kinetics, stoichiometry| {
            visitor.visit(index, k, Reaction { kinetics, phosphorylating, stoichiometry });
            index += 1;
        };

        // Calvin cycle. RuBP is consumed by carboxylation (2 PGA) and by
        // oxygenation (1 PGA, 1 phosphoglycolate).
        visit(self.carboxylation, PI, RUBISCO, &[(P::RuBP, -1.0), (P::Pga, 2.0)]);
        visit(self.carboxylation * self.phi, PI, RUBISCO,
              &[(P::RuBP, -1.0), (P::Pga, 1.0), (P::Pgca, 1.0)]);
        visit(vmax(E::PgaKinase), PI, Mm(0.5, P::Pga), &[(P::Pga, -1.0), (P::Dpga, 1.0)]);
        visit(vmax(E::Gapdh), NO_PI, Mm(0.3, P::Dpga), &[(P::Dpga, -1.0), (P::TrioseP, 1.0)]);
        visit(vmax(E::FbpAldolase), NO_PI, Mm(0.4, P::TrioseP),
              &[(P::TrioseP, -2.0), (P::Fbp, 1.0)]);
        visit(vmax(E::Fbpase), NO_PI, InhibitedByF26bp { km: 0.15, s: P::Fbp, ki: 0.05 },
              &[(P::Fbp, -1.0), (P::F6p, 1.0)]);
        visit(vmax(E::Transketolase), NO_PI, TwoSubstrates(P::F6p, P::TrioseP),
              &[(P::TrioseP, -1.0), (P::F6p, -1.0), (P::E4p, 1.0), (P::PentoseP, 1.0)]);
        visit(vmax(E::SbpAldolase), NO_PI, TwoSubstrates(P::E4p, P::TrioseP),
              &[(P::TrioseP, -1.0), (P::E4p, -1.0), (P::Sbp, 1.0)]);
        visit(vmax(E::Sbpase), NO_PI, Mm(0.1, P::Sbp), &[(P::Sbp, -1.0), (P::S7p, 1.0)]);
        // The second transketolase step makes two pentose phosphates.
        visit(vmax(E::Transketolase), NO_PI, TwoSubstrates(P::S7p, P::TrioseP),
              &[(P::TrioseP, -1.0), (P::S7p, -1.0), (P::PentoseP, 2.0)]);
        visit(vmax(E::Prk), PI, Mm(0.2, P::PentoseP), &[(P::PentoseP, -1.0), (P::RuBP, 1.0)]);
        // Starch synthesis, a sink.
        visit(vmax(E::Adpgpp) / 2.0, NO_PI, Mm(1.0, P::F6p), &[(P::F6p, -1.0)]);

        // Photorespiration: glycine decarboxylation returns half the carbon.
        visit(vmax(E::Pgcapase), NO_PI, Mm(0.1, P::Pgca), &[(P::Pgca, -1.0), (P::Gca, 1.0)]);
        visit(vmax(E::GoaOxidase), NO_PI, Mm(0.1, P::Gca), &[(P::Gca, -1.0), (P::Goa, 1.0)]);
        visit(vmax(E::Ggat), NO_PI, Mm(0.2, P::Goa), &[(P::Goa, -1.0), (P::Glycine, 1.0)]);
        visit(vmax(E::Gdc), NO_PI, Mm(0.5, P::Glycine), &[(P::Glycine, -1.0), (P::Serine, 0.5)]);
        visit(vmax(E::Gsat), NO_PI, Mm(0.2, P::Serine),
              &[(P::Serine, -1.0), (P::Hydroxypyruvate, 1.0)]);
        visit(vmax(E::HprReductase), NO_PI, Mm(0.1, P::Hydroxypyruvate),
              &[(P::Hydroxypyruvate, -1.0), (P::Glycerate, 1.0)]);
        visit(vmax(E::GceaKinase), PI, Mm(0.2, P::Glycerate),
              &[(P::Glycerate, -1.0), (P::Pga, 1.0)]);

        // Triose-phosphate export to the cytosol, saturating at the
        // scenario's transporter capacity. The high K_m keeps the exporter
        // from draining the cycle while it is still spooling up.
        visit(self.export_rate, NO_PI, Mm(2.0, P::TrioseP),
              &[(P::TrioseP, -1.0), (P::CytosolicTrioseP, 1.0)]);

        // Cytosolic sucrose synthesis.
        visit(vmax(E::CytosolicFbpAldolase), NO_PI, Mm(0.3, P::CytosolicTrioseP),
              &[(P::CytosolicTrioseP, -2.0), (P::CytosolicFbp, 1.0)]);
        visit(vmax(E::CytosolicFbpase), NO_PI,
              InhibitedByF26bp { km: 0.15, s: P::CytosolicFbp, ki: 0.02 },
              &[(P::CytosolicFbp, -1.0), (P::CytosolicHexoseP, 1.0)]);
        visit(vmax(E::Udpgp), NO_PI, Mm(0.2, P::CytosolicHexoseP),
              &[(P::CytosolicHexoseP, -1.0), (P::Udpg, 1.0)]);
        visit(vmax(E::Sps), NO_PI, TwoSubstrates(P::Udpg, P::CytosolicHexoseP),
              &[(P::CytosolicHexoseP, -1.0), (P::Udpg, -1.0), (P::SucroseP, 1.0)]);
        visit(vmax(E::Spp) / 1.6, NO_PI, Mm(0.1, P::SucroseP),
              &[(P::SucroseP, -1.0), (P::Sucrose, 1.0)]);
        // Sucrose leaves the system (phloem loading), first order.
        visit(0.2, NO_PI, FirstOrder(P::Sucrose), &[(P::Sucrose, -1.0)]);

        // Basal pentose-phosphate supply from stored reserves (oxidative
        // pentose-phosphate pathway); keeps the autocatalytic cycle from
        // collapsing into the trivial washout steady state.
        visit(0.02, NO_PI, Constant, &[(P::PentoseP, 1.0)]);

        // The F2,6BP regulatory pool: synthesized at a constant rate,
        // degraded by F26BPase.
        visit(0.01, NO_PI, Constant, &[(P::F26bp, 1.0)]);
        visit(vmax(E::F26Bpase), NO_PI, Mm(0.02, P::F26bp), &[(P::F26bp, -1.0)]);
        debug_assert_eq!(index, REACTION_COUNT);
    }

    /// The Rubisco carboxylation and oxygenation fluxes (mmol l⁻¹ s⁻¹) at
    /// state `y`.
    fn rubisco_fluxes(&self, y: &Vector) -> (f64, f64) {
        let [unfloored] = unfloored_phosphate(self.constants.total_phosphate, one_lane(y));
        let pi = unfloored.max(PHOSPHATE_FLOOR);
        let carboxylation = RUBISCO.rate(self.carboxylation * (pi / (pi + 1.0)), |pool| {
            y[pool.index()]
        });
        (carboxylation, carboxylation * self.phi)
    }

    /// The right-hand side of `L` designs at once, one per lane, with this
    /// model's reactions and each lane's `constants`: lane `j` of `dydt` is
    /// [`OdeSystem::rhs`] of design `j` at lane `j` of `y`, bit for bit.
    #[inline(always)]
    pub(crate) fn rhs_lanes<const L: usize>(
        &self,
        constants: &RateConstants<L>,
        y: &[[f64; L]; POOL_COUNT],
        dydt: &mut [[f64; L]; POOL_COUNT],
    ) {
        let mut pi_factor = unfloored_phosphate(constants.total_phosphate, y);
        for pi_factor in &mut pi_factor {
            let pi = pi_factor.max(PHOSPHATE_FLOOR);
            *pi_factor = pi / (pi + 1.0);
        }
        for (d, y) in dydt.iter_mut().zip(y) {
            for ((d, c), dilution) in d.iter_mut().zip(y).zip(constants.dilution) {
                *d = -dilution * c;
            }
        }
        self.visit_reactions(&mut RateSum {
            k: &constants.k,
            y,
            pi_factor,
            dydt,
        });
    }

    /// The exact Jacobian `S + u·gᵀ` of `L` designs at once, one per lane,
    /// with this model's reactions and each lane's `constants`: lane `j` of
    /// `s`, `u` and `g` is what [`OdeSystem::jacobian`] fills for design `j`
    /// at lane `j` of `y`, bit for bit.
    #[inline(always)]
    pub(crate) fn jacobian_lanes<const L: usize>(
        &self,
        constants: &RateConstants<L>,
        y: &[[f64; L]; POOL_COUNT],
        (s, u, g): LaneParts<'_, L>,
    ) {
        let unfloored = unfloored_phosphate(constants.total_phosphate, y);
        let (mut pi_factor, mut pi_factor_slope) = ([0.0; L], [0.0; L]);
        for j in 0..L {
            let pi = unfloored[j].max(PHOSPHATE_FLOOR);
            pi_factor[j] = pi / (pi + 1.0);
            pi_factor_slope[j] = 1.0 / ((pi + 1.0) * (pi + 1.0));
        }
        for ((g, &groups), y) in g.iter_mut().zip(&PHOSPHATE_GROUPS).zip(y) {
            for j in 0..L {
                let floored = unfloored[j] <= PHOSPHATE_FLOOR;
                g[j] = if floored | (y[j] < 0.0) { 0.0 } else { -groups };
            }
        }
        s.fill([0.0; L]);
        for slot in calvin_lu::DIAGONAL_SLOTS {
            s[slot] = lanes::neg(constants.dilution);
        }
        u.fill([0.0; L]);
        self.visit_reactions(&mut PartialSum {
            k: &constants.k,
            y,
            pi_factor,
            pi_factor_slope,
            next: 0,
            s,
            u,
        });
    }

    /// Net CO₂ uptake (µmol m⁻² s⁻¹) implied by the fluxes at state `y`:
    /// carboxylation minus the CO₂ released by glycine decarboxylation.
    pub fn net_uptake(&self, y: &Vector) -> f64 {
        let (carboxylation, oxygenation) = self.rubisco_fluxes(y);
        (carboxylation - 0.5 * oxygenation) * self.volume_factor
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

    /// The structural non-zeros of [`CalvinCycleOde`]'s Jacobian with free
    /// phosphate held fixed, the sparse part `S` of `J = S + u·gᵀ`: the
    /// diagonal (dilution), and for every reaction each pool it changes
    /// against each pool its rate reads. A design's Jacobian can only lack
    /// an entry here, never add one.
    pub fn jacobian_pattern() -> &'static JacobianPattern {
        JacobianSlots::pattern()
    }

    /// The source of `src/calvin_lu.rs`, the static-pivot LU of
    /// [`CalvinCycleOde::jacobian_pattern`] compiled to straight-line code
    /// ([`JacobianPattern::emit_compiled_lu`]), emitted from the reactions
    /// as they are now. The crate's `emit_calvin_lu` example writes it.
    pub fn emit_compiled_lu() -> String {
        use std::fmt::Write;

        let entries = JacobianSlots::entries();
        let pattern = JacobianPattern::new(POOL_COUNT, entries.iter().copied());
        let mut source = pattern.emit_compiled_lu(REGENERATE_COMPILED_LU);
        let (diagonal, partials) = JacobianSlots::slots(&pattern, &entries);
        for (doc, name, slots) in [
            (
                "every diagonal entry, in pool order",
                "DIAGONAL_SLOTS",
                diagonal,
            ),
            (
                "every partial of the reactions, in visiting order",
                "PARTIAL_SLOTS",
                partials,
            ),
        ] {
            writeln!(source, "\n/// The slot among the values of `S` of {doc}.")
                .and_then(|()| {
                    writeln!(
                        source,
                        "pub(crate) const {name}: [usize; {}] = [",
                        slots.len()
                    )
                })
                .expect("a String takes every write");
            // The rows `rustfmt` packs them into.
            let mut row = String::new();
            for slot in slots {
                let item = format!("{slot},");
                if 4 + row.len() + 1 + item.len() > 100 {
                    writeln!(source, "    {row}").expect("a String takes every write");
                    row.clear();
                }
                if !row.is_empty() {
                    row.push(' ');
                }
                row.push_str(&item);
            }
            writeln!(source, "    {row}\n];").expect("a String takes every write");
        }
        source
    }
}

impl OdeSystem for CalvinCycleOde {
    fn dim(&self) -> usize {
        POOL_COUNT
    }

    fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
        let dydt = dydt.as_mut_slice().as_chunks_mut().0;
        let dydt = dydt.try_into().expect("one entry per pool");
        self.rhs_lanes(&self.constants, one_lane(y), dydt);
    }

    /// `J = S + u·gᵀ` exactly, with free phosphate `Pi` as the coupling, in
    /// one pass over the reactions and without a right-hand-side call: `S`
    /// from each rate law's partials at fixed `Pi` (and the dilution on the
    /// diagonal), `u = ∂f/∂Pi` from the `Pi / (Pi + 1)` factor of the
    /// phosphorylating reactions, and `g = ∂Pi/∂y`: `−groups_j` for a
    /// phosphate-carrying pool at `y_j ≥ 0`, and 0 where `y_j < 0` or the
    /// floor binds. Every derivative of a clamp `max(y_j, 0)` is its right
    /// derivative.
    fn jacobian(&self, _t: f64, y: &Vector, _f: &Vector, jacobian: &mut Jacobian) -> usize {
        let pattern = JacobianSlots::pattern();
        let (s, u, g) = jacobian.sparse_plus_rank_one(pattern).parts_mut();
        let parts = (
            s.as_chunks_mut().0,
            u.as_mut_slice().as_chunks_mut().0,
            g.as_mut_slice().as_chunks_mut().0,
        );
        self.jacobian_lanes(&self.constants, one_lane(y), parts);
        0
    }

    fn project(&self, _t: f64, y: &mut Vector) {
        y.clamp_mut(STATE_BOUNDS.0, STATE_BOUNDS.1);
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
    /// cold start of the natural leaf takes 67 steps of one right-hand-side
    /// call each, the trial (the exact Jacobian makes none); uniformly
    /// upscaled leaves (1.3x–4x) settle in 14–24 steps, starved ones
    /// (0.02x–0.1x) in 150–165. Its uptakes agree with
    /// [`OdeUptakeEvaluator::new`] to about `1e-8` relative.
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

    /// [`OdeUptakeEvaluator::steady_state`] of every partition, in order,
    /// bit for bit: the same steady state, residual and work counters, or
    /// the same error. The solves run several designs per Newton step, one
    /// per SIMD lane (four on a CPU with AVX2, two otherwise), and a lane
    /// whose design finishes takes the next one; see
    /// [`OdeUptakeEvaluator::steady_states_in_lanes`].
    pub fn steady_states(
        &self,
        partitions: &[EnzymePartition],
        scenario: &Scenario,
    ) -> Vec<Result<(SteadyState, f64), OdeError>> {
        self.steady_states_in_lanes(partitions, scenario, crate::batch::widest())
            .expect("the widest width runs on this CPU")
    }

    /// [`OdeUptakeEvaluator::steady_states`] at exactly `lanes` designs
    /// per Newton step: 1 (the scalar path, design by design), 2, or 4
    /// (compiled for AVX2). `None` if this CPU does not run that width.
    /// [`OdeUptakeEvaluator::steady_states`] takes the widest; this entry
    /// lets tests and benchmarks pin each instance.
    pub fn steady_states_in_lanes(
        &self,
        partitions: &[EnzymePartition],
        scenario: &Scenario,
        lanes: usize,
    ) -> Option<Vec<Result<(SteadyState, f64), OdeError>>> {
        if !crate::batch::runs(lanes) {
            return None;
        }
        let models: Vec<CalvinCycleOde> = partitions
            .iter()
            .map(|partition| CalvinCycleOde::new(partition, scenario))
            .collect();
        let outcomes = crate::batch::steady_states(&self.solver, &models, lanes);
        Some(
            models
                .iter()
                .zip(outcomes)
                .map(|(model, outcome)| {
                    outcome.map(|steady| {
                        let uptake = model.net_uptake(&steady.state);
                        (steady, uptake)
                    })
                })
                .collect(),
        )
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
        assert_eq!(model.rubisco_fluxes(&y), (0.0, 0.0));
        assert_eq!(model.net_uptake(&y), 0.0);
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
