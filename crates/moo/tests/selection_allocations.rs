//! NSGA-II's selection bookkeeping allocates nothing once its buffers are
//! warm: the non-dominated sort, the crowding pass and the survivor choice
//! all run in one reused `SortScratch`, on the bi-objective sweep and on the
//! general path alike. And a warm generation allocates no genome: NSGA-II
//! and every archipelago island breed their children into the genomes that
//! selection dropped.
//!
//! A counting global allocator (this test binary only) counts the
//! allocations of the calling thread, and apart those of exactly one
//! 608-gene genome's size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pathway_moo::engine::{Driver, StoppingRule};
use pathway_moo::problems::{Dtlz2, Zdt1};
use pathway_moo::{
    fast_nondominated_sort_with, Archipelago, ArchipelagoSpec, Individual, MultiObjectiveProblem,
    Nsga2, Nsga2Spec, Optimizer, SortScratch,
};

/// The genes of the genome-sized problem: the paper's Geobacter model has
/// 608 reactions.
const GENES: usize = 608;

/// One genome's size in bytes.
const GENOME_BYTES: usize = GENES * std::mem::size_of::<f64>();

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static GENOMES: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation of `size` bytes on the calling thread.
fn count(size: usize) {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
    if size == GENOME_BYTES {
        GENOMES.with(|count| count.set(count.get() + 1));
    }
}

struct CountingAllocator;

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local counter has a const initializer and no destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// An evolved population of 40 doubled with copies of its first half (the
/// duplicates migration leaves), and a few infeasible members.
fn combined_population<P: MultiObjectiveProblem>(problem: &P) -> Vec<Individual> {
    let spec = Nsga2Spec {
        population: 40,
        ..Default::default()
    };
    let mut driver =
        Driver::new(Nsga2::new(spec, 5), problem).with_stopping(StoppingRule::MaxGenerations(15));
    driver.run();
    let mut population = Optimizer::population(driver.optimizer());
    population.extend_from_within(..20);
    for (k, member) in population.iter_mut().step_by(9).enumerate() {
        member.violation = 1.0 + (k % 2) as f64;
    }
    population
}

/// Allocations made by one sort, crowding pass and choice of 40 survivors.
fn selection_allocations(population: &mut [Individual], scratch: &mut SortScratch) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    fast_nondominated_sort_with(population, scratch);
    scratch.assign_crowding(population);
    let survivors = scratch.select_survivors(population, 40).len();
    assert_eq!(survivors, 40);
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn warm_selection_allocates_nothing() {
    for mut population in [
        combined_population(&Zdt1 { variables: 6 }),
        combined_population(&Dtlz2 { variables: 6 }),
    ] {
        let mut scratch = SortScratch::new();
        selection_allocations(&mut population, &mut scratch);
        assert_eq!(selection_allocations(&mut population, &mut scratch), 0);
    }
}

/// Genome-sized allocations made by one generation of `optimizer`.
fn genome_allocations<O: Optimizer, P: MultiObjectiveProblem>(
    optimizer: &mut O,
    problem: &P,
) -> usize {
    let before = GENOMES.with(Cell::get);
    optimizer.step(problem);
    GENOMES.with(Cell::get) - before
}

#[test]
fn a_warm_nsga2_generation_allocates_no_genome() {
    let problem = Zdt1 { variables: GENES };
    let spec = Nsga2Spec::default();
    let mut solver = Nsga2::new(spec, 7);
    solver.initialize(&problem);
    // The first generation finds the genome pool empty: one genome per
    // child.
    assert_eq!(genome_allocations(&mut solver, &problem), spec.population);
    for generation in 2..=6 {
        assert_eq!(
            genome_allocations(&mut solver, &problem),
            0,
            "generation {generation}"
        );
    }
}

#[test]
fn a_warm_archipelago_generation_allocates_no_genome() {
    let problem = Zdt1 { variables: GENES };
    let spec = ArchipelagoSpec {
        islands: 2,
        migration_interval: 4,
        ..Default::default()
    };
    let mut archipelago = Archipelago::new(spec, 7);
    archipelago.initialize(&problem);
    assert_eq!(
        genome_allocations(&mut archipelago, &problem),
        spec.islands * spec.island.population
    );
    // Migrants are copies, so a migration generation (the 5th and 9th: each
    // first step of an epoch after the first) allocates their genomes; the
    // generations off migration allocate none.
    for generation in 2..=10 {
        let genomes = genome_allocations(&mut archipelago, &problem);
        if generation % spec.migration_interval != 1 {
            assert_eq!(genomes, 0, "generation {generation}");
        }
    }
}
