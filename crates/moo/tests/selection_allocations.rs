//! NSGA-II's selection bookkeeping allocates nothing once its buffers are
//! warm: the non-dominated sort, the crowding pass and the survivor choice
//! all run in one reused `SortScratch`, on the bi-objective sweep and on the
//! general path alike.
//!
//! A counting global allocator (this test binary only) counts the
//! allocations of the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pathway_moo::engine::{Driver, StoppingRule};
use pathway_moo::problems::{Dtlz2, Zdt1};
use pathway_moo::{
    fast_nondominated_sort_with, Individual, MultiObjectiveProblem, Nsga2, Nsga2Spec, Optimizer,
    SortScratch,
};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local counter has a const initializer and no destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
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
