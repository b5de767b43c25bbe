//! Telemetry is observational only. The contract the profile subsystem
//! rides on: attaching a [`MetricsRegistry`] to the executor and the
//! driver changes *nothing* about the trajectory — fronts and checkpoints
//! are byte-identical with telemetry on or off, on the serial executor or
//! a worker pool. Timings live in the registry; they never enter
//! checkpointed state.

use pathway_core::sweep::render_front;
use pathway_core::{spec_driver, AnyProblem};
use pathway_moo::engine::{encode_checkpoint, MetricsRegistry, RunSpec};
use pathway_moo::exec::Executor;
use pathway_moo::EvalBackend;

const SPEC: &str = "pathway-spec v1\n\n\
                    [problem]\nname = schaffer\n\n\
                    [optimizer]\nkind = nsga2\npopulation = 24\n\n\
                    [run]\nseed = 99\nreference_point = 25, 25\n\n\
                    [stop]\nmax_generations = 12\n";

/// Runs the spec to completion on `backend`, with or without a registry
/// attached, and returns the exact bytes the CLI would persist: the
/// rendered front file and the encoded checkpoint.
fn run_case(backend: EvalBackend, telemetry: bool) -> (String, Vec<u8>) {
    let spec = RunSpec::from_text(SPEC).expect("spec parses");
    let problem = AnyProblem::from_spec(&spec.problem).expect("known problem");
    let executor = Executor::shared(backend);
    let registry = telemetry.then(MetricsRegistry::new);
    if let Some(registry) = &registry {
        executor.set_metrics(registry.clone());
    }
    let mut driver = spec_driver(&spec, &problem, Some(executor), None).expect("fresh driver");
    if let Some(registry) = &registry {
        driver = driver.with_metrics(registry.clone());
    }
    while driver.run_for(usize::MAX) > 0 {}
    if let Some(registry) = &registry {
        // The metered runs must actually have been metering, or the
        // comparison proves nothing.
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counter("phase.generation.calls"),
            Some(12),
            "telemetry was attached but recorded nothing"
        );
    }
    let front = render_front(&driver.front());
    let checkpoint = encode_checkpoint(&spec.to_text(), &driver.checkpoint());
    (front, checkpoint)
}

#[test]
fn telemetry_and_pooling_never_change_fronts_or_checkpoints() {
    let (front, checkpoint) = run_case(EvalBackend::Serial, false);
    for (backend, telemetry) in [
        (EvalBackend::Serial, true),
        (EvalBackend::Threads(2), false),
        (EvalBackend::Threads(2), true),
    ] {
        let (other_front, other_checkpoint) = run_case(backend, telemetry);
        assert_eq!(
            other_front, front,
            "front bytes diverged ({backend:?}, telemetry={telemetry})"
        );
        assert_eq!(
            other_checkpoint, checkpoint,
            "checkpoint bytes diverged ({backend:?}, telemetry={telemetry})"
        );
    }
}
