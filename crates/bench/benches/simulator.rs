//! Substrate bench: raw slot throughput of the time-slot simulator, measured
//! with the trivial fixed-assignment scheduler (so the scheduler cost is
//! negligible and the engine itself is what is measured), on a reliable and on
//! a volatile platform.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dg_availability::rng::rng_from_seed;
use dg_availability::trace::RealizedAvailability;
use dg_availability::MarkovChain3;
use dg_platform::{ApplicationSpec, MasterSpec, Platform};
use dg_sim::{Assignment, FixedAssignmentScheduler, SimulationLimits, Simulator};
use std::time::Duration;

fn engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_throughput");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(20);

    // Reliable platform: 20 workers, 10 tasks, many iterations — the run is
    // dominated by communication/computation slots.
    let p = 20;
    let iterations = 200u64;
    let platform = Platform::reliable_homogeneous(p, 3);
    let app = ApplicationSpec::new(10, iterations);
    let master = MasterSpec::from_slots(5, 5, 1);
    let assignment = Assignment::new((0..10).map(|q| (q, 1)));
    // Slots per run is deterministic; measure throughput in slots.
    let availability = RealizedAvailability::markov(vec![MarkovChain3::always_up(); p], 1, false);
    let mut sched = FixedAssignmentScheduler::new(assignment.clone());
    let (outcome, _) =
        Simulator::from_parts(platform.clone(), app, master, availability).run(&mut sched);
    group.throughput(Throughput::Elements(outcome.simulated_slots));
    group.bench_function("reliable_20_workers", |b| {
        b.iter(|| {
            let availability =
                RealizedAvailability::markov(vec![MarkovChain3::always_up(); p], 1, false);
            let mut sched = FixedAssignmentScheduler::new(assignment.clone());
            Simulator::from_parts(
                platform.clone(),
                ApplicationSpec::new(10, iterations),
                MasterSpec::from_slots(5, 5, 1),
                availability,
            )
            .run(&mut sched)
        });
    });

    // Volatile platform: paper-model chains; the run includes aborts/restarts.
    let mut rng = rng_from_seed(5);
    let chains: Vec<MarkovChain3> =
        (0..p).map(|_| MarkovChain3::sample_paper_model(&mut rng)).collect();
    let volatile_platform =
        Platform::new((0..p).map(|_| dg_platform::WorkerSpec::new(3)).collect(), chains.clone());
    group.bench_function("volatile_20_workers", |b| {
        b.iter(|| {
            let availability = RealizedAvailability::markov(chains.clone(), 11, false);
            let mut sched = FixedAssignmentScheduler::new(assignment.clone());
            Simulator::from_parts(
                volatile_platform.clone(),
                ApplicationSpec::new(10, 20),
                MasterSpec::from_slots(5, 5, 1),
                availability,
            )
            .with_limits(SimulationLimits::with_max_slots(50_000).unwrap())
            .run(&mut sched)
        });
    });
    group.finish();
}

criterion_group!(benches, engine_throughput);
criterion_main!(benches);
