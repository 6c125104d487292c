//! Cross-crate property-based tests (proptest) on the core invariants.

use desktop_grid_scheduling::analysis::series::WorkerSeries;
use desktop_grid_scheduling::analysis::GroupComputation;
use desktop_grid_scheduling::availability::trace::AvailabilityModel;
use desktop_grid_scheduling::experiments::runner::{run_instance, InstanceSpec};
use desktop_grid_scheduling::heuristics::HeuristicSpec;
use desktop_grid_scheduling::prelude::*;
use desktop_grid_scheduling::sim::SimMode;
use proptest::prelude::*;

/// Strategy for a valid paper-style Markov chain (self-loops in [0.5, 0.999]).
fn markov_chain() -> impl Strategy<Value = MarkovChain3> {
    (0.5f64..0.999, 0.5f64..0.999, 0.5f64..0.999)
        .prop_map(|(u, r, d)| MarkovChain3::from_self_loop_probs(u, r, d).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn markov_chain_samples_only_valid_states(chain in markov_chain(), seed in 0u64..1000) {
        let mut model = RealizedAvailability::markov(vec![chain], seed);
        for t in 0..200u64 {
            let s = model.state(0, t);
            prop_assert!(matches!(s, ProcState::Up | ProcState::Reclaimed | ProcState::Down));
        }
    }

    #[test]
    fn group_quantities_are_well_formed(
        chains in proptest::collection::vec(markov_chain(), 1..6),
        w in 1u64..40,
    ) {
        let series: Vec<WorkerSeries> = chains.iter().map(WorkerSeries::new).collect();
        let refs: Vec<&WorkerSeries> = series.iter().collect();
        let g = GroupComputation::new(1e-7).compute(&refs);
        prop_assert!(g.p_plus >= 0.0 && g.p_plus <= 1.0);
        prop_assert!(g.e_c >= 0.0);
        let p = g.prob_success(w);
        prop_assert!((0.0..=1.0).contains(&p));
        let e = g.expected_completion_time(w);
        prop_assert!(e >= w as f64 - 1e-9);
        // The paper's literal formula is never smaller than the renewal form.
        prop_assert!(g.expected_completion_time_paper(w) >= e - 1e-9);
    }

    #[test]
    fn adding_a_worker_never_raises_group_success_probability(
        chains in proptest::collection::vec(markov_chain(), 2..6),
        w in 2u64..30,
    ) {
        let series: Vec<WorkerSeries> = chains.iter().map(WorkerSeries::new).collect();
        let comp = GroupComputation::new(1e-8);
        for k in 1..series.len() {
            let smaller: Vec<&WorkerSeries> = series[..k].iter().collect();
            let larger: Vec<&WorkerSeries> = series[..k + 1].iter().collect();
            let ps = comp.compute(&smaller).prob_success(w);
            let pl = comp.compute(&larger).prob_success(w);
            prop_assert!(pl <= ps + 1e-9, "P(success) grew from {ps} to {pl} when adding a worker");
        }
    }

    #[test]
    fn offline_solvers_agree_and_witnesses_are_valid(
        rows in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 6..10), 2..6),
        w in 1u64..4,
    ) {
        let horizon = rows.iter().map(|r| r.len()).min().unwrap();
        let up: Vec<Vec<bool>> = rows.iter().map(|r| r[..horizon].to_vec()).collect();
        let p = up.len();
        let m = 1 + (w as usize % p.max(1));
        let instance = OfflineInstance::new(up, w, m);

        for from in 0..horizon {
            let mut feasible = Vec::new();
            for variant in [OracleVariant::Mu1, OracleVariant::MuUnbounded] {
                let exact = earliest_finish_exact(&instance, from, variant);
                let greedy = earliest_finish_greedy(&instance, from, variant);
                for sol in exact.iter().chain(&greedy) {
                    prop_assert!(sol.is_valid(&instance, variant));
                    // A µ=1 witness is a µ=∞ witness too.
                    prop_assert!(sol.is_valid(&instance, OracleVariant::MuUnbounded));
                    prop_assert!(sol.slots[0] >= from);
                }
                // greedy success implies exact success
                prop_assert!(greedy.is_none() || exact.is_some());
                feasible.push(exact.is_some());
            }
            // µ=∞ is a relaxation of µ=1.
            prop_assert!(!feasible[0] || feasible[1]);
        }
    }
}

proptest! {
    // End-to-end simulations are comparatively expensive: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn simulator_outcomes_are_internally_consistent(
        seed in 0u64..500,
        wmin in 1u64..3,
        heuristic_idx in 0usize..17,
    ) {
        let scenario = Scenario::generate(
            ScenarioParams { num_workers: 12, tasks_per_iteration: 4, ncom: 6, wmin, iterations: 3 },
            seed,
        );
        let heuristic = HeuristicSpec::all()[heuristic_idx];
        let cap = 30_000;
        let (outcome, ..) = run_instance(
            &scenario,
            &InstanceSpec { scenario_index: 0, trial_index: 0, heuristic },
            seed,
            cap,
            1e-6,
            SimMode::EventDriven,
        );
        prop_assert!(outcome.simulated_slots <= cap);
        prop_assert_eq!(outcome.target_iterations, 3);
        prop_assert!(outcome.completed_iterations <= 3);
        match outcome.makespan {
            Some(ms) => {
                prop_assert_eq!(outcome.completed_iterations, 3);
                prop_assert!(ms <= cap);
                prop_assert_eq!(ms, outcome.simulated_slots);
            }
            None => prop_assert!(outcome.completed_iterations < 3),
        }
        // Slot accounting: every simulated slot is idle, stalled, transfer or compute.
        // (Transfer slots are per-worker, so they can exceed the wall-clock count;
        // the remaining counters cannot.)
        prop_assert!(outcome.stats.idle_slots + outcome.stats.stalled_slots
            + outcome.stats.computation_slots <= outcome.simulated_slots);
    }

    /// The headline guarantee of the event-driven engine: on random scenarios,
    /// across every availability backend (lazy Markov, materialized traces,
    /// lazy semi-Markov Weibull/log-normal) and every heuristic, slot-stepped
    /// and event-driven runs produce byte-identical `SimOutcome`s.
    #[test]
    fn slot_and_event_engines_produce_identical_outcomes(
        seed in 0u64..10_000,
        wmin in 1u64..4,
        ncom in 2usize..8,
        heuristic_idx in 0usize..17,
        backend in 0usize..3,
    ) {
        use desktop_grid_scheduling::sim::{SimulationLimits, Simulator};

        let cap = 20_000u64;
        let scenario = Scenario::generate(
            ScenarioParams { num_workers: 10, tasks_per_iteration: 4, ncom, wmin, iterations: 2 },
            seed,
        );
        let heuristic = HeuristicSpec::all()[heuristic_idx];
        let run = |mode: SimMode| {
            let cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-6);
            let mut scheduler = heuristic.build_with_cache(seed ^ 0x5EED, &cache);
            let sim = match backend {
                // Lazily realized Markov chains (the paper's model).
                0 => {
                    let availability = scenario.availability_for_trial(seed);
                    Simulator::new(&scenario, availability)
                        .with_limits(SimulationLimits::with_max_slots(cap).unwrap())
                        .with_mode(mode)
                        .run_with_report(scheduler.as_mut())
                }
                // The same realization replayed from materialized traces.
                1 => {
                    let traces = scenario.availability_for_trial(seed).materialize(cap);
                    Simulator::new(&scenario, traces)
                        .with_limits(SimulationLimits::with_max_slots(cap).unwrap())
                        .with_mode(mode)
                        .run_with_report(scheduler.as_mut())
                }
                // Semi-Markov (Weibull/log-normal) availability: the
                // model-mismatch backend of the sensitivity study.
                _ => {
                    let models =
                        vec![SemiMarkovModel::weibull_lognormal(30.0, 0.8, 0.3);
                             scenario.platform.num_workers()];
                    let traces = RealizedAvailability::semi_markov(&models, seed, cap);
                    Simulator::new(&scenario, traces)
                        .with_limits(SimulationLimits::with_max_slots(cap).unwrap())
                        .with_mode(mode)
                        .run_with_report(scheduler.as_mut())
                }
            };
            sim
        };
        let (slot_outcome, _, slot_report) = run(SimMode::SlotStepped);
        let (event_outcome, _, event_report) = run(SimMode::EventDriven);
        prop_assert_eq!(
            &slot_outcome, &event_outcome,
            "{} on backend {} (seed {}) diverged between engines",
            heuristic.name(), backend, seed
        );
        prop_assert_eq!(slot_report.executed_slots, slot_report.simulated_slots);
        prop_assert!(event_report.executed_slots <= slot_report.executed_slots);
    }

    /// The scan-layer equivalence guarantee: on single-pool platforms (where
    /// the class-representative argument is exact, see
    /// `indexed_and_exhaustive_scans_build_identical_assignments`), full
    /// simulations under the forced indexed scan produce `SimOutcome`s
    /// byte-identical to the reference exhaustive scan, for every one of the
    /// 17 heuristics — including mid-run decisions where holdings, in-flight
    /// transfers and non-`UP` states split the equivalence classes.
    #[test]
    fn indexed_scan_full_sims_match_exhaustive(
        seed in 0u64..10_000,
        wmin in 1u64..4,
        ncom in 2usize..8,
        heuristic_idx in 0usize..17,
        fast in 0.0f64..1.0,
    ) {
        use desktop_grid_scheduling::heuristics::{
            PassiveScheduler, ProactiveScheduler, RandomScheduler, ScanStrategy,
            SchedulingContext,
        };
        use desktop_grid_scheduling::sim::{Scheduler, SimulationLimits, Simulator};

        let model = ScenarioModel {
            speeds: SpeedProfile::Clustered { fast_fraction: fast, slow_factor: 5 },
            availability: AvailabilityRegime::Pooled { classes: 1 },
            ..ScenarioModel::paper()
        };
        let scenario = Scenario::generate_with(
            ScenarioParams { num_workers: 12, tasks_per_iteration: 4, ncom, wmin, iterations: 2 },
            &model,
            seed,
        );
        let spec = HeuristicSpec::all()[heuristic_idx];
        let run = |strategy: ScanStrategy| {
            let mut ctx =
                SchedulingContext::new(EvalCache::new(&scenario.platform, &scenario.master, 1e-6));
            ctx.set_scan_strategy(strategy);
            let mut scheduler: Box<dyn Scheduler> = match spec {
                HeuristicSpec::Random => Box::new(RandomScheduler::new(seed)),
                HeuristicSpec::Passive(k) => Box::new(PassiveScheduler::with_context(k, ctx)),
                HeuristicSpec::Proactive(c, k) => {
                    Box::new(ProactiveScheduler::with_context(c, k, ctx))
                }
            };
            let availability = scenario.availability_for_trial(seed ^ 0xF00D);
            Simulator::new(&scenario, availability)
                .with_limits(SimulationLimits::with_max_slots(20_000).unwrap())
                .run(scheduler.as_mut())
                .0
        };
        let exhaustive = run(ScanStrategy::Exhaustive);
        let indexed = run(ScanStrategy::Indexed);
        prop_assert_eq!(
            &exhaustive, &indexed,
            "{} (seed {}) diverged between forced scan strategies", spec.name(), seed
        );
    }

    /// The evaluation-layer equivalence guarantee: on random scenarios, under
    /// both engines, an instance evaluated through a shared, pre-warmed
    /// `EvalCache` — populated by *other* heuristics and an earlier trial —
    /// produces a `SimOutcome` byte-identical to the per-instance path with a
    /// fresh private estimator.
    #[test]
    fn shared_eval_cache_and_fresh_estimators_agree(
        seed in 0u64..10_000,
        wmin in 1u64..4,
        ncom in 2usize..8,
        heuristic_idx in 0usize..17,
        event_engine in any::<bool>(),
    ) {
        use desktop_grid_scheduling::experiments::runner::{run_instance_on, trial_seed};

        let cap = 20_000u64;
        let mode = if event_engine { SimMode::EventDriven } else { SimMode::SlotStepped };
        let scenario = Scenario::generate(
            ScenarioParams { num_workers: 10, tasks_per_iteration: 4, ncom, wmin, iterations: 2 },
            seed,
        );
        let heuristic = HeuristicSpec::all()[heuristic_idx];
        let spec = InstanceSpec { scenario_index: 0, trial_index: 1, heuristic };
        let (fresh, ..) = run_instance(&scenario, &spec, seed, cap, 1e-6, mode);

        // Pre-warm the shared cache with two other heuristics on another
        // trial, then run the instance under test through it.
        let cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-6);
        for warm in ["IE", "Y-IAY"] {
            let warm_spec = InstanceSpec {
                scenario_index: 0,
                trial_index: 0,
                heuristic: HeuristicSpec::parse(warm).unwrap(),
            };
            let warm_ts = trial_seed(seed, scenario.seed, 0);
            run_instance_on(
                &scenario,
                &warm_spec,
                scenario.realize_trial(warm_ts, cap),
                &cache,
                seed,
                cap,
                mode,
            );
        }
        let ts = trial_seed(seed, scenario.seed, 1);
        let (shared, ..) = run_instance_on(
            &scenario,
            &spec,
            scenario.realize_trial(ts, cap),
            &cache,
            seed,
            cap,
            mode,
        );
        prop_assert_eq!(
            &fresh, &shared,
            "{} (seed {seed}, {mode:?}) diverged between shared cache and fresh estimator",
            heuristic.name()
        );
        // Sharing actually happened: each distinct set was computed once.
        let stats = cache.stats();
        prop_assert_eq!(stats.group_misses as usize, cache.cached_sets());
    }
}

/// Strategy over every speed profile with random parameters.
fn speed_profile() -> impl Strategy<Value = SpeedProfile> {
    (0u8..4, 2u64..12, 0.0f64..1.0, 0.5f64..3.0).prop_map(|(kind, factor, fraction, alpha)| {
        match kind {
            0 => SpeedProfile::PaperUniform,
            1 => SpeedProfile::Uniform { max_factor: factor },
            2 => SpeedProfile::Clustered { fast_fraction: fraction, slow_factor: factor },
            _ => SpeedProfile::PowerLaw { alpha, max_factor: factor },
        }
    })
}

/// Strategy over every availability regime, including random self-loop ranges
/// and the pooled classes of the scaling layer.
fn availability_regime() -> impl Strategy<Value = AvailabilityRegime> {
    (0u8..5, 0.5f64..0.9, 0.0f64..0.09, 1usize..20).prop_map(
        |(kind, lo, width, classes)| match kind {
            0 => AvailabilityRegime::Paper,
            1 => AvailabilityRegime::Volatile,
            2 => AvailabilityRegime::Stable,
            3 => AvailabilityRegime::Pooled { classes },
            _ => AvailabilityRegime::SelfLoops { lo, hi: lo + width },
        },
    )
}

/// Strategy over full generator models (all four axes).
fn scenario_model() -> impl Strategy<Value = ScenarioModel> {
    (speed_profile(), availability_regime(), any::<bool>(), 0.5f64..1.5, 1u64..8, 0u64..3).prop_map(
        |(speeds, availability, semi, shape, prog, data)| ScenarioModel {
            speeds,
            availability,
            trials: if semi { TrialModel::SemiMarkov { shape } } else { TrialModel::Markov },
            app: AppShape { prog_factor: prog, data_factor: data },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generator_speeds_stay_in_profile_bounds(
        profile in speed_profile(),
        wmin in 1u64..8,
        seed in 0u64..500,
    ) {
        use desktop_grid_scheduling::availability::rng::rng_from_seed;
        let mut rng = rng_from_seed(seed);
        let (lo, hi) = profile.bounds(wmin).expect("small bounds fit");
        prop_assert!(lo >= wmin);
        for _ in 0..50 {
            let speed = profile.sample(wmin, &mut rng);
            prop_assert!(
                (lo..=hi).contains(&speed),
                "{profile:?}: speed {speed} outside [{lo}, {hi}] at wmin {wmin}"
            );
        }
    }

    #[test]
    fn regime_chains_are_row_stochastic_and_in_range(
        regime in availability_regime(),
        seed in 0u64..500,
    ) {
        use desktop_grid_scheduling::availability::rng::rng_from_seed;
        let mut rng = rng_from_seed(seed);
        let (lo, hi) = regime.self_loop_range();
        for _ in 0..20 {
            let chain = regime.sample_chain(&mut rng);
            prop_assert!(chain.transition_matrix().is_row_stochastic());
            for s in ProcState::ALL {
                let p = chain.prob(s, s);
                prop_assert!((lo..=hi).contains(&p), "self-loop {p} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn same_model_and_seed_regenerates_identical_scenarios(
        model in scenario_model(),
        workers in 2usize..25,
        m in 1usize..8,
        wmin in 1u64..5,
        seed in 0u64..10_000,
    ) {
        let params = ScenarioParams {
            num_workers: workers,
            tasks_per_iteration: m,
            ncom: 4,
            wmin,
            iterations: 3,
        };
        let a = Scenario::generate_with(params, &model, seed);
        let b = Scenario::generate_with(params, &model, seed);
        prop_assert_eq!(&a, &b, "same (model, seed) produced different scenarios");
        // And the trial realizations they induce are identical too.
        let mut ra = a.realize_trial(seed ^ 0xA5A5, 200);
        let mut rb = b.realize_trial(seed ^ 0xA5A5, 200);
        for q in 0..workers {
            for t in 0..100u64 {
                prop_assert_eq!(ra.state(q, t), rb.state(q, t));
            }
        }
    }

    /// The prefix-accumulator of the scaling layer: folding workers in one at
    /// a time, each read from its tabulated series, agrees bit for bit with
    /// the batch left-fold of `GroupComputation`, on chains drawn from every
    /// availability regime.
    #[test]
    fn accumulator_extend_chain_matches_batch(
        regime in availability_regime(),
        seed in 0u64..10_000,
        count in 2usize..7,
    ) {
        use desktop_grid_scheduling::analysis::GroupAccumulator;
        use desktop_grid_scheduling::availability::rng::rng_from_seed;

        let mut rng = rng_from_seed(seed);
        let chains: Vec<MarkovChain3> =
            (0..count).map(|_| regime.sample_chain(&mut rng)).collect();
        let series: Vec<WorkerSeries> = chains.iter().map(WorkerSeries::new).collect();
        let refs: Vec<&WorkerSeries> = series.iter().collect();
        let batch = GroupComputation::new(1e-7).compute(&refs);

        // One-at-a-time chain, in the cache's sorted-prefix order.
        let mut acc = GroupAccumulator::empty(1e-7);
        for s in &series {
            acc = acc.extend(s, &s.tabulate(1e-7, 1.0)).expect("regime-sampled chains can fail");
        }
        prop_assert_eq!(acc.quantities(), batch);
    }

    /// Every group the evaluation cache serves equals the batch evaluation of
    /// the sorted member set bit for bit, on every availability regime: on a
    /// cold cache, on one cache whose tables and extension chains were built
    /// by the probes before it (in a random order, so a set may reuse or
    /// extend any earlier set's prefix), and again on that warm cache, which
    /// then computes nothing.
    #[test]
    fn eval_cache_groups_match_the_batch_series_bit_for_bit(
        regime in availability_regime(),
        seed in 0u64..10_000,
        workers in 2usize..10,
        probes in proptest::collection::vec(
            proptest::collection::vec(0usize..10, 0..7), 1..16),
    ) {
        use desktop_grid_scheduling::analysis::GroupQuantities;
        use desktop_grid_scheduling::availability::rng::rng_from_seed;

        let mut rng = rng_from_seed(seed);
        let chains: Vec<MarkovChain3> =
            (0..workers).map(|_| regime.sample_chain(&mut rng)).collect();
        let platform = Platform::new(vec![WorkerSpec::new(1); workers], chains);
        let master = MasterSpec::from_slots(4, 2, 1);
        let series: Vec<WorkerSeries> = platform.chains().iter().map(WorkerSeries::new).collect();
        // Probes name workers in any order and may repeat one; the cache
        // normalizes them to the sorted set the batch evaluation folds.
        let probes: Vec<Vec<usize>> =
            probes.iter().map(|probe| probe.iter().map(|&q| q % workers).collect()).collect();
        let sets: Vec<Vec<usize>> = probes
            .iter()
            .map(|probe| {
                let mut set = probe.clone();
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect();
        let batch = |set: &[usize]| {
            let refs: Vec<&WorkerSeries> = set.iter().map(|&q| &series[q]).collect();
            GroupComputation::new(1e-7).compute(&refs)
        };
        let bits = |g: GroupQuantities| {
            let values = (g.eu.to_bits(), g.a.to_bits(), g.p_plus.to_bits(), g.e_c.to_bits());
            (values, g.can_fail, g.terms_evaluated)
        };

        let shared = EvalCache::new(&platform, &master, 1e-7);
        for (probe, set) in probes.iter().zip(&sets) {
            let expected = bits(batch(set));
            let cold = EvalCache::new(&platform, &master, 1e-7);
            prop_assert_eq!(bits(cold.group(probe)), expected, "cold {:?}", probe);
            prop_assert_eq!(bits(shared.group(probe)), expected, "chained {:?}", probe);
        }
        let misses = shared.stats().group_misses;
        for (probe, set) in probes.iter().zip(&sets) {
            prop_assert_eq!(bits(shared.group(probe)), bits(batch(set)), "warm {:?}", probe);
        }
        prop_assert_eq!(shared.stats().group_misses, misses);
    }

    /// The indexed candidate scan builds the exact assignment of the
    /// reference exhaustive scan, for all four incremental criteria.
    ///
    /// Single-pool platforms (`Pooled { classes: 1 }`) make the
    /// class-representative argument *exact*: every worker shares one chain
    /// bitwise, so the per-term joint products are powers of one value and
    /// same-class scores cannot drift by fold order. (Multi-pool platforms
    /// can diverge by ulps when a replacement changes its sorted position —
    /// which is why `ScanStrategy::Auto` only engages the index beyond the
    /// paper's scales.)
    #[test]
    fn indexed_and_exhaustive_scans_build_identical_assignments(
        seed in 0u64..10_000,
        workers in 6usize..24,
        m in 1usize..8,
        fast in 0.0f64..1.0,
        slow_factor in 2u64..8,
        wmin in 1u64..4,
    ) {
        use desktop_grid_scheduling::heuristics::passive::{
            build_incremental_exhaustive, build_incremental_indexed,
        };
        use desktop_grid_scheduling::heuristics::{PassiveKind, SchedulingContext};
        use desktop_grid_scheduling::sim::view::{SimView, WorkerView};
        use desktop_grid_scheduling::sim::worker_state::WorkerDynamicState;

        let model = ScenarioModel {
            speeds: SpeedProfile::Clustered { fast_fraction: fast, slow_factor },
            availability: AvailabilityRegime::Pooled { classes: 1 },
            ..ScenarioModel::paper()
        };
        let params = ScenarioParams {
            num_workers: workers,
            tasks_per_iteration: m,
            ncom: 4,
            wmin,
            iterations: 2,
        };
        let scenario = Scenario::generate_with(params, &model, seed);
        let views: Vec<WorkerView> = (0..workers)
            .map(|_| WorkerView { state: ProcState::Up, dynamic: WorkerDynamicState::fresh() })
            .collect();
        let view = SimView {
            time: 0,
            iteration: 0,
            completed_iterations: 0,
            iteration_started_at: 0,
            workers: &views,
            platform: &scenario.platform,
            application: &scenario.application,
            master: &scenario.master,
            current: None,
        };
        for kind in PassiveKind::ALL {
            let fresh = || {
                SchedulingContext::new(EvalCache::new(&scenario.platform, &scenario.master, 1e-6))
            };
            let (mut ex_ctx, mut ix_ctx) = (fresh(), fresh());
            let exhaustive = build_incremental_exhaustive(&mut ex_ctx, &view, kind).map(|(a, _)| a);
            let indexed = build_incremental_indexed(&mut ix_ctx, &view, kind).map(|(a, _)| a);
            prop_assert_eq!(
                &exhaustive, &indexed,
                "{:?} diverged between scans on a single-pool platform (seed {})", kind, seed
            );
        }
    }

    /// The decision-parallelism tentpole: for **every** of the 17 heuristics
    /// on a sampled platform, a decision evaluated through a multi-threaded
    /// cache handle (2, 4 or 8 scoped threads) is **byte-identical** to the
    /// serial decision — same `Decision`, and the same total number of
    /// group-quantity lookups (the deterministic chunk-order reduction probes
    /// exactly the serial candidate sets, under both scan strategies).
    #[test]
    fn parallel_decisions_are_byte_identical_to_serial_for_every_heuristic(
        seed in 0u64..10_000,
        workers in 12usize..32,
        m in 2usize..7,
        fast in 0.0f64..1.0,
        classes in 1usize..5,
        threads_idx in 0usize..3,
        down_mask in 0u32..8,
        strategy_idx in 0usize..2,
    ) {
        use desktop_grid_scheduling::heuristics::{HeuristicSpec, ScanStrategy};
        use desktop_grid_scheduling::sim::view::{SimView, WorkerView};
        use desktop_grid_scheduling::sim::worker_state::WorkerDynamicState;

        let model = ScenarioModel {
            speeds: SpeedProfile::Clustered { fast_fraction: fast, slow_factor: 4 },
            availability: AvailabilityRegime::Pooled { classes },
            ..ScenarioModel::paper()
        };
        let params = ScenarioParams {
            num_workers: workers,
            tasks_per_iteration: m,
            ncom: 4,
            wmin: 2,
            iterations: 2,
        };
        let scenario = Scenario::generate_with(params, &model, seed);
        // A few non-UP workers so the probe list is not trivially the whole
        // platform; keep most UP so every heuristic can still schedule.
        let views: Vec<WorkerView> = (0..workers)
            .map(|q| {
                let state = if q < 3 && down_mask & (1 << q) != 0 {
                    ProcState::Down
                } else {
                    ProcState::Up
                };
                WorkerView { state, dynamic: WorkerDynamicState::fresh() }
            })
            .collect();
        let view = SimView {
            time: 0,
            iteration: 0,
            completed_iterations: 0,
            iteration_started_at: 0,
            workers: &views,
            platform: &scenario.platform,
            application: &scenario.application,
            master: &scenario.master,
            current: None,
        };
        let threads = [2usize, 4, 8][threads_idx];
        let strategy =
            [ScanStrategy::Exhaustive, ScanStrategy::Indexed][strategy_idx];
        // Registry-built schedulers use the Auto strategy; to cover both scan
        // paths at sub-threshold sizes the passive/proactive schedulers are
        // assembled around a context with the strategy forced.
        let build = |spec: &HeuristicSpec, cache: &EvalCache| -> Box<dyn Scheduler> {
            use desktop_grid_scheduling::heuristics::{PassiveScheduler, ProactiveScheduler};
            let context = |cache: &EvalCache| {
                let mut ctx =
                    desktop_grid_scheduling::heuristics::SchedulingContext::new(cache.clone());
                ctx.set_scan_strategy(strategy);
                ctx
            };
            match *spec {
                HeuristicSpec::Random => spec.build_with_cache(seed, cache),
                HeuristicSpec::Passive(k) => {
                    Box::new(PassiveScheduler::with_context(k, context(cache)))
                }
                HeuristicSpec::Proactive(c, k) => {
                    Box::new(ProactiveScheduler::with_context(c, k, context(cache)))
                }
            }
        };
        for spec in HeuristicSpec::all() {
            let serial_cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-6);
            let mut parallel_cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-6);
            parallel_cache.set_decision_threads(threads);
            prop_assert_eq!(parallel_cache.decision_threads(), threads);
            let mut serial = build(&spec, &serial_cache);
            let mut parallel = build(&spec, &parallel_cache);
            let a = serial.decide(&view);
            let b = parallel.decide(&view);
            prop_assert_eq!(
                &a, &b,
                "{} diverged between 1 and {} decision threads (seed {}, {:?})",
                spec.name(), threads, seed, strategy
            );
            prop_assert_eq!(
                serial_cache.stats().lookups(),
                parallel_cache.stats().lookups(),
                "{} probed a different number of sets under {} threads (seed {})",
                spec.name(), threads, seed
            );
        }
    }

    #[test]
    fn engines_agree_on_sampled_non_paper_suites(
        model in scenario_model(),
        seed in 0u64..10_000,
    ) {
        // Event-driven and slot-stepped runs must stay byte-identical on
        // arbitrary generator models, not just the paper point.
        let params = ScenarioParams {
            num_workers: 6,
            tasks_per_iteration: 3,
            ncom: 3,
            wmin: 2,
            iterations: 2,
        };
        let scenario = Scenario::generate_with(params, &model, seed);
        for name in ["IE", "Y-IE"] {
            let spec = InstanceSpec {
                scenario_index: 0,
                trial_index: 0,
                heuristic: HeuristicSpec::parse(name).unwrap(),
            };
            let (slot, ..) = run_instance(&scenario, &spec, seed, 10_000, 1e-6, SimMode::SlotStepped);
            let (event, ..) =
                run_instance(&scenario, &spec, seed, 10_000, 1e-6, SimMode::EventDriven);
            prop_assert_eq!(
                &slot, &event,
                "{} diverged between engines on model {:?} (seed {})", name, model, seed
            );
        }
    }
}

/// Reference oracle for the earliest-finish search: enumerate every processor
/// subset the variant allows and take the best feasible finish. Exponential,
/// so only for tiny instances.
fn brute_force_earliest_finish(
    inst: &OfflineInstance,
    from: usize,
    variant: OracleVariant,
) -> Option<u64> {
    let p = inst.num_procs();
    let mut best: Option<u64> = None;
    for mask in 1u32..1 << p {
        let procs: Vec<usize> = (0..p).filter(|q| mask >> q & 1 == 1).collect();
        let k = procs.len();
        let (allowed, needed) = match variant {
            OracleVariant::Mu1 => (k == inst.m, inst.w as usize),
            OracleVariant::MuUnbounded => (k <= inst.m, inst.required_slots_for(k) as usize),
        };
        if !allowed {
            continue;
        }
        let common: Vec<usize> =
            (from..inst.horizon()).filter(|&t| procs.iter().all(|&q| inst.is_up(q, t))).collect();
        if common.len() >= needed {
            let finish = common[needed - 1] as u64 + 1;
            if best.is_none_or(|b| finish < b) {
                best = Some(finish);
            }
        }
    }
    best
}

/// Strategy for a tiny offline instance within the brute-force envelope: up
/// to 6 processors (`m <= 6`) and horizons up to 8 slots. A full 6x8 matrix
/// is generated and truncated to the sampled dimensions.
fn tiny_offline_instance() -> impl Strategy<Value = OfflineInstance> {
    (
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), 8), 6),
        1usize..=6,
        1usize..=8,
        1u64..=3,
        1usize..=6,
    )
        .prop_map(|(up, p, horizon, w, m)| {
            let up: Vec<Vec<bool>> =
                up.into_iter().take(p).map(|row| row.into_iter().take(horizon).collect()).collect();
            OfflineInstance::new(up, w, m)
        })
}

/// Strategy for a Markov chain drawn from one of the generator's availability
/// regimes: volatile (`U[0.60, 0.85]` self-loops), the paper's
/// `U[0.90, 0.99]`, or near-dedicated `U[0.995, 0.999]`.
fn regime_chain() -> impl Strategy<Value = MarkovChain3> {
    (0usize..3, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(regime, u, r, d)| {
        let (lo, hi) = [(0.60, 0.85), (0.90, 0.99), (0.995, 0.999)][regime];
        let scale = |x: f64| lo + x * (hi - lo);
        MarkovChain3::from_self_loop_probs(scale(u), scale(r), scale(d)).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn offline_exact_oracle_matches_brute_force_on_tiny_instances(
        inst in tiny_offline_instance(),
        from in 0usize..4,
        mu1 in any::<bool>(),
    ) {
        let variant = if mu1 { OracleVariant::Mu1 } else { OracleVariant::MuUnbounded };
        let expected = brute_force_earliest_finish(&inst, from, variant);
        let got = earliest_finish_exact(&inst, from, variant);
        prop_assert_eq!(
            got.as_ref().map(|s| s.finish_time()), expected,
            "exact oracle disagrees with subset enumeration (from {}, witness {:?})", from, got
        );
        // Greedy returns a feasible witness, so it can never beat the optimum.
        if let Some(greedy) = earliest_finish_greedy(&inst, from, variant) {
            prop_assert!(greedy.finish_time() >= expected.unwrap());
        }
    }

    #[test]
    fn greedy_schedule_never_beats_exact_schedule_across_regimes(
        chains in proptest::collection::vec(regime_chain(), 1..6),
        seed in 0u64..10_000,
        w in 1u64..3,
        iterations in 1u64..3,
    ) {
        // Project a realization from each availability regime and check
        // makespan dominance of the chained oracles on it.
        let p = chains.len();
        let mut model = RealizedAvailability::markov(chains, seed);
        let inst = OfflineInstance::new(model.up_matrix(48), w, 1 + p / 2);
        let exact = schedule_exact(&inst, iterations, OracleVariant::MuUnbounded);
        let greedy = schedule_greedy(&inst, iterations, OracleVariant::MuUnbounded);
        if let Some(greedy) = &greedy {
            let exact = exact.as_ref().expect("greedy found a schedule the exact search missed");
            prop_assert!(
                exact.makespan <= greedy.makespan,
                "exact {} > greedy {}", exact.makespan, greedy.makespan
            );
            prop_assert!(exact.is_valid(&inst, OracleVariant::MuUnbounded));
            prop_assert!(greedy.is_valid(&inst, OracleVariant::MuUnbounded));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shard_ranges_tile_any_point_space(total in 1usize..20, num_points in 0usize..200) {
        use desktop_grid_scheduling::experiments::distrib::shard_range;
        // The N ranges tile 0..num_points exactly, in order, balanced to
        // within one point — the invariant the merge step's gap/overlap
        // refusals are calibrated against.
        let mut cursor = 0usize;
        let mut min = usize::MAX;
        let mut max = 0usize;
        for index in 1..=total {
            let range = shard_range(index, total, num_points);
            prop_assert_eq!(range.start, cursor);
            prop_assert!(range.end >= range.start);
            cursor = range.end;
            min = min.min(range.len());
            max = max.max(range.len());
        }
        prop_assert_eq!(cursor, num_points);
        prop_assert!(max - min <= 1, "unbalanced split: sizes span {min}..{max}");
    }

    #[test]
    fn any_partition_of_points_round_trips_through_split_and_merge(
        num_points in 1usize..30,
        raw_cuts in proptest::collection::vec(0usize..30, 0..5),
    ) {
        use desktop_grid_scheduling::experiments::distrib::merge_parts;
        use desktop_grid_scheduling::experiments::store::{shard_name, CampaignStore};
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dg-prop-split-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Arbitrary cut points induce an arbitrary partition of
        // 0..num_points into contiguous ranges (duplicate cuts produce empty
        // ranges, which are legal idle workers).
        let mut bounds = vec![0usize];
        bounds.extend(raw_cuts.into_iter().map(|c| c % (num_points + 1)));
        bounds.push(num_points);
        bounds.sort_unstable();
        let ranges: Vec<std::ops::Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();

        let store = CampaignStore::open(&dir, "{\"k\":1}".to_string(), false).unwrap();
        for point in 0..num_points {
            std::fs::write(dir.join(shard_name(point)), format!("{{\"point\":{point}}}\n")).unwrap();
        }
        // With the last part manifest missing the merge must refuse and
        // leave the store incomplete...
        for (i, range) in ranges.iter().enumerate().take(ranges.len() - 1) {
            store.write_part(i + 1, ranges.len(), range.clone()).unwrap();
        }
        prop_assert!(merge_parts(&store, ranges.len(), num_points).is_err());
        prop_assert!(!store.is_complete().unwrap());
        // ...and with every part present the partition round-trips: the
        // merge stitches the full point space and finalizes the manifest.
        let last = ranges.len() - 1;
        store.write_part(last + 1, ranges.len(), ranges[last].clone()).unwrap();
        let report = merge_parts(&store, ranges.len(), num_points).unwrap();
        prop_assert_eq!(report.parts, ranges.len());
        prop_assert_eq!(report.points, num_points);
        prop_assert!(store.is_complete().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Run-length availability against dense per-slot references.
// ---------------------------------------------------------------------------

use desktop_grid_scheduling::availability::rng::sub_rng;
use desktop_grid_scheduling::availability::semi_markov::{HoldingTime, SemiMarkovState};
use rand::Rng;

/// `U`/`R`/`D` strings built from runs of up to 40 slots (adjacent runs may
/// repeat a state).
fn codes() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..3, 1usize..40), 1..12)
        .prop_map(|runs| runs.into_iter().map(|(s, n)| ["U", "R", "D"][s].repeat(n)).collect())
}

fn semi_state() -> impl Strategy<Value = SemiMarkovState> {
    let weights = (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0);
    (0usize..4, 0.0f64..1.0, 0.0f64..1.0, weights).prop_map(|(kind, x, y, (u, r, d))| {
        let holding = match kind {
            0 => HoldingTime::Geometric { continue_prob: 0.95 * x },
            1 => HoldingTime::Weibull { scale: 0.5 + 30.0 * x, shape: 0.3 + 2.7 * y },
            2 => HoldingTime::LogNormal { mu: 3.0 * x, sigma: 0.1 + 1.4 * y },
            _ => HoldingTime::Fixed { slots: 1 + (20.0 * x) as u64 },
        };
        SemiMarkovState { holding, to_up: u, to_reclaimed: r, to_down: d }
    })
}

/// `(state_at, next_change)` at every slot of a dense trace.
fn dense_answers(dense: &[ProcState]) -> Vec<(ProcState, Option<(u64, ProcState)>)> {
    let mut answers: Vec<_> = dense.iter().map(|&state| (state, None)).collect();
    for t in (0..dense.len() - 1).rev() {
        let change = (dense[t + 1] != dense[t]).then_some(((t + 1) as u64, dense[t + 1]));
        answers[t].1 = change.or(answers[t + 1].1);
    }
    answers
}

/// The eager per-slot semi-Markov generator, the reference for the lazy
/// realization: the first `horizon` slots of processor `q`, starting `UP`,
/// drawing a holding time then a jump from `sub_rng(seed, q)`.
fn eager_semi_markov(model: &SemiMarkovModel, seed: u64, q: u64, horizon: u64) -> Vec<ProcState> {
    let mut rng = sub_rng(seed, q);
    let mut states = Vec::new();
    let mut current = ProcState::Up;
    while (states.len() as u64) < horizon.max(1) {
        let params = [&model.up, &model.reclaimed, &model.down][current.index()];
        let hold = params.holding.sample(&mut rng);
        let room = horizon.max(1) - states.len() as u64;
        states.extend(std::iter::repeat_n(current, hold.min(room) as usize));
        let x = rng.gen::<f64>() * (params.to_up + params.to_reclaimed + params.to_down);
        current = if x < params.to_up {
            ProcState::Up
        } else if x < params.to_up + params.to_reclaimed {
            ProcState::Reclaimed
        } else {
            ProcState::Down
        };
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_length_traces_answer_like_their_codes(codes in codes()) {
        let trace = StateTrace::parse(&codes).unwrap();
        prop_assert_eq!(trace.to_code_string(), codes.clone());
        let dense: Vec<ProcState> = codes.chars().map(|c| ProcState::from_code(c).unwrap()).collect();
        let (answers, last) = (dense_answers(&dense), dense.len() as u64 - 1);
        for t in (0..last + 4).chain([u64::MAX]) {
            let got = (trace.state_at(t), trace.next_change(t));
            prop_assert_eq!(got, answers[t.min(last) as usize], "slot {}", t);
        }
    }

    #[test]
    fn lazy_semi_markov_matches_the_eager_generator(
        up in semi_state(),
        reclaimed in semi_state(),
        down in semi_state(),
        seed in any::<u64>(),
        horizon in 1u64..3000,
    ) {
        let model = SemiMarkovModel { up, reclaimed, down };
        let mut lazy = RealizedAvailability::semi_markov(&[model, model], seed, horizon);
        for q in 0..2 {
            let answers = dense_answers(&eager_semi_markov(&model, seed, q as u64, horizon));
            for t in 0..horizon + 50 {
                let got = (lazy.state(q, t), lazy.next_transition(q, t));
                prop_assert_eq!(got, answers[t.min(horizon - 1) as usize], "processor {} at {}", q, t);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The JSON codec at the crate's boundaries: `serve` requests and the store's
// record lines.
// ---------------------------------------------------------------------------

use desktop_grid_scheduling::experiments::campaign::InstanceResult;
use desktop_grid_scheduling::experiments::gap::{decode_gap_record, encode_gap_record, GapRecord};
use desktop_grid_scheduling::experiments::service::{
    CurrentConfig, DecideRequest, Request, ScheduleService, ServiceCore,
};
use desktop_grid_scheduling::experiments::store::{
    decode_instance, encode_instance, StoredInstance,
};
use desktop_grid_scheduling::sim::SimStats;
use std::sync::{Arc, OnceLock};

/// Characters a JSON writer must escape, plus multi-byte text.
const HOSTILE: [char; 14] =
    ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '😀'];

fn hostile_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..HOSTILE.len(), 0..10)
        .prop_map(|picks| picks.into_iter().map(|i| HOSTILE[i]).collect())
}

/// Pieces of JSON, and of the records' own keys, to build noise from; an
/// index past the end stands for an arbitrary byte.
const PIECES: [&[u8]; 20] = [
    b"{",
    b"}",
    b"[",
    b"]",
    b"\"",
    b":",
    b",",
    b" ",
    b"\\",
    b"\\u",
    b"0",
    b"-1.5e3",
    b"null",
    b"true",
    b"\"heuristic\"",
    b"\"workers\"",
    b"\"batch\"",
    b"\"point\"",
    b"\n",
    b"\xff",
];

fn noise() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0..PIECES.len() + 1, any::<u8>()), 0..40).prop_map(|picks| {
        picks.into_iter().flat_map(|(i, b)| PIECES.get(i).map_or(vec![b], |p| p.to_vec())).collect()
    })
}

/// One service session over a small shared platform.
fn codec_service() -> ScheduleService {
    static CORE: OnceLock<Arc<ServiceCore>> = OnceLock::new();
    let core = CORE.get_or_init(|| {
        let params = ScenarioParams {
            num_workers: 8,
            tasks_per_iteration: 4,
            ncom: 4,
            wmin: 2,
            iterations: 3,
        };
        Arc::new(ServiceCore::new(Scenario::generate(params, 17), 1e-6, 42))
    });
    ScheduleService::new(Arc::clone(core))
}

/// Feed `bytes` to every decoder and to a serve loop: nothing may panic, and
/// every reply is one line free of raw control bytes.
fn decode_everywhere(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = (Request::parse(&text), DecideRequest::parse(&text));
    let _ = (decode_instance(&text), decode_gap_record(&text));
    let mut out = Vec::new();
    codec_service().serve(bytes, &mut out).unwrap();
    for line in String::from_utf8(out).unwrap().split_terminator('\n') {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line:?}");
        assert!(line.bytes().all(|b| b >= 0x20), "raw control byte in {line:?}");
    }
}

/// A campaign record, a gap record and a decide request built from the
/// drawn strings and numbers.
fn records(
    strings: &[String; 3],
    flags: (bool, bool, bool),
    numbers: &[u64],
) -> (StoredInstance, GapRecord, DecideRequest) {
    let [a, b, c] = strings;
    let n = |i: usize| numbers[i % numbers.len()];
    let params = ScenarioParams {
        num_workers: n(0) as usize,
        tasks_per_iteration: n(1) as usize,
        ncom: n(2) as usize,
        wmin: n(3),
        iterations: n(4),
    };
    let stats = SimStats {
        configurations_selected: n(5),
        proactive_changes: n(6),
        iterations_aborted: n(7),
        transfer_slots: n(8),
        computation_slots: n(9),
        stalled_slots: n(10),
        idle_slots: n(11),
    };
    let outcome = SimOutcome {
        completed_iterations: n(12),
        target_iterations: n(13),
        makespan: flags.0.then_some(n(14)),
        simulated_slots: n(15),
        stats,
    };
    let (scenario_index, trial_index) = (n(16) as usize, n(17) as usize);
    let result =
        InstanceResult { params, scenario_index, trial_index, heuristic: c.clone(), outcome };
    let stored = StoredInstance {
        point_index: n(18) as usize,
        suite: flags.1.then(|| a.clone()),
        model: flags.2.then(|| b.clone()),
        result,
    };
    let gap = GapRecord {
        point_index: n(19) as usize,
        suite: a.clone(),
        params,
        scenario_index,
        trial_index,
        heuristic: b.clone(),
        completed: n(20),
        target: n(21),
        online: flags.1.then_some(n(22)),
        bound: flags.2.then_some(n(23)),
        method: c.clone(),
    };
    let mut request = DecideRequest::new(a, b);
    request.id = flags.0.then_some(n(24));
    (request.time, request.iteration, request.completed) = (n(25), n(26), n(27));
    (request.started_at, request.trial, request.seed) =
        (n(28), n(29) as usize, flags.1.then_some(n(30)));
    let entries = numbers.iter().map(|&x| (x as usize % 64, x as usize)).take(3).collect();
    request.current = flags.2.then_some(CurrentConfig { entries, selected_at: n(31), done: n(32) });
    request.holdings = flags.1.then(|| {
        numbers.iter().map(|&x| (x % 2 == 0, x as usize, x, x % 3 == 0)).take(4).collect()
    });
    (stored, gap, request)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, alone or spliced into a valid record or request,
    /// never panic a decoder or the serve loop.
    #[test]
    fn codec_decoders_never_panic_on_arbitrary_bytes(
        noise in noise(),
        at in 0usize..400,
        strings in (hostile_text(), hostile_text(), hostile_text()),
        numbers in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        decode_everywhere(&noise);
        let (stored, gap, request) =
            records(&[strings.0, strings.1, strings.2], (true, true, true), &numbers);
        let r = &stored.result;
        let valid = [
            encode_instance(stored.point_index, stored.suite.as_deref(), stored.model.as_deref(), r),
            encode_gap_record(&gap),
            request.render(),
            format!("{{\"batch\":[{}]}}", request.render()),
        ];
        for line in valid {
            let mut bytes = line.into_bytes();
            let at = at.min(bytes.len());
            bytes.splice(at..at, noise.iter().copied());
            decode_everywhere(&bytes);
        }
    }

    /// Encoding then decoding returns the original record, whatever its
    /// strings hold, and every proper prefix of an encoded line is rejected.
    #[test]
    fn records_round_trip_and_truncations_are_rejected(
        strings in (hostile_text(), hostile_text(), hostile_text()),
        flags in (any::<bool>(), any::<bool>(), any::<bool>()),
        numbers in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let (stored, gap, request) =
            records(&[strings.0, strings.1, strings.2], flags, &numbers);
        let r = &stored.result;
        let line =
            encode_instance(stored.point_index, stored.suite.as_deref(), stored.model.as_deref(), r);
        prop_assert_eq!(&decode_instance(&line).unwrap(), &stored);
        let gap_line = encode_gap_record(&gap);
        prop_assert_eq!(&decode_gap_record(&gap_line).unwrap(), &gap);
        let request_line = request.render();
        prop_assert_eq!(&DecideRequest::parse(&request_line).unwrap(), &request);
        prop_assert_eq!(Request::parse(&request_line).unwrap(), Request::Decide(request));

        let cuts = |text: &str| (0..text.len()).filter(|&cut| text.is_char_boundary(cut)).collect::<Vec<_>>();
        for cut in cuts(&line) {
            prop_assert!(decode_instance(&line[..cut]).is_err(), "{}", &line[..cut]);
        }
        for cut in cuts(&gap_line) {
            prop_assert!(decode_gap_record(&gap_line[..cut]).is_err(), "{}", &gap_line[..cut]);
        }
        for cut in cuts(&request_line) {
            let prefix = &request_line[..cut];
            prop_assert!(DecideRequest::parse(prefix).is_err(), "{prefix}");
            prop_assert!(Request::parse(prefix).is_err(), "{prefix}");
        }
    }
}

/// The session's event rules applied to dense per-worker traces, one state
/// per slot: the part of the reply that carries the `changed` flag, or the
/// error line.
fn dense_event(
    traces: &mut [Vec<ProcState>],
    clock: &mut u64,
    event: (usize, ProcState, u64),
) -> String {
    let (worker, state, time) = event;
    let error = |message: String| format!("{{\"id\":null,\"ok\":false,\"error\":\"{message}\"}}");
    let Some(trace) = traces.get_mut(worker) else {
        return error(format!("worker {worker} does not exist"));
    };
    if time < *clock {
        return error(format!("event at slot {time} predates the session clock {clock}"));
    }
    let (tail, horizon) = (*trace.last().unwrap(), trace.len());
    if state != tail && (time as usize) < horizon {
        return error(format!(
            "transition to {state} at slot {time} predates the recorded horizon {horizon}"
        ));
    }
    if state != tail {
        trace.resize(time as usize, tail);
        trace.push(state);
    }
    *clock = time;
    format!("\"changed\":{}", state != tail)
}

/// `(worker, state, time)` events over times up to 64, mostly in time order;
/// worker 8 does not exist on the 8-worker service.
fn session_events() -> impl Strategy<Value = Vec<(usize, ProcState, u64)>> {
    proptest::collection::vec((0usize..9, 0usize..3, 0u64..4, 0u8..8), 1..40).prop_map(|steps| {
        let mut time = 0u64;
        let events = steps.into_iter().map(|(worker, state, ahead, back)| {
            time = if back == 0 { time.saturating_sub(2) } else { (time + ahead).min(64) };
            (worker, ProcState::from_index(state), time)
        });
        events.collect()
    })
}

fn event_line(worker: usize, state: ProcState, time: u64) -> String {
    format!("{{\"op\":\"event\",\"worker\":{worker},\"state\":\"{state}\",\"time\":{time}}}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A session that keeps one state and one last-change slot per worker
    /// answers every event as the dense per-slot traces did, and far-future
    /// times cost it nothing.
    #[test]
    fn session_events_follow_the_dense_trace_rules(events in session_events()) {
        let session = r#"{"op":"session","heuristic":"IE","workers":"UUUUUUUU"}"#;
        let mut service = codec_service();
        service.handle_line(session);
        let (mut traces, mut clock) = (vec![vec![ProcState::Up]; 8], 0);
        for &(worker, state, time) in &events {
            let line = event_line(worker, state, time);
            let reply = service.handle_line(&line).remove(0);
            let expected = dense_event(&mut traces, &mut clock, (worker, state, time));
            prop_assert!(reply.contains(&expected), "{} -> {}, expected {}", line, reply, expected);
        }
        let mut far = codec_service();
        far.handle_line(session);
        for &(worker, state, time) in &events {
            for reply in far.handle_line(&event_line(worker, state, time + (u64::MAX - 64))) {
                prop_assert!(reply.starts_with('{') && reply.ends_with('}'), "{}", reply);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Proactive candidates built from the probe log against fresh builds.
// ---------------------------------------------------------------------------

use desktop_grid_scheduling::heuristics::SchedulingContext;
use desktop_grid_scheduling::sim::config::ActiveConfiguration;
use desktop_grid_scheduling::sim::view::{SimView, WorkerView};
use desktop_grid_scheduling::sim::worker_state::WorkerDynamicState;

/// One change between two consults: `(what, worker, amount)`.
fn view_change() -> impl Strategy<Value = (usize, usize, u64)> {
    (0usize..10, 0usize..64, 1u64..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A proactive scheduler kept across a sequence of views decides on
    /// every view exactly what a fresh scheduler decides (and, with no
    /// configuration installed, what its passive base decides), for all 12
    /// proactive heuristics at 1 and 2 decision threads. The views move the
    /// way a run moves them: workers join and leave `UP`, `UP` and non-`UP`
    /// workers' holdings change, configurations are installed and dropped,
    /// iterations end, enrolled workers download and the clock runs alone.
    /// Sequences run long enough that most consults read a probe log written
    /// by an earlier one. Some workers are capacity-limited, and the first
    /// `twins + 1` workers are interchangeable, so their scores tie exactly
    /// and the lower index must win.
    #[test]
    fn repaired_proactive_candidates_match_fresh_builds(
        seed in 0u64..10_000,
        workers in 4usize..12,
        m in 1usize..7,
        twins in 1usize..3,
        limited in 0u32..256,
        initially_up in 0u32..4096,
        comm in (1usize..4, 0u64..4, 0u64..3),
        changes in proptest::collection::vec(view_change(), 3..30),
    ) {
        let mut rng = sub_rng(seed, 7);
        // Workers 0 ..= twins are fast and interchangeable, so they often
        // win rounds and tie exactly with each other.
        let twin_chain = MarkovChain3::sample_paper_model(&mut rng);
        let mut specs = vec![WorkerSpec::new(1); twins + 1];
        let mut chains = vec![twin_chain; twins + 1];
        for _ in twins + 1..workers {
            specs.push(WorkerSpec::new(rng.gen_range(1u64..6)));
            chains.push(MarkovChain3::sample_paper_model(&mut rng));
        }
        // Capacity limits (the twins share one; bit 7 limits every worker),
        // so that builds fail part-way when too few workers are UP, and a
        // joining worker can reopen the failed round.
        for (q, spec) in specs.iter_mut().enumerate() {
            let bit = if q <= twins { 0 } else { q % 6 };
            if limited & (1 << bit | 1 << 7) != 0 {
                *spec = WorkerSpec::with_capacity(spec.speed, 1 + (limited as usize >> 6) % 2);
            }
        }
        let platform = Platform::new(specs, chains);
        let application = ApplicationSpec::new(m, 10);
        let (ncom, t_prog, t_data) = comm;
        let master = MasterSpec::from_slots(ncom, t_prog, t_data);

        let mut world: Vec<WorkerView> = (0..workers)
            .map(|q| {
                let up = initially_up & (1 << q) != 0;
                let state = if up { ProcState::Up } else { ProcState::Reclaimed };
                WorkerView { state, dynamic: WorkerDynamicState::fresh() }
            })
            .collect();
        let (mut time, mut iteration, mut started) = (0u64, 0u64, 0u64);
        let mut current: Option<ActiveConfiguration> = None;
        let mut last_decided: Option<Assignment> = None;

        let proactive: Vec<HeuristicSpec> = HeuristicSpec::all()
            .into_iter()
            .filter(|spec| matches!(spec, HeuristicSpec::Proactive(..)))
            .collect();
        prop_assert_eq!(proactive.len(), 12);
        let mut kept: Vec<(ProactiveScheduler, EvalCache)> = Vec::new();
        for threads in [1usize, 2] {
            let mut cache = EvalCache::new(&platform, &master, 1e-6);
            cache.set_decision_threads(threads);
            for spec in &proactive {
                let HeuristicSpec::Proactive(criterion, base) = *spec else { unreachable!() };
                let context = SchedulingContext::new(cache.clone());
                kept.push((ProactiveScheduler::with_context(criterion, base, context), cache.clone()));
            }
        }

        for (step, &(what, pick, amount)) in changes.iter().enumerate() {
            let q = if pick < 32 { pick % (twins + 1) } else { pick % workers };
            match what {
                // A worker leaves UP (reclaimed keeps its holdings, DOWN loses them).
                0 if world[q].state.is_up() => {
                    if amount == 1 {
                        world[q].state = ProcState::Down;
                        world[q].dynamic.crash();
                    } else {
                        world[q].state = ProcState::Reclaimed;
                    }
                }
                // A worker joins UP.
                0 | 1 => world[q].state = ProcState::Up,
                // Transfer progress on one worker, UP or not.
                2 | 3 => {
                    for _ in 0..amount {
                        world[q].dynamic.advance_transfer(t_prog, t_data);
                    }
                }
                // Install the last candidate if its members are all UP, or
                // drop the configuration.
                4 => {
                    current = last_decided
                        .clone()
                        .filter(|a| a.members_iter().all(|w| world[w].state.is_up()))
                        .map(|a| {
                            let mut cfg = ActiveConfiguration::new(a, &platform, time);
                            for _ in 1..amount.min(cfg.remaining_computation()) {
                                cfg.advance_computation();
                            }
                            cfg
                        });
                }
                // An iteration ends.
                5 => {
                    for w in &mut world {
                        w.dynamic.new_iteration();
                    }
                    iteration += 1;
                    started = time;
                    current = None;
                }
                // Several workers move at once.
                6 => {
                    for w in world.iter_mut().skip(q % 3).step_by(2) {
                        w.dynamic.advance_transfer(t_prog, t_data);
                    }
                    world[q].state =
                        if world[q].state.is_up() { ProcState::Reclaimed } else { ProcState::Up };
                }
                // The installed configuration's UP members download, as
                // in a communication slot served on every channel.
                7 => {
                    if let Some(cfg) = &current {
                        let needy: Vec<usize> = cfg
                            .assignment
                            .entries()
                            .iter()
                            .filter(|&&(w, x)| {
                                world[w].state.is_up()
                                    && world[w].dynamic.comm_slots_remaining(x, t_prog, t_data) > 0
                            })
                            .map(|&(w, _)| w)
                            .take(ncom)
                            .collect();
                        for w in needy {
                            for _ in 0..amount {
                                world[w].dynamic.advance_transfer(t_prog, t_data);
                            }
                        }
                    }
                }
                // Only the clock moves.
                _ => {}
            }
            time += amount;
            let view = SimView {
                time,
                iteration,
                completed_iterations: iteration,
                iteration_started_at: started,
                workers: &world,
                platform: &platform,
                application: &application,
                master: &master,
                current: current.as_ref(),
            };
            for (sched, cache) in kept.iter_mut() {
                let context = SchedulingContext::new(cache.clone());
                let mut fresh = ProactiveScheduler::with_context(sched.criterion(), sched.base(), context);
                let expected = fresh.decide(&view);
                let got = sched.decide(&view);
                prop_assert_eq!(
                    &got, &expected,
                    "{} at {} decision threads diverged at step {} (seed {})",
                    sched.name(), cache.decision_threads(), step, seed
                );
                if current.is_none() {
                    // With nothing installed the decision is the candidate
                    // itself, so the passive base's from-scratch build is an
                    // oracle that shares no code with the probe log.
                    let context = SchedulingContext::new(cache.clone());
                    let passive = PassiveScheduler::with_context(sched.base(), context).decide(&view);
                    prop_assert_eq!(&got, &passive, "{} differs from its passive base", sched.name());
                }
                if let Decision::NewConfiguration(a) = got {
                    last_decided = Some(a);
                }
            }
        }
    }
}
// ---------------------------------------------------------------------------

use desktop_grid_scheduling::experiments::cli::CliOptions;
use desktop_grid_scheduling::experiments::suite::SuiteSpec;

/// The suite file's keys; an index past the end stands for an unknown key.
const SUITE_KEYS: &str = "suite workers iterations m ncom wmin speeds availability trials app";

/// The flags that take a value, then those that take none; an index past the
/// end stands for a stray value.
const FLAGS: &str = "--scenarios --trials --cap --suite --workers --ncom --wmin --heuristics \
    --threads --decision-threads --seed --engine --out --worker-shard --spawn-workers \
    --resume --full --quiet --help -h --bogus";
const VALUE_FLAGS: usize = 15;

/// Pieces of suite and flag values: numbers at and past the ceilings and
/// the 64-bit edge, non-finite and negative numbers, list separators,
/// balanced and unbalanced generator forms and the registry's names.
const VALUE_PIECES: &str = "0 1 7 10000 10001 1000000 1048576 1048577 18446744073709551615 \
    18446744073709551616 NaN inf -1 0.5 1e400 , ( ) # / 2/3 paper uniform(4) uniform(0) \
    clustered(0.3,8) clustered(NaN,8) powerlaw(1.5,16) powerlaw(inf,16) selfloop(0.6,0.9) \
    selfloop(0.9,0.6) pooled(16) pooled(16 semi(0.7) semi(-1) markov 5x1 5x volatile massive \
    IE Y-IE,RANDOM IE,IE slot";

/// The items of a whitespace-separated list.
fn pieces(list: &'static str) -> Vec<&'static str> {
    list.split_whitespace().collect()
}

/// Text spliced from [`VALUE_PIECES`] and arbitrary bytes (an index past the
/// end), read as UTF-8 with replacement.
fn pieced(max: usize) -> impl Strategy<Value = String> {
    let pieces = pieces(VALUE_PIECES);
    proptest::collection::vec((0..pieces.len() + 1, any::<u8>()), 0..max).prop_map(move |picks| {
        let bytes: Vec<u8> = picks
            .into_iter()
            .flat_map(|(i, b)| pieces.get(i).map_or(vec![b], |p| p.as_bytes().to_vec()))
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// A hostile value: one piece (half the time), a two-piece list, an empty
/// list or spliced text.
fn value() -> impl Strategy<Value = String> {
    let pieces = pieces(VALUE_PIECES);
    (0..6usize, 0..pieces.len(), 0..pieces.len(), pieced(6)).prop_map(move |(shape, a, b, text)| {
        match shape {
            0..=2 => pieces[a].to_string(),
            3 => format!("{},{}", pieces[a], pieces[b]),
            4 => String::new(),
            _ => text,
        }
    })
}

/// A suite file of up to 3 `key value` lines of hostile values, half the
/// time led by the mandatory `suite NAME` line.
fn suite_text() -> impl Strategy<Value = String> {
    let keys = pieces(SUITE_KEYS);
    let lines = proptest::collection::vec((0..keys.len() + 1, value()), 0..4);
    (any::<bool>(), lines).prop_map(move |(named, lines)| {
        let mut text = if named { "suite fuzz\n".to_string() } else { String::new() };
        for (key, value) in lines {
            text.push_str(&format!("{} {value}\n", keys.get(key).unwrap_or(&"bogus")));
        }
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A suite file, hostile or not, parses to an error or to a spec that
    /// validates and round-trips through `render`; a flag vector parses to
    /// an error or to options whose accessors return without a panic.
    #[test]
    fn suite_and_flag_parsers_return_an_error_or_a_valid_spec(
        text in suite_text(),
        noise in pieced(40),
        flags in proptest::collection::vec((0..pieces(FLAGS).len() + 1, value()), 0..6),
    ) {
        for text in [text, noise] {
            if let Ok(spec) = SuiteSpec::parse(&text) {
                prop_assert!(spec.validate().is_ok(), "{text:?} parsed to an invalid spec");
                prop_assert_eq!(&SuiteSpec::parse(&spec.render()).unwrap(), &spec);
            }
        }
        let mut args = Vec::new();
        for (flag, value) in flags {
            args.extend(pieces(FLAGS).get(flag).map(|f| f.to_string()));
            if flag < VALUE_FLAGS || flag >= pieces(FLAGS).len() {
                args.push(value);
            }
        }
        if let Ok(opts) = CliOptions::parse(&args) {
            let _ = opts.suite();
            let _ = opts.campaign();
            let _ = opts.executor();
            let _ = opts.worker_args(1, 1);
        }
    }
}
