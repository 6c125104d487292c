//! Registry of the paper's 17 heuristics by name.

use crate::context::SchedulingContext;
use crate::passive::{PassiveKind, PassiveScheduler};
use crate::proactive::{ProactiveCriterion, ProactiveScheduler};
use crate::random::RandomScheduler;
use dg_analysis::EvalCache;
use dg_sim::Scheduler;
use serde::{Deserialize, Serialize};

/// A parsed heuristic identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeuristicSpec {
    /// The RANDOM baseline.
    Random,
    /// A passive heuristic (IP, IE, IY, IAY).
    Passive(PassiveKind),
    /// A proactive heuristic C-H.
    Proactive(ProactiveCriterion, PassiveKind),
}

impl HeuristicSpec {
    /// All 17 heuristics evaluated in the paper, in the order
    /// RANDOM, the 4 passive heuristics, then the 12 proactive combinations.
    pub fn all() -> Vec<HeuristicSpec> {
        let mut specs = vec![HeuristicSpec::Random];
        for kind in PassiveKind::ALL {
            specs.push(HeuristicSpec::Passive(kind));
        }
        for criterion in ProactiveCriterion::ALL {
            for kind in PassiveKind::ALL {
                specs.push(HeuristicSpec::Proactive(criterion, kind));
            }
        }
        specs
    }

    /// The paper's name for the heuristic (`"RANDOM"`, `"IE"`, `"Y-IE"`, …).
    pub fn name(&self) -> String {
        match self {
            HeuristicSpec::Random => "RANDOM".to_string(),
            HeuristicSpec::Passive(k) => k.paper_name().to_string(),
            HeuristicSpec::Proactive(c, k) => format!("{}-{}", c.paper_letter(), k.paper_name()),
        }
    }

    /// Parse a paper-style name.
    pub fn parse(name: &str) -> Result<HeuristicSpec, String> {
        let upper = name.trim().to_ascii_uppercase();
        if upper == "RANDOM" {
            return Ok(HeuristicSpec::Random);
        }
        if let Some((criterion, base)) = upper.split_once('-') {
            let c: ProactiveCriterion = criterion.parse()?;
            let k: PassiveKind = base.parse()?;
            return Ok(HeuristicSpec::Proactive(c, k));
        }
        let k: PassiveKind = upper.parse()?;
        Ok(HeuristicSpec::Passive(k))
    }

    /// `true` for the proactive heuristics.
    pub fn is_proactive(&self) -> bool {
        matches!(self, HeuristicSpec::Proactive(_, _))
    }

    /// Instantiate the scheduler evaluating through the (possibly shared)
    /// `cache`, so every heuristic built from clones of one handle memoizes
    /// the Section V group quantities into the same scenario-scoped tables.
    /// `seed` is only used by RANDOM (which needs no estimates); the series
    /// precision is the one the cache's tables were built with.
    pub fn build_with_cache(&self, seed: u64, cache: &EvalCache) -> Box<dyn Scheduler> {
        let context = || SchedulingContext::new(cache.clone());
        match *self {
            HeuristicSpec::Random => Box::new(RandomScheduler::new(seed)),
            HeuristicSpec::Passive(k) => Box::new(PassiveScheduler::with_context(k, context())),
            HeuristicSpec::Proactive(c, k) => {
                Box::new(ProactiveScheduler::with_context(c, k, context()))
            }
        }
    }
}

/// Names of all 17 heuristics, in registry order.
pub fn all_heuristic_names() -> Vec<String> {
    HeuristicSpec::all().iter().map(|s| s.name()).collect()
}

/// Parse a paper-style heuristic name with a user-facing error: unknown names
/// fail with the full list of valid registry names. This is the entry point
/// for surfaces where names are typed by hand (the `--heuristics` flag, the
/// scheduling service's request protocol) rather than round-tripped from
/// [`HeuristicSpec::name`].
pub fn parse_heuristic_named(name: &str) -> Result<HeuristicSpec, String> {
    HeuristicSpec::parse(name).map_err(|_| {
        format!(
            "unknown heuristic '{}'; valid names: {}",
            name.trim(),
            all_heuristic_names().join(", ")
        )
    })
}

/// Build a heuristic from its paper name, evaluating through the (possibly
/// shared) `cache` — see [`HeuristicSpec::build_with_cache`].
pub fn build_heuristic_with_cache(
    name: &str,
    seed: u64,
    cache: &EvalCache,
) -> Result<Box<dyn Scheduler>, String> {
    Ok(HeuristicSpec::parse(name)?.build_with_cache(seed, cache))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache over a small paper-style scenario.
    fn cache() -> EvalCache {
        let scenario =
            dg_platform::Scenario::generate(dg_platform::ScenarioParams::paper(4, 8, 1), 5);
        EvalCache::new(&scenario.platform, &scenario.master, 1e-7)
    }

    #[test]
    fn there_are_seventeen_heuristics() {
        let all = HeuristicSpec::all();
        assert_eq!(all.len(), 17);
        let names = all_heuristic_names();
        assert_eq!(names.len(), 17);
        // No duplicates.
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 17);
        // The paper's headline heuristics are present.
        for expected in ["RANDOM", "IE", "IAY", "Y-IE", "P-IE", "E-IAY", "E-IY", "P-IP"] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn parse_round_trips() {
        for spec in HeuristicSpec::all() {
            let name = spec.name();
            let parsed = HeuristicSpec::parse(&name).unwrap();
            assert_eq!(parsed, spec);
        }
        assert!(HeuristicSpec::parse("bogus").is_err());
        assert!(HeuristicSpec::parse("Z-IE").is_err());
        assert!(HeuristicSpec::parse("Y-XX").is_err());
        // Case-insensitive.
        assert_eq!(HeuristicSpec::parse("y-ie").unwrap(), HeuristicSpec::parse("Y-IE").unwrap());
    }

    #[test]
    fn parse_heuristic_named_lists_the_registry_on_unknown_names() {
        for spec in HeuristicSpec::all() {
            assert_eq!(parse_heuristic_named(&spec.name()).unwrap(), spec);
        }
        assert_eq!(parse_heuristic_named(" y-ie ").unwrap(), HeuristicSpec::parse("Y-IE").unwrap());
        let err = parse_heuristic_named("WARP").unwrap_err();
        assert!(err.contains("unknown heuristic 'WARP'"), "{err}");
        for name in all_heuristic_names() {
            assert!(err.contains(&name), "error must list valid name {name}: {err}");
        }
    }

    #[test]
    fn build_produces_matching_names() {
        let cache = cache();
        for spec in HeuristicSpec::all() {
            let sched = spec.build_with_cache(42, &cache);
            assert_eq!(sched.name(), spec.name());
        }
        let byname = build_heuristic_with_cache("Y-IE", 0, &cache).unwrap();
        assert_eq!(byname.name(), "Y-IE");
        assert!(build_heuristic_with_cache("nope", 0, &cache).is_err());
    }

    #[test]
    fn build_with_cache_shares_one_memo_table_across_heuristics() {
        use dg_availability::ProcState;
        use dg_sim::view::{SimView, WorkerView};
        use dg_sim::worker_state::WorkerDynamicState;

        let scenario =
            dg_platform::Scenario::generate(dg_platform::ScenarioParams::paper(4, 8, 1), 5);
        let cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-7);
        let workers: Vec<WorkerView> = (0..scenario.platform.num_workers())
            .map(|_| WorkerView { state: ProcState::Up, dynamic: WorkerDynamicState::fresh() })
            .collect();
        let view = SimView {
            time: 0,
            iteration: 0,
            completed_iterations: 0,
            iteration_started_at: 0,
            workers: &workers,
            platform: &scenario.platform,
            application: &scenario.application,
            master: &scenario.master,
            current: None,
        };
        // Drive one decision per heuristic; after the first cache-scored
        // heuristic has populated the cache, identical siblings add no misses.
        let mut sched = build_heuristic_with_cache("IE", 1, &cache).unwrap();
        let _ = sched.decide(&view);
        let misses_after_first = cache.stats().group_misses;
        assert!(misses_after_first > 0, "IE must have populated the shared cache");
        let mut again = build_heuristic_with_cache("IE", 2, &cache).unwrap();
        let _ = again.decide(&view);
        assert_eq!(cache.stats().group_misses, misses_after_first);
        // Names survive the cache-accepting constructor for every spec.
        for spec in HeuristicSpec::all() {
            let sched = spec.build_with_cache(42, &cache);
            assert_eq!(sched.name(), spec.name());
        }
    }

    #[test]
    fn reevaluation_contract_matches_time_dependence() {
        use dg_sim::Reevaluation;
        let cache = cache();
        for spec in HeuristicSpec::all() {
            let sched = spec.build_with_cache(1, &cache);
            let reeval = sched.reevaluation();
            let name = spec.name();
            // No heuristic starts configurations based on the clock alone.
            assert!(!reeval.while_idle, "{name} should not re-evaluate while idle");
            // Exactly the proactive heuristics watch workers outside the
            // installed configuration and observe transfer progress through
            // the holdings their candidates are built on.
            assert_eq!(reeval.on_outside_transitions, spec.is_proactive(), "{name}");
            assert_eq!(reeval.during_transfer, spec.is_proactive(), "{name}");
            if name.ends_with("-IY") {
                // The IY building block drifts with time: every active span
                // needs per-slot re-evaluation.
                assert!(reeval.during_computation, "{name}");
                assert!(reeval.during_stall, "{name}");
            } else if name.starts_with("Y-") {
                // Yield criterion over a time-free base: only stalls.
                assert!(!reeval.during_computation, "{name}");
                assert!(reeval.during_stall, "{name}");
            } else if spec.is_proactive() {
                // P-* / E-* over time-free bases: decision points are world
                // changes only.
                assert!(!reeval.during_computation, "{name}");
                assert!(!reeval.during_stall, "{name}");
            } else {
                assert_eq!(reeval, Reevaluation::never(), "{name}");
            }
        }
    }

    #[test]
    fn proactive_flag() {
        assert!(HeuristicSpec::parse("Y-IE").unwrap().is_proactive());
        assert!(!HeuristicSpec::parse("IE").unwrap().is_proactive());
        assert!(!HeuristicSpec::Random.is_proactive());
        assert_eq!(HeuristicSpec::all().iter().filter(|s| s.is_proactive()).count(), 12);
    }
}
