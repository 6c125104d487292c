//! # dg-experiments
//!
//! The experiment-campaign harness reproducing the evaluation of Section VII
//! of *"Scheduling Tightly-Coupled Applications on Heterogeneous Desktop
//! Grids"* (Casanova, Dufossé, Robert, Vivien — HCW/IPDPS 2013):
//!
//! * [`campaign`] — describes the full factorial campaign over the experiment
//!   space `(m, ncom, wmin)`, with a configurable number of scenarios and
//!   trials per point, across all 17 heuristics;
//! * [`executor`] — the campaign executor, a client of the crate's sweep
//!   kernel (shared with [`gap`] and [`sensitivity`]): deterministic
//!   slot-indexed fan-out over worker threads, one shared availability
//!   realization per trial ([`dg_availability::RealizedTrial`]), streaming
//!   aggregation and an optional resumable artifact store;
//! * [`store`] — the on-disk store behind `--out`/`--resume`: a manifest plus
//!   one JSONL shard per experiment point, written as points complete;
//! * [`distrib`] — multi-process sharded execution on top of the store: the
//!   `--worker-shard I/N` / `--spawn-workers N` coordinator/worker protocol
//!   with a byte-identical merge of part manifests into `manifest.json`;
//! * [`stream`] — streaming reduction of results into table/figure summaries
//!   in O(points × heuristics) memory;
//! * [`runner`] — runs a single `(scenario, trial, heuristic)` instance through
//!   the `dg-sim` engine, the one instance runner of every sweep;
//! * [`cli`] — the flags every binary shares and the launch sequence of the
//!   six sweep binaries ([`cli::launch`]);
//! * [`metrics`] — computes the paper's comparison metrics against the
//!   reference heuristic IE: `%diff`, `%wins`, `%wins30`, `stdv` and `#fails`;
//! * [`tables`] — renders Table I (m = 5) and Table II (m = 10);
//! * [`figures`] — produces the `%diff` vs `wmin` series of Figure 2;
//! * [`gap`] — the optimality-gap layer: projects realized trials onto the
//!   paper's offline assumptions and reports per-heuristic `online / offline`
//!   makespan ratios against the `dg-offline` oracles;
//! * [`sensitivity`] — the model-mismatch extension: the same heuristics run on
//!   semi-Markov (Weibull / log-normal) availability traces;
//! * [`service`] — the warm-cache scheduler daemon behind the `serve` binary:
//!   one platform/suite loaded once, scheduling-decision requests answered
//!   over a JSONL protocol (stdin/stdout or TCP), with an online mode that
//!   ingests live availability transitions and re-schedules per the
//!   [`dg_sim::Reevaluation`] contract;
//! * [`suite`] — named scenario suites over the generator axes of
//!   [`dg_platform::generator`]: the `paper`, `volatile`, `largegrid` and
//!   `commbound` presets, a hand-rolled text format for custom suites and
//!   the `--suite NAME|FILE` resolution used by every binary.
//!
//! The binaries `table1`, `table2`, `figure2`, `sensitivity`, `report` and `gap`
//! print the corresponding paper artifacts, and `serve` runs the scheduling
//! service; their `--scenarios/--trials/--cap`
//! flags select the campaign scale (the paper's full scale is 10 scenarios ×
//! 10 trials per point with a 10⁶-slot cap) and `--engine slot|event` selects
//! the simulation engine (see `docs/ARCHITECTURE.md` at the repository root;
//! both engines produce identical results).
//!
//! ```
//! use dg_experiments::campaign::{run_campaign, CampaignConfig};
//!
//! // A minimal smoke campaign: 1 scenario x 1 trial x 2 heuristics on the
//! // default event-driven engine. Campaigns are deterministic in their seed.
//! let config = CampaignConfig::smoke();
//! let results = run_campaign(&config, |_done, _total| {});
//! assert_eq!(results.results.len(), config.total_runs());
//! assert_eq!(results.heuristic_names(), vec!["IE".to_string(), "RANDOM".to_string()]);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod distrib;
pub mod executor;
pub mod figures;
pub mod gap;
mod json;
pub mod metrics;
pub mod runner;
pub mod sensitivity;
pub mod service;
pub mod store;
pub mod stream;
pub mod suite;
mod sweep;
pub mod tables;

pub use campaign::{CampaignConfig, CampaignResults, InstanceResult};
pub use distrib::{
    merge_parts, run_distributed, shard_range, DistribOutcome, MergeReport, WorkerShard,
};
pub use executor::{
    resolve_threads, run_campaign_with, CampaignOutcome, ExecutorOptions, ExecutorStats,
};
pub use gap::{render_gap_table, run_gap_with, GapAggregate, GapOutcome, GapRecord, EXACT_M_MAX};
pub use metrics::{HeuristicSummary, ReferenceComparison};
pub use runner::{run_instance, run_instance_on, scheduler_seed, InstanceSpec};
pub use service::{
    DecideReply, DecideRequest, Request, ScheduleService, ServeOptions, ServeSummary, ServiceCore,
};
pub use stream::CampaignAccumulator;
pub use suite::SuiteSpec;
pub use tables::render_table;
