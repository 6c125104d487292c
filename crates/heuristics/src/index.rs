//! Sorted worker index for massive platforms.
//!
//! The incremental heuristics of Section VI-A place each of the `m` tasks by
//! probing candidate workers; the reference implementation probes every `UP`
//! worker, which costs `O(m_tasks · p)` evaluations per decision and is the
//! dominant cost at `p = 10⁴–10⁵` workers. This module replaces the rescan
//! with an index built once per decision from the [`SimView`].
//!
//! The key observation is that the greedy score of placing the next task on
//! an *unoccupied* worker depends on the worker only through its static spec
//! (speed, capacity, availability chain) and what it already holds (program,
//! data messages, in-flight progress). Two unoccupied workers identical in
//! all of those are interchangeable, and the exhaustive scan — which probes
//! workers in ascending index order and keeps the first maximizer under a
//! strict `>` comparison — always settles on the lowest-indexed one. The
//! index therefore groups `UP` workers into *equivalence classes* on exactly
//! those attributes and probes, per greedy round, only
//!
//! * the lowest-indexed unoccupied worker of each class (its representative),
//!   and
//! * every occupied worker (their counts differ, so each is its own case).
//!
//! That shrinks the probe set from `p` to `O(classes + occupied)`. Class
//! representatives are maintained with a per-class cursor that only moves
//! forward: a worker enters the occupied set and never leaves it during one
//! greedy construction, so a representative consumed by the candidate is
//! skipped in all later rounds without rescanning the class.
//!
//! Desktop-grid platforms have few distinct worker profiles relative to their
//! size (the `massive` suite preset models this with clustered speeds and
//! pooled availability classes), so `classes ≪ p` in the regimes this layer
//! targets; with pathological fully-heterogeneous platforms the index
//! gracefully degrades to the exhaustive scan cost.
//!
//! Whether the index is used at all is decided by [`ScanStrategy`] (per
//! context, defaulting to a platform-size threshold); forcing
//! [`ScanStrategy::Exhaustive`] pins a decision to the reference scan for
//! equivalence runs.

use std::collections::HashMap;

use dg_sim::view::SimView;

/// Platform size (in workers) at which [`ScanStrategy::Auto`] switches from
/// the exhaustive reference scan to the indexed scan.
///
/// The paper's experimental platforms (Section VII; 20–200 workers) stay far
/// below this, so auto-strategy campaigns reproduce the published corpus
/// byte for byte; the indexed path engages only at scales the reference scan
/// cannot reach.
pub const INDEX_THRESHOLD: usize = 512;

/// How [`crate::passive::build_incremental`] enumerates candidate workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanStrategy {
    /// Probe every `UP` worker below [`INDEX_THRESHOLD`] workers, the indexed
    /// scan at or above it.
    #[default]
    Auto,
    /// Always probe every `UP` worker (the reference scan).
    Exhaustive,
    /// Always build and probe the [`WorkerIndex`].
    Indexed,
}

/// Resolve a strategy against the platform size.
pub fn use_indexed_scan(strategy: ScanStrategy, num_workers: usize) -> bool {
    match strategy {
        ScanStrategy::Exhaustive => false,
        ScanStrategy::Indexed => true,
        ScanStrategy::Auto => num_workers >= INDEX_THRESHOLD,
    }
}

/// Everything the greedy placement score can observe about an unoccupied
/// worker. Floating-point chain entries are compared bitwise: workers drawn
/// from a pooled availability class share one chain exactly, while workers
/// that merely look similar stay in separate classes.
type ClassKey = (u64, Option<usize>, [u64; 9], bool, usize, u64);

/// One equivalence class of `UP` workers: ascending member indices plus the
/// cursor of its current representative.
#[derive(Debug)]
struct WorkerClass {
    members: Vec<usize>,
    cursor: usize,
}

/// Bucketed index over the `UP` workers of one decision, grouping
/// interchangeable workers so the greedy inner loop probes one representative
/// per class instead of every worker.
#[derive(Debug)]
pub struct WorkerIndex {
    classes: Vec<WorkerClass>,
    up_workers: usize,
}

impl WorkerIndex {
    /// Bucket the `UP` workers of `view` into equivalence classes. Costs one
    /// pass over the platform (`O(p)` hash inserts), paid once per decision.
    pub fn build(view: &SimView<'_>) -> Self {
        let mut ids: HashMap<ClassKey, usize> = HashMap::new();
        let mut classes: Vec<WorkerClass> = Vec::new();
        let mut up_workers = 0;
        // Ascending scan: class member lists come out sorted, so the cursor
        // always points at the lowest unoccupied member.
        for (q, w) in view.workers.iter().enumerate() {
            if !w.state.is_up() {
                continue;
            }
            up_workers += 1;
            let spec = view.platform.worker(q);
            let chain = view.platform.chain(q);
            let mut bits = [0u64; 9];
            let states = [
                dg_availability::ProcState::Up,
                dg_availability::ProcState::Reclaimed,
                dg_availability::ProcState::Down,
            ];
            for (i, &from) in states.iter().enumerate() {
                for (j, &to) in states.iter().enumerate() {
                    bits[i * 3 + j] = chain.prob(from, to).to_bits();
                }
            }
            let key: ClassKey = (
                spec.speed,
                spec.max_tasks,
                bits,
                w.dynamic.has_program,
                w.dynamic.data_messages,
                w.dynamic.partial_transfer,
            );
            let id = *ids.entry(key).or_insert_with(|| {
                classes.push(WorkerClass { members: Vec::new(), cursor: 0 });
                classes.len() - 1
            });
            classes[id].members.push(q);
        }
        WorkerIndex { classes, up_workers }
    }

    /// Number of `UP` workers the index covers.
    pub fn up_workers(&self) -> usize {
        self.up_workers
    }

    /// Number of equivalence classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Fill `out` with this round's candidate workers, ascending: every
    /// occupied worker plus the lowest unoccupied member of each class.
    ///
    /// `occupied` must be sorted ascending and must only have grown since the
    /// previous call on this index (the greedy construction guarantees both);
    /// that monotonicity is what lets each class cursor advance without ever
    /// rewinding.
    pub fn candidates_into(&mut self, occupied: &[usize], out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(occupied);
        for class in &mut self.classes {
            while class.cursor < class.members.len()
                && occupied.binary_search(&class.members[class.cursor]).is_ok()
            {
                class.cursor += 1;
            }
            if class.cursor < class.members.len() {
                out.push(class.members[class.cursor]);
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_availability::{MarkovChain3, ProcState};
    use dg_platform::{ApplicationSpec, MasterSpec, Platform, WorkerSpec};
    use dg_sim::view::WorkerView;
    use dg_sim::worker_state::WorkerDynamicState;

    struct Fixture {
        platform: Platform,
        application: ApplicationSpec,
        master: MasterSpec,
        workers: Vec<WorkerView>,
    }

    impl Fixture {
        fn view(&self) -> SimView<'_> {
            SimView {
                time: 0,
                iteration: 0,
                completed_iterations: 0,
                iteration_started_at: 0,
                workers: &self.workers,
                platform: &self.platform,
                application: &self.application,
                master: &self.master,
                current: None,
            }
        }
    }

    /// Six workers in two speed classes (1, 1, 2, 2, 1, 2), all reliable.
    fn two_speed_classes() -> Fixture {
        let speeds = [1, 1, 2, 2, 1, 2];
        Fixture {
            platform: Platform::new(
                speeds.iter().map(|&s| WorkerSpec::new(s)).collect(),
                vec![MarkovChain3::always_up(); 6],
            ),
            application: ApplicationSpec::new(3, 10),
            master: MasterSpec::from_slots(2, 2, 1),
            workers: vec![
                WorkerView { state: ProcState::Up, dynamic: WorkerDynamicState::fresh() };
                6
            ],
        }
    }

    #[test]
    fn buckets_by_speed_and_picks_lowest_representatives() {
        let f = two_speed_classes();
        let mut index = WorkerIndex::build(&f.view());
        assert_eq!(index.up_workers(), 6);
        assert_eq!(index.num_classes(), 2);
        let mut out = Vec::new();
        index.candidates_into(&[], &mut out);
        assert_eq!(out, vec![0, 2], "lowest member of each speed class");
    }

    #[test]
    fn cursors_skip_occupied_workers_monotonically() {
        let f = two_speed_classes();
        let mut index = WorkerIndex::build(&f.view());
        let mut out = Vec::new();
        // Round 2: worker 0 got a task. It stays a candidate (as occupied)
        // and its class representative moves to worker 1.
        index.candidates_into(&[0], &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        // Round 3: workers 0 and 2 occupied.
        index.candidates_into(&[0, 2], &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
        // Round 4: worker 1 also occupied; the slow class representative
        // jumps to its last fresh member.
        index.candidates_into(&[0, 1, 2], &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        // All slow workers occupied: the slow class runs out of fresh members.
        index.candidates_into(&[0, 1, 2, 4], &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn distinct_holdings_and_chains_split_classes() {
        let mut f = two_speed_classes();
        // Worker 1 (speed 1) already holds the program: no longer
        // interchangeable with workers 0 and 4.
        f.workers[1].dynamic.has_program = true;
        let mut index = WorkerIndex::build(&f.view());
        assert_eq!(index.num_classes(), 3);
        let mut out = Vec::new();
        index.candidates_into(&[], &mut out);
        assert_eq!(out, vec![0, 1, 2]);

        // A distinct chain splits even same-speed workers.
        let chains = vec![
            MarkovChain3::always_up(),
            MarkovChain3::from_self_loop_probs(0.9, 0.9, 0.9).unwrap(),
            MarkovChain3::always_up(),
            MarkovChain3::always_up(),
            MarkovChain3::always_up(),
            MarkovChain3::always_up(),
        ];
        let f2 = Fixture {
            platform: Platform::new(
                [1, 1, 2, 2, 1, 2].iter().map(|&s| WorkerSpec::new(s)).collect(),
                chains,
            ),
            ..two_speed_classes()
        };
        assert_eq!(WorkerIndex::build(&f2.view()).num_classes(), 3);
    }

    #[test]
    fn non_up_workers_are_excluded() {
        let mut f = two_speed_classes();
        f.workers[0].state = ProcState::Down;
        f.workers[2].state = ProcState::Reclaimed;
        let mut index = WorkerIndex::build(&f.view());
        assert_eq!(index.up_workers(), 4);
        let mut out = Vec::new();
        index.candidates_into(&[], &mut out);
        assert_eq!(out, vec![1, 3]);
    }

    #[test]
    fn strategy_resolution() {
        assert!(use_indexed_scan(ScanStrategy::Indexed, 2));
        assert!(!use_indexed_scan(ScanStrategy::Exhaustive, 1_000_000));
        assert!(!use_indexed_scan(ScanStrategy::Auto, INDEX_THRESHOLD - 1));
        assert!(use_indexed_scan(ScanStrategy::Auto, INDEX_THRESHOLD));
        assert_eq!(ScanStrategy::default(), ScanStrategy::Auto);
    }
}
