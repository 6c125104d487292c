//! Earliest-finish searches, and the makespan oracles that chain them.
//!
//! [`earliest_finish_exact`] (exponential-time subset search with
//! earliest-finish pruning, practical at the paper's `m ≤ 10`) and
//! [`earliest_finish_greedy`] (a polynomial greedy chain) find the
//! earliest-finishing single iteration that starts no earlier than a given
//! slot. From slot 0 they answer the paper's *decision* question ("can one
//! iteration run at all?"): the exact search finds a witness whenever one
//! exists, the greedy chain may miss it. The gap experiment needs the
//! *optimization* form: the earliest time-slot by which `n` iterations of the
//! application can complete when availability is known in advance, which
//! [`schedule_exact`] and [`schedule_greedy`] build from the two searches.
//!
//! Iterations of a tightly-coupled application are sequential: iteration
//! `i + 1` can only use time-slots strictly after the slot in which iteration
//! `i` finished. Because feasibility from a start slot `t` is monotone (every
//! schedule that starts at `t' ≥ t` is also available at `t`), repeatedly
//! taking the earliest-finishing single iteration is optimal — so the exact
//! chained makespan is a true lower bound on *any* execution of the instance,
//! online or offline. The greedy oracle returns a feasible (witnessed)
//! schedule instead, i.e. an upper bound on the offline optimum.
//!
//! ```
//! use dg_offline::{schedule_exact, schedule_greedy, OfflineInstance, OracleVariant};
//!
//! // Two processors sharing UP slots 0..6; m = 2 tasks of w = 1.
//! let inst = OfflineInstance::new(vec![vec![true; 6]; 2], 1, 2);
//! let exact = schedule_exact(&inst, 3, OracleVariant::MuUnbounded).unwrap();
//! assert_eq!(exact.makespan, 3); // one slot per iteration, chained
//! let greedy = schedule_greedy(&inst, 3, OracleVariant::MuUnbounded).unwrap();
//! assert!(greedy.makespan >= exact.makespan);
//! ```

use crate::problem::{OfflineInstance, OfflineSolution};

/// Which OFF-LINE-COUPLED variant an oracle solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleVariant {
    /// `µ = 1`: exactly `m` processors, `w` common `UP` slots per iteration.
    Mu1,
    /// `µ = ∞`: any `k ≤ m` processors, `⌈m/k⌉·w` common `UP` slots.
    MuUnbounded,
}

impl OracleVariant {
    /// Whether this variant admits an iteration of `m` tasks on `k`
    /// processors: exactly `m` of them for `µ = 1`, any `1 ≤ k ≤ m` for
    /// `µ = ∞`.
    pub(crate) fn admits(self, k: usize, m: usize) -> bool {
        match self {
            OracleVariant::Mu1 => k == m,
            OracleVariant::MuUnbounded => (1..=m).contains(&k),
        }
    }
}

/// A full offline schedule: one witness per iteration plus the achieved
/// makespan (1 + the last slot used).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfflineSchedule {
    /// Per-iteration witnesses, in execution order. Each iteration's slots
    /// lie strictly after the previous iteration's last slot.
    pub iterations: Vec<OfflineSolution>,
    /// Achieved makespan in time-slots: `1 +` the last slot used.
    pub makespan: u64,
}

impl OfflineSchedule {
    /// Makespan after the first `count` iterations (1-based; `count` must not
    /// exceed the number of scheduled iterations).
    ///
    /// # Panics
    /// Panics if `count` is zero or larger than the schedule.
    pub fn makespan_after(&self, count: u64) -> u64 {
        assert!(count >= 1, "makespan_after needs at least one iteration");
        self.iterations[count as usize - 1].finish_time()
    }

    /// Check the whole schedule against `instance`: every witness valid under
    /// `variant`, and iterations strictly ordered in time.
    pub fn is_valid(&self, instance: &OfflineInstance, variant: OracleVariant) -> bool {
        let mut next_free = 0usize;
        for sol in &self.iterations {
            let Some(&first) = sol.slots.first() else { return false };
            let Some(&last) = sol.slots.last() else { return false };
            if !sol.is_valid(instance, variant) || first < next_free {
                return false;
            }
            next_free = last + 1;
        }
        self.makespan == next_free as u64
    }
}

/// Earliest-finishing witness of a single iteration starting no earlier than
/// slot `from`, by exhaustive subset search (exact; exponential in the worst
/// case). Returns `None` when no iteration fits in the remaining horizon.
///
/// The search is seeded with the greedy witness and prunes every branch whose
/// common-slot list can no longer beat the best finish found so far (adding a
/// processor only removes common slots, so the `needed`-th common slot can
/// only move later down a branch).
pub fn earliest_finish_exact(
    instance: &OfflineInstance,
    from: usize,
    variant: OracleVariant,
) -> Option<OfflineSolution> {
    let horizon = instance.horizon();
    if from >= horizon {
        return None;
    }
    // Greedy seed: any feasible witness bounds the DFS from above.
    let mut best: Option<(usize, OfflineSolution)> =
        earliest_finish_greedy(instance, from, variant)
            .map(|sol| (*sol.slots.last().expect("witnesses are never empty"), sol));
    let all_slots: Vec<usize> = (from..horizon).collect();
    // Every admitted enrollment size, largest first.
    for k in (1..=instance.num_procs()).rev().filter(|&k| variant.admits(k, instance.m)) {
        let needed = instance.required_slots_for(k) as usize;
        let mut chosen = Vec::with_capacity(k);
        min_finish_fixed_size(instance, 0, &mut chosen, &all_slots, k, needed, &mut best);
    }
    best.map(|(_, sol)| sol)
}

/// Depth-first search over processor subsets of exactly `target` processors,
/// minimizing the `needed`-th common `UP` slot (the iteration's finish).
fn min_finish_fixed_size(
    instance: &OfflineInstance,
    start: usize,
    chosen: &mut Vec<usize>,
    common: &[usize],
    target: usize,
    needed: usize,
    best: &mut Option<(usize, OfflineSolution)>,
) {
    if common.len() < needed {
        return;
    }
    // Any completion of this branch finishes at or after the current
    // `needed`-th common slot; prune when that can no longer improve.
    let finish_here = common[needed - 1];
    if best.as_ref().is_some_and(|(bf, _)| finish_here >= *bf) {
        return;
    }
    if chosen.len() == target {
        let sol = OfflineSolution { processors: chosen.clone(), slots: common[..needed].to_vec() };
        *best = Some((finish_here, sol));
        return;
    }
    let p = instance.num_procs();
    if p - start < target - chosen.len() {
        return;
    }
    for q in start..p {
        // Only slots strictly before the incumbent finish can appear in an
        // improving witness, so truncate while narrowing — on projected
        // instances with long horizons this is what keeps the search fast.
        let cutoff = best.as_ref().map_or(usize::MAX, |(bf, _)| *bf);
        let narrowed: Vec<usize> = common
            .iter()
            .copied()
            .take_while(|&t| t < cutoff)
            .filter(|&t| instance.is_up(q, t))
            .collect();
        if narrowed.len() < needed {
            continue;
        }
        chosen.push(q);
        min_finish_fixed_size(instance, q + 1, chosen, &narrowed, target, needed, best);
        chosen.pop();
    }
}

/// Earliest-finishing witness of a single iteration starting no earlier than
/// slot `from`, built greedily (polynomial; sound but may miss the optimum or
/// even a feasible witness the exact search would find).
///
/// The greedy chain repeatedly adds the processor that keeps the most common
/// `UP` slots at or after `from` (ties toward the lower index); every
/// admissible prefix size is then scored by its finish slot and the earliest
/// one wins.
pub fn earliest_finish_greedy(
    instance: &OfflineInstance,
    from: usize,
    variant: OracleVariant,
) -> Option<OfflineSolution> {
    let horizon = instance.horizon();
    if from >= horizon {
        return None;
    }
    let p = instance.num_procs();
    let mut chosen: Vec<usize> = Vec::new();
    let mut common: Vec<usize> = (from..horizon).collect();
    let mut best: Option<(usize, OfflineSolution)> = None;
    for _ in 0..p {
        let mut pick: Option<(usize, Vec<usize>)> = None;
        for q in 0..p {
            if chosen.contains(&q) {
                continue;
            }
            let narrowed: Vec<usize> =
                common.iter().copied().filter(|&t| instance.is_up(q, t)).collect();
            if pick.as_ref().is_none_or(|(_, slots)| narrowed.len() > slots.len()) {
                pick = Some((q, narrowed));
            }
        }
        let (q, narrowed) = pick.expect("there is always an unchosen processor");
        chosen.push(q);
        common = narrowed;
        let k = chosen.len();
        if !variant.admits(k, instance.m) {
            continue;
        }
        let needed = instance.required_slots_for(k) as usize;
        if common.len() < needed {
            continue;
        }
        let finish = common[needed - 1];
        if best.as_ref().is_none_or(|(bf, _)| finish < *bf) {
            let mut processors = chosen.clone();
            processors.sort_unstable();
            best = Some((finish, OfflineSolution { processors, slots: common[..needed].to_vec() }));
        }
    }
    best.map(|(_, sol)| sol)
}

/// Exact chained oracle: the provably minimal makespan of `iterations`
/// sequential iterations, with one earliest-finish witness per iteration.
/// Returns `None` when the instance cannot fit that many iterations in its
/// horizon.
pub fn schedule_exact(
    instance: &OfflineInstance,
    iterations: u64,
    variant: OracleVariant,
) -> Option<OfflineSchedule> {
    chain(instance, iterations, |inst, from| earliest_finish_exact(inst, from, variant))
}

/// Greedy chained oracle: a feasible (witnessed) schedule of `iterations`
/// sequential iterations — an upper bound on the offline optimum, usable as a
/// cheap reference when the exact search is too expensive (large `m`).
pub fn schedule_greedy(
    instance: &OfflineInstance,
    iterations: u64,
    variant: OracleVariant,
) -> Option<OfflineSchedule> {
    chain(instance, iterations, |inst, from| earliest_finish_greedy(inst, from, variant))
}

fn chain(
    instance: &OfflineInstance,
    iterations: u64,
    step: impl Fn(&OfflineInstance, usize) -> Option<OfflineSolution>,
) -> Option<OfflineSchedule> {
    assert!(iterations > 0, "a schedule needs at least one iteration");
    let mut from = 0usize;
    let mut sols = Vec::with_capacity(iterations as usize);
    for _ in 0..iterations {
        let sol = step(instance, from)?;
        from = sol.finish_time() as usize;
        sols.push(sol);
    }
    Some(OfflineSchedule { iterations: sols, makespan: from as u64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_availability::rng::rng_from_seed;
    use rand::Rng;

    fn matrix(rows: &[&str]) -> Vec<Vec<bool>> {
        rows.iter().map(|r| r.chars().map(|c| c == '1').collect()).collect()
    }

    /// Brute-force minimal finish: enumerate every subset, every admissible
    /// size, and take the smallest `needed`-th common slot at or after `from`.
    fn brute_force_finish(
        instance: &OfflineInstance,
        from: usize,
        variant: OracleVariant,
    ) -> Option<usize> {
        let p = instance.num_procs();
        let mut best: Option<usize> = None;
        for mask in 1u32..(1 << p) {
            let procs: Vec<usize> = (0..p).filter(|&q| mask & (1 << q) != 0).collect();
            let k = procs.len();
            let admissible = match variant {
                OracleVariant::Mu1 => k == instance.m,
                OracleVariant::MuUnbounded => k <= instance.m,
            };
            if !admissible {
                continue;
            }
            let needed = instance.required_slots_for(k) as usize;
            let slots: Vec<usize> = (from..instance.horizon())
                .filter(|&t| procs.iter().all(|&q| instance.is_up(q, t)))
                .collect();
            if slots.len() >= needed {
                let finish = slots[needed - 1];
                if best.is_none_or(|b| finish < b) {
                    best = Some(finish);
                }
            }
        }
        best
    }

    #[test]
    fn exact_matches_brute_force_on_random_tiny_instances() {
        let mut rng = rng_from_seed(99);
        for case in 0..300 {
            let p = rng.gen_range(1..7); // m ≤ 6
            let n = rng.gen_range(2..9); // T ≤ 8
            let density: f64 = rng.gen_range(0.2..0.95);
            let up: Vec<Vec<bool>> =
                (0..p).map(|_| (0..n).map(|_| rng.gen_bool(density)).collect()).collect();
            let w = rng.gen_range(1..4);
            let m = rng.gen_range(1..=p);
            let inst = OfflineInstance::new(up, w, m);
            let from = rng.gen_range(0..n);
            for variant in [OracleVariant::Mu1, OracleVariant::MuUnbounded] {
                let brute = brute_force_finish(&inst, from, variant);
                let exact = earliest_finish_exact(&inst, from, variant);
                assert_eq!(
                    exact.as_ref().map(|s| *s.slots.last().unwrap()),
                    brute,
                    "case {case} ({variant:?}, from {from}): exact finish != brute force\n{inst:?}"
                );
                let greedy = earliest_finish_greedy(&inst, from, variant);
                for sol in exact.iter().chain(&greedy) {
                    assert!(sol.is_valid(&inst, variant), "case {case}: invalid witness {sol:?}");
                    assert!(*sol.slots.first().unwrap() >= from);
                }
                if let Some(sol) = greedy {
                    // Greedy is sound and never beats exact.
                    assert!(*sol.slots.last().unwrap() >= brute.unwrap());
                }
            }
        }
    }

    #[test]
    fn greedy_schedule_never_beats_exact_schedule() {
        let mut rng = rng_from_seed(4242);
        for _ in 0..120 {
            let p = rng.gen_range(2..6);
            let n = rng.gen_range(6..24);
            let density: f64 = rng.gen_range(0.4..0.95);
            let up: Vec<Vec<bool>> =
                (0..p).map(|_| (0..n).map(|_| rng.gen_bool(density)).collect()).collect();
            let inst = OfflineInstance::new(up, rng.gen_range(1..3), rng.gen_range(1..=p));
            for variant in [OracleVariant::Mu1, OracleVariant::MuUnbounded] {
                for count in 1..=3u64 {
                    let exact = schedule_exact(&inst, count, variant);
                    let greedy = schedule_greedy(&inst, count, variant);
                    if let Some(g) = &greedy {
                        let e = exact.as_ref().expect("greedy feasible ⇒ exact feasible");
                        assert!(g.is_valid(&inst, variant), "invalid greedy schedule {g:?}");
                        assert!(
                            g.makespan >= e.makespan,
                            "greedy ({}) beat exact ({}) on {inst:?}",
                            g.makespan,
                            e.makespan
                        );
                    }
                    if let Some(e) = &exact {
                        assert!(e.is_valid(&inst, variant), "invalid exact schedule {e:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn searches_from_slot_zero_answer_the_decision_question() {
        use OracleVariant::{Mu1, MuUnbounded};
        let instance = |rows: &[&str], w, m| OfflineInstance::new(matrix(rows), w, m);
        // Processors 0 and 2 share slots 0, 2 and 3.
        let inst = instance(&["1011", "0110", "1011"], 3, 2);
        let sol = earliest_finish_exact(&inst, 0, Mu1).expect("a pair shares 3 slots");
        assert_eq!(sol.processors, vec![0, 2]);
        assert!(sol.is_valid(&inst, Mu1));
        // No pair shares 3 UP slots, but a pair shares one.
        let staircase = ["1100", "0110", "0011"];
        assert!(earliest_finish_exact(&instance(&staircase, 3, 2), 0, Mu1).is_none());
        assert!(earliest_finish_exact(&instance(&staircase, 1, 2), 0, Mu1).is_some());
        // µ=∞ trades processors for time: processor 0 alone runs m = 3 tasks
        // of w = 2 in 6 slots, where µ=1 would need 3 processors.
        let inst = instance(&["111111", "100000", "100000"], 2, 3);
        assert!(earliest_finish_exact(&inst, 0, Mu1).is_none());
        let sol = earliest_finish_exact(&inst, 0, MuUnbounded).expect("processor 0 alone");
        assert!(sol.is_valid(&inst, MuUnbounded));
        // m = 2, w = 3: one processor would need 6 slots (each has 3), two
        // would need 3 common slots (they share none).
        let split = instance(&["111000", "000111"], 3, 2);
        assert!(earliest_finish_exact(&split, 0, MuUnbounded).is_none());
        // The greedy chain finds the obvious pair, and a lone strong processor.
        let inst = instance(&["111100", "111110", "000011"], 4, 2);
        let sol = earliest_finish_greedy(&inst, 0, Mu1).expect("the obvious pair");
        assert_eq!(sol.processors, vec![0, 1]);
        assert!(sol.is_valid(&inst, Mu1));
        let inst = instance(&["111111", "101000", "010100"], 2, 3);
        let sol = earliest_finish_greedy(&inst, 0, MuUnbounded).expect("the always-up processor");
        assert!(sol.is_valid(&inst, MuUnbounded));
    }

    #[test]
    fn chained_iterations_use_disjoint_increasing_windows() {
        let inst = OfflineInstance::new(matrix(&["110111011", "111110111"]), 2, 2);
        let sched = schedule_exact(&inst, 3, OracleVariant::MuUnbounded).expect("fits");
        assert!(sched.is_valid(&inst, OracleVariant::MuUnbounded));
        assert_eq!(sched.iterations.len(), 3);
        for pair in sched.iterations.windows(2) {
            assert!(pair[1].slots.first().unwrap() > pair[0].slots.last().unwrap());
        }
        assert_eq!(sched.makespan, sched.makespan_after(3));
        assert!(sched.makespan_after(1) < sched.makespan_after(2));
    }

    #[test]
    fn infeasible_chains_return_none() {
        // Slots need not be adjacent: {0,1} then {3,4} hosts two iterations.
        let inst = OfflineInstance::new(matrix(&["110110"]), 2, 1);
        let two = schedule_exact(&inst, 2, OracleVariant::MuUnbounded).expect("fits");
        assert_eq!(two.makespan, 5);
        assert!(schedule_exact(&inst, 3, OracleVariant::MuUnbounded).is_none());
        let inst = OfflineInstance::new(matrix(&["111100"]), 2, 1);
        assert!(schedule_exact(&inst, 2, OracleVariant::MuUnbounded).is_some());
        assert!(schedule_exact(&inst, 3, OracleVariant::MuUnbounded).is_none());
        // µ=1 with m > p is infeasible outright.
        let inst = OfflineInstance::new(matrix(&["1111"]), 1, 2);
        assert!(earliest_finish_exact(&inst, 0, OracleVariant::Mu1).is_none());
        assert!(earliest_finish_greedy(&inst, 0, OracleVariant::Mu1).is_none());
    }

    #[test]
    fn exact_escapes_greedy_traps() {
        // Processor 0 has the most UP slots but shares few with the others;
        // the greedy chain picks it first and finishes late (or not at all),
        // while the exact search finds the pair finishing at slot 8.
        let inst = OfflineInstance::new(matrix(&["1111110000", "0000111110", "0000111110"]), 5, 2);
        let exact = earliest_finish_exact(&inst, 0, OracleVariant::Mu1).expect("pair exists");
        assert_eq!(exact.processors, vec![1, 2]);
        assert_eq!(*exact.slots.last().unwrap(), 8);
        if let Some(greedy) = earliest_finish_greedy(&inst, 0, OracleVariant::Mu1) {
            assert!(*greedy.slots.last().unwrap() >= 8);
        }
    }

    #[test]
    fn mu_unbounded_finish_is_never_later_than_mu1() {
        // µ=∞ admits every µ=1 witness, so its earliest finish can only be
        // earlier or equal.
        let mut rng = rng_from_seed(7);
        for _ in 0..100 {
            let p = rng.gen_range(2..6);
            let n = rng.gen_range(4..10);
            let up: Vec<Vec<bool>> =
                (0..p).map(|_| (0..n).map(|_| rng.gen_bool(0.7)).collect()).collect();
            let inst = OfflineInstance::new(up, rng.gen_range(1..3), rng.gen_range(1..=p));
            let mu1 = earliest_finish_exact(&inst, 0, OracleVariant::Mu1);
            let inf = earliest_finish_exact(&inst, 0, OracleVariant::MuUnbounded);
            if let Some(mu1) = mu1 {
                let inf = inf.expect("µ=∞ relaxes µ=1");
                assert!(inf.slots.last().unwrap() <= mu1.slots.last().unwrap());
            }
        }
    }
}
