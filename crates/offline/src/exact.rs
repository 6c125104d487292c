//! Exact (exponential-time) solvers for OFF-LINE-COUPLED.
//!
//! Both variants are NP-hard (Theorem 4.1), so these solvers enumerate
//! processor subsets; they are intended for the small instances used to
//! validate the reductions and the greedy heuristics. Enumeration is pruned
//! by the obvious monotonicity: adding a processor can only shrink the set of
//! common `UP` slots.

use crate::problem::{OfflineInstance, OfflineSolution};

/// Exact solver for OFF-LINE-COUPLED(µ=1): find `m` processors that are
/// simultaneously `UP` during at least `w` time-slots, or prove there are none.
pub fn solve_mu1_exact(instance: &OfflineInstance) -> Option<OfflineSolution> {
    let p = instance.num_procs();
    if instance.m > p {
        return None;
    }
    let all_slots: Vec<usize> = (0..instance.horizon()).collect();
    let mut chosen = Vec::with_capacity(instance.m);
    search_fixed_size(instance, 0, &mut chosen, &all_slots, instance.m, instance.w)
}

/// Exact solver for OFF-LINE-COUPLED(µ=∞): find, for some `k ≤ min(m, p)`,
/// `k` processors simultaneously `UP` during at least `⌈m/k⌉·w` slots.
/// Returns the witness with the smallest completion requirement found.
pub fn solve_mu_unbounded_exact(instance: &OfflineInstance) -> Option<OfflineSolution> {
    let p = instance.num_procs();
    for k in (1..=instance.m.min(p)).rev() {
        // Larger k first: it needs the fewest common slots per processor, and
        // matches the µ=1 shape when k = m.
        let needed = instance.required_slots_for(k);
        let all_slots: Vec<usize> = (0..instance.horizon()).collect();
        let mut chosen = Vec::with_capacity(k);
        if let Some(sol) = search_fixed_size(instance, 0, &mut chosen, &all_slots, k, needed) {
            return Some(sol);
        }
    }
    None
}

/// Depth-first enumeration of processor subsets of size `target`, carrying the
/// set of still-common `UP` slots and pruning branches that cannot reach
/// `needed` slots.
fn search_fixed_size(
    instance: &OfflineInstance,
    start: usize,
    chosen: &mut Vec<usize>,
    common: &[usize],
    target: usize,
    needed: u64,
) -> Option<OfflineSolution> {
    if (common.len() as u64) < needed {
        return None;
    }
    if chosen.len() == target {
        return Some(OfflineSolution {
            processors: chosen.clone(),
            slots: common[..needed as usize].to_vec(),
        });
    }
    let remaining_needed = target - chosen.len();
    let p = instance.num_procs();
    if p - start < remaining_needed {
        return None;
    }
    for q in start..p {
        let narrowed: Vec<usize> =
            common.iter().copied().filter(|&t| instance.is_up(q, t)).collect();
        if (narrowed.len() as u64) < needed {
            continue;
        }
        chosen.push(q);
        if let Some(sol) = search_fixed_size(instance, q + 1, chosen, &narrowed, target, needed) {
            return Some(sol);
        }
        chosen.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: &[&str]) -> Vec<Vec<bool>> {
        rows.iter().map(|r| r.chars().map(|c| c == '1').collect()).collect()
    }

    #[test]
    fn mu1_positive_instance() {
        // Processors 0 and 2 share slots 0, 2, 3.
        let inst = OfflineInstance::new(matrix(&["1011", "0110", "1011"]), 3, 2);
        let sol = solve_mu1_exact(&inst).expect("solution exists");
        assert!(sol.is_valid_mu1(&inst));
        assert_eq!(sol.processors, vec![0, 2]);
    }

    #[test]
    fn mu1_negative_instance() {
        // No pair of processors shares 3 UP slots.
        let inst = OfflineInstance::new(matrix(&["1100", "0110", "0011"]), 3, 2);
        assert!(solve_mu1_exact(&inst).is_none());
        // But a weaker requirement succeeds.
        let easier = OfflineInstance::new(matrix(&["1100", "0110", "0011"]), 1, 2);
        assert!(solve_mu1_exact(&easier).is_some());
    }

    #[test]
    fn mu1_more_tasks_than_processors_is_infeasible() {
        let inst = OfflineInstance::new(matrix(&["1111", "1111"]), 1, 3);
        assert!(solve_mu1_exact(&inst).is_none());
    }

    #[test]
    fn mu_unbounded_trades_processors_for_time() {
        // Only one processor, but it is UP for 6 slots: with µ=∞ it can run
        // m=3 tasks of w=2 alone (needs 6 slots); µ=1 would need 3 processors.
        let inst = OfflineInstance::new(matrix(&["111111", "100000", "100000"]), 2, 3);
        assert!(solve_mu1_exact(&inst).is_none());
        let sol = solve_mu_unbounded_exact(&inst).expect("µ=∞ solution exists");
        assert!(sol.is_valid_mu_unbounded(&inst));
    }

    #[test]
    fn mu_unbounded_negative_instance() {
        // m=2, w=3: one processor would need 6 slots (has 3), two would need 3
        // common slots (they share none).
        let inst = OfflineInstance::new(matrix(&["111000", "000111"]), 3, 2);
        assert!(solve_mu_unbounded_exact(&inst).is_none());
    }

    #[test]
    fn mu_unbounded_generalizes_mu1() {
        // Any µ=1 solution is also a µ=∞ solution.
        let inst = OfflineInstance::new(matrix(&["110110", "111100", "011110", "101011"]), 2, 2);
        if let Some(sol) = solve_mu1_exact(&inst) {
            assert!(sol.is_valid_mu_unbounded(&inst));
            assert!(solve_mu_unbounded_exact(&inst).is_some());
        } else {
            panic!("expected a µ=1 solution in this instance");
        }
    }
}
