//! The off-line (full-knowledge) problem of Section IV: generate availability
//! traces, build an OFF-LINE-COUPLED instance from them, and compare the
//! exact exponential search against the polynomial greedy chain, for both
//! the µ = 1 and µ = ∞ variants. Each names the earliest-finishing iteration
//! it finds from slot 0. Also demonstrates the ENCD reduction of Theorem 4.1
//! on a small bipartite graph.
//!
//! ```text
//! cargo run --release --example offline_solver
//! ```

use desktop_grid_scheduling::offline::{BipartiteGraph, OfflineSolution};
use desktop_grid_scheduling::prelude::*;
use OracleVariant::{Mu1, MuUnbounded};

fn main() {
    // 1. Build an off-line instance from Markov availability traces.
    let chains: Vec<MarkovChain3> = (0..8)
        .map(|q| MarkovChain3::from_self_loop_probs(0.93 + 0.005 * q as f64, 0.9, 0.92).unwrap())
        .collect();
    let mut availability = RealizedAvailability::markov(chains, 4242, false);
    let horizon = 60;
    let mut traces = availability.materialize(horizon);
    for q in 0..traces.num_procs() {
        println!("P{q}: {}", traces.trace(q).to_code_string());
    }
    let instance = OfflineInstance::new(traces.up_matrix(horizon), 4, 3);
    println!(
        "\nOFF-LINE-COUPLED instance: p = {}, N = {}, w = {}, m = {}",
        instance.num_procs(),
        instance.horizon(),
        instance.w,
        instance.m
    );

    // 2. Solve both variants exactly and greedily.
    report("µ = 1  exact ", earliest_finish_exact(&instance, 0, Mu1));
    report("µ = 1  greedy", earliest_finish_greedy(&instance, 0, Mu1));
    report("µ = ∞  exact ", earliest_finish_exact(&instance, 0, MuUnbounded));
    report("µ = ∞  greedy", earliest_finish_greedy(&instance, 0, MuUnbounded));

    // 3. The NP-hardness reduction (Theorem 4.1): an ENCD instance and its
    //    OFF-LINE-COUPLED images give the same answer.
    let graph = BipartiteGraph::new(vec![
        vec![true, true, false, true],
        vec![true, true, true, false],
        vec![false, true, true, true],
    ]);
    let encd = EncdInstance::new(graph, 2, 2);
    println!("\nENCD instance (|V| = 3, |W| = 4, a = 2, b = 2):");
    println!("  has bi-clique:            {}", encd.has_biclique());
    let solvable = |instance, variant| earliest_finish_exact(&instance, 0, variant).is_some();
    println!("  reduction to µ=1 solvable: {}", solvable(encd.to_offline_mu1(), Mu1));
    println!(
        "  reduction to µ=∞ solvable: {}",
        solvable(encd.to_offline_mu_unbounded(), MuUnbounded)
    );
}

fn report(label: &str, solution: Option<OfflineSolution>) {
    match solution {
        Some(sol) => println!(
            "{label}: processors {:?} share {} common UP slots (first slots: {:?})",
            sol.processors,
            sol.slots.len(),
            &sol.slots[..sol.slots.len().min(6)]
        ),
        None => println!("{label}: no solution found"),
    }
}
