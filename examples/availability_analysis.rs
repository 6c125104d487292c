//! The Section V analytics in isolation: for growing sets of volatile workers,
//! print the probability `P₊^(S)` that the set reassembles before any failure,
//! the conditional expected completion time `E^(S)(W)` of a workload, and the
//! resulting yield — the quantities the IP/IE/IY/IAY heuristics rank
//! configurations with. Also cross-checks the closed forms against a Monte
//! Carlo simulation of the availability chains.
//!
//! ```text
//! cargo run --release --example availability_analysis
//! ```

use desktop_grid_scheduling::analysis::series::WorkerSeries;
use desktop_grid_scheduling::analysis::{yield_metric, GroupComputation};
use desktop_grid_scheduling::availability::rng::rng_from_seed;
use desktop_grid_scheduling::prelude::*;
use rand::Rng;

fn main() {
    let computation = GroupComputation::new(1e-9);
    // Five workers of decreasing reliability.
    let chains: Vec<MarkovChain3> = (0..5)
        .map(|q| MarkovChain3::from_self_loop_probs(0.98 - 0.015 * q as f64, 0.93, 0.95).unwrap())
        .collect();
    let series: Vec<WorkerSeries> = chains.iter().map(WorkerSeries::new).collect();

    let workload = 20; // slots of simultaneous computation
    println!("Workload W = {workload} slots of simultaneous UP time\n");
    println!(
        "{:<6} {:>10} {:>12} {:>14} {:>10}",
        "|S|", "P+", "P(success)", "E(W) [slots]", "yield"
    );
    for k in 1..=series.len() {
        let refs: Vec<&WorkerSeries> = series[..k].iter().collect();
        let g = computation.compute(&refs);
        let p_success = g.prob_success(workload);
        let e_w = g.expected_completion_time(workload);
        println!(
            "{:<6} {:>10.4} {:>12.4} {:>14.2} {:>10.5}",
            k,
            g.p_plus,
            p_success,
            e_w,
            yield_metric(p_success, e_w, 0)
        );
    }

    // Monte Carlo validation of P(success) and E(W) for the 3-worker set.
    let k = 3;
    let refs: Vec<&WorkerSeries> = series[..k].iter().collect();
    let g = computation.compute(&refs);
    let (mc_p, mc_e) = monte_carlo(&chains[..k], workload, 200_000);
    println!("\nMonte Carlo check for |S| = {k}, W = {workload} (200k runs):");
    println!("  P(success): analytical {:.4} vs simulated {:.4}", g.prob_success(workload), mc_p);
    println!(
        "  E(W) slots: analytical {:.2} vs simulated {:.2} (conditioned on success)",
        g.expected_completion_time(workload),
        mc_e
    );
}

/// Simulate the chains directly: all workers start UP, count the slots until
/// `workload` simultaneous-UP slots have been accumulated, aborting if any
/// worker goes DOWN. Returns (success probability, mean completion time).
/// Seeded, so every run prints the same estimates.
fn monte_carlo(chains: &[MarkovChain3], workload: u64, runs: u64) -> (f64, f64) {
    let mut rng = rng_from_seed(2013);
    let mut successes = 0u64;
    let mut total_time = 0u64;
    for _ in 0..runs {
        let mut states = vec![ProcState::Up; chains.len()];
        let mut done = 1u64; // the first slot of computation happens at t = 0
        let mut t = 0u64;
        let survived = loop {
            if done >= workload {
                break true;
            }
            t += 1;
            let _ = rng.gen::<f64>(); // decorrelate runs slightly
            for (s, chain) in states.iter_mut().zip(chains.iter()) {
                *s = chain.next_state(*s, &mut rng);
            }
            if states.iter().any(|s| s.is_down()) {
                break false;
            }
            if states.iter().all(|s| s.is_up()) {
                done += 1;
            }
        };
        if survived {
            successes += 1;
            total_time += t + 1;
        }
    }
    (
        successes as f64 / runs as f64,
        if successes > 0 { total_time as f64 / successes as f64 } else { f64::NAN },
    )
}
