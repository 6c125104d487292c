//! Reproduction of the paper's **Figure 1** worked example: m = 5 tasks on a
//! 5-processor heterogeneous platform (w_i = i), ncom = 2, Tprog = 2,
//! Tdata = 1, with a scripted availability pattern. The example prints the
//! slot-by-slot event log so the communication phase, the suspension while a
//! worker is RECLAIMED, and the final synchronization can be followed.
//!
//! ```text
//! cargo run --release --example figure1_trace
//! ```

use desktop_grid_scheduling::prelude::*;
use desktop_grid_scheduling::sim::{EventLog, SimMode};

fn main() {
    // Platform of Figure 1: five workers with w_i = i; only P2, P3, P4
    // (indices 1, 2, 3) participate. Availability is scripted: P3 is
    // temporarily reclaimed during the communication phase, P2 and P3 are
    // reclaimed during the computation phase; nobody crashes.
    let platform =
        Platform::new((1..=5).map(WorkerSpec::new).collect(), vec![MarkovChain3::always_up(); 5]);
    let application = ApplicationSpec::new(5, 1);
    let master = MasterSpec::from_slots(2, 2, 1);

    // One availability string per worker (U = UP, R = RECLAIMED, D = DOWN).
    // P1 and P5 are not UP at time 0, so the scheduler cannot enroll them.
    let availability = RealizedAvailability::from_codes(&[
        "DDDDDDDDDDDDDDDDDDDD", // P1: down the whole time
        "UUUUUUUUUURRUUUUUUUU", // P2: reclaimed at slots 10-11
        "UUURRUUUUUUURUUUUUUU", // P3: reclaimed at 3-4 and 12
        "UUUUUUUUUUUUUUUUUUUU", // P4: always up
        "RRRRRRRRRRRRRRRRRRRR", // P5: reclaimed the whole time
    ]);

    // The Figure 1 task mapping: 2 tasks on P2, 2 on P3, 1 on P4
    // -> lock-step workload max(2*2, 2*3, 1*4) = 6 slots.
    let assignment = Assignment::new([(1, 2), (2, 2), (3, 1)]);
    let mut scheduler = FixedAssignmentScheduler::new(assignment);

    // Slot-stepped mode: this example is *about* the slot-by-slot log, so it
    // uses the escape hatch instead of the default event-driven engine (which
    // executes — and logs — only the state-changing slots).
    let (outcome, log) = Simulator::from_parts(platform, application, master, availability)
        .with_event_log(true)
        .with_mode(SimMode::SlotStepped)
        .run(&mut scheduler);

    print_log(&log);
    println!();
    match outcome.makespan {
        Some(makespan) => println!(
            "Iteration completed after {makespan} slots \
             ({} transfer slots, {} computation slots, {} stalled slots).",
            outcome.stats.transfer_slots,
            outcome.stats.computation_slots,
            outcome.stats.stalled_slots
        ),
        None => println!("The iteration did not complete (unexpected for this script)."),
    }
}

fn print_log(log: &EventLog) {
    println!("slot  event");
    println!("----  -----");
    for event in log.events() {
        let description = match &event.kind {
            EventKind::IterationStarted { iteration } => format!("iteration {iteration} starts"),
            EventKind::ConfigurationSelected { assignment, proactive } => format!(
                "configuration selected{}: {:?}",
                if *proactive { " (proactive change)" } else { "" },
                assignment.entries()
            ),
            EventKind::TransferSlot { worker, program } => format!(
                "P{} receives one slot of {}",
                worker + 1,
                if *program { "the program" } else { "task data" }
            ),
            EventKind::ProgramReceived { worker } => {
                format!("P{} now holds the program", worker + 1)
            }
            EventKind::DataReceived { worker, total_messages } => {
                format!("P{} received data message #{total_messages}", worker + 1)
            }
            EventKind::ComputationSlot { done, workload } => {
                format!("computation progresses ({done}/{workload})")
            }
            EventKind::ComputationSuspended => {
                "computation suspended (a worker is reclaimed)".to_string()
            }
            EventKind::IterationAborted { failed_workers } => {
                format!("iteration aborted, failed workers: {failed_workers:?}")
            }
            EventKind::IterationCompleted { iteration } => {
                format!("iteration {iteration} completed")
            }
            EventKind::RunFinished { success } => format!("run finished (success = {success})"),
        };
        println!("{:>4}  {description}", event.time);
    }
}
