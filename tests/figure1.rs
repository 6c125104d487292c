//! Integration test pinning down the execution model on the paper's Figure 1
//! worked example: heterogeneous workers (w_i = i), ncom = 2, Tprog = 2,
//! Tdata = 1, the 2/2/1 task mapping onto P2/P3/P4, and scripted
//! RECLAIMED periods that suspend communication and computation.

use desktop_grid_scheduling::prelude::*;
use desktop_grid_scheduling::sim::EventKind;

fn figure1_platform() -> (Platform, ApplicationSpec, MasterSpec) {
    (
        Platform::new((1..=5).map(WorkerSpec::new).collect(), vec![MarkovChain3::always_up(); 5]),
        ApplicationSpec::new(5, 1),
        MasterSpec::from_slots(2, 2, 1),
    )
}

fn figure1_assignment() -> Assignment {
    Assignment::new([(1, 2), (2, 2), (3, 1)])
}

#[test]
fn workload_of_the_figure1_mapping_is_six_slots() {
    let (platform, _, _) = figure1_platform();
    assert_eq!(figure1_assignment().workload(&platform), 6);
}

#[test]
fn fully_available_workers_follow_the_nominal_timeline() {
    // With every enrolled worker UP throughout, the phases are:
    // communication — P2 and P3 download in parallel (program 2 + data 2 = 4
    // slots each); P4 waits for a channel, then needs 3 slots; with ncom = 2
    // the phase takes 7 slots (bandwidth-bound: total 11 slots over 2 channels,
    // but the tail is limited by P4 starting late);
    // computation — 6 slots of simultaneous work.
    let (platform, application, master) = figure1_platform();
    let availability = RealizedAvailability::from_codes(&["D", "U", "U", "U", "R"]);
    let mut scheduler = FixedAssignmentScheduler::new(figure1_assignment());
    let (outcome, log) = Simulator::from_parts(platform, application, master, availability)
        .with_event_log(true)
        .run(&mut scheduler);
    assert!(outcome.success());
    // Communication volume: P2 and P3 need 4 slots each, P4 needs 3 -> 11
    // transfer slots in total, all served.
    assert_eq!(outcome.stats.transfer_slots, 11);
    assert_eq!(outcome.stats.computation_slots, 6);
    // ncom = 2 is respected at every slot.
    for t in 0..outcome.simulated_slots {
        let transfers = log
            .events()
            .iter()
            .filter(|e| e.time == t && matches!(e.kind, EventKind::TransferSlot { .. }))
            .count();
        assert!(transfers <= 2, "slot {t} served {transfers} > ncom transfers");
    }
    // 11 transfer slots over 2 channels cannot finish before slot 6, so the
    // computation cannot start before slot 6 and the makespan is at least 12.
    assert!(outcome.makespan_or_panic() >= 12);
}

#[test]
fn reclaimed_workers_suspend_but_do_not_destroy_the_iteration() {
    // Scripted RECLAIMED periods modeled on Figure 1: P3 is reclaimed during
    // the communication phase, P2 and later P3 during the computation phase.
    let (platform, application, master) = figure1_platform();
    let availability = RealizedAvailability::from_codes(&[
        "DDDDDDDDDDDDDDDDDDDDDDDD",
        "UUUUUUUUUURRUUUUUUUUUUUU",
        "UUURRUUUUUUURUUUUUUUUUUU",
        "UUUUUUUUUUUUUUUUUUUUUUUU",
        "RRRRRRRRRRRRRRRRRRRRRRRR",
    ]);
    let mut scheduler = FixedAssignmentScheduler::new(figure1_assignment());
    let (outcome, log) = Simulator::from_parts(platform, application, master, availability)
        .with_event_log(true)
        .run(&mut scheduler);

    // The iteration still completes: reclaimed periods only delay it.
    assert!(outcome.success());
    assert_eq!(outcome.stats.iterations_aborted, 0);
    assert_eq!(outcome.stats.computation_slots, 6);
    assert!(outcome.stats.stalled_slots > 0, "the reclaimed periods must stall progress");
    assert!(
        log.events().iter().any(|e| matches!(e.kind, EventKind::ComputationSuspended)),
        "computation must be suspended while an enrolled worker is reclaimed"
    );
    // Compared to the fully-available timeline, the makespan strictly grows.
    assert!(outcome.makespan_or_panic() > 13);
}

#[test]
fn a_crash_restarts_the_iteration_from_scratch() {
    // Same mapping, but P4 crashes during the computation phase: the whole
    // iteration (communication included for the crashed worker) restarts.
    let (platform, application, master) = figure1_platform();
    let availability = RealizedAvailability::from_codes(&[
        "DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD",
        "UUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUU",
        "UUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUU",
        "UUUUUUUUUUUUDUUUUUUUUUUUUUUUUUUUUUUUUUUU",
        "RRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRR",
    ]);
    let mut scheduler = FixedAssignmentScheduler::new(figure1_assignment());
    let (outcome, log) = Simulator::from_parts(platform, application, master, availability)
        .with_event_log(true)
        .run(&mut scheduler);
    assert!(outcome.success());
    assert_eq!(outcome.stats.iterations_aborted, 1);
    assert!(log.events().iter().any(|e| matches!(
        &e.kind,
        EventKind::IterationAborted { failed_workers } if failed_workers.contains(&3)
    )));
    // More than 6 computation slots were spent overall because the first
    // attempt's partial work was lost.
    assert!(outcome.stats.computation_slots > 6);
    // P4 lost the program in the crash and had to download it again: more than
    // the nominal 11 transfer slots were served.
    assert!(outcome.stats.transfer_slots > 11);
}
