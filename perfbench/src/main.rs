//! The benchmark's command line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1-golden|massive-2k|serve-replay \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`/`attempted`/`failed`/`metrics`); the line before it records
//! the run (workload, seed, host CPUs, commit, failed share, pass and input
//! counts).

use dg_experiments::executor::resolve_threads;
use dg_perfbench::measure::{self, BASELINE_HOST_CPUS};
use dg_perfbench::report::{json_number, result_line};
use dg_perfbench::{run, ALL_WORKLOADS, DEFAULT_SEED};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10, trace: false };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let number =
            |v: &str| v.parse::<u64>().map_err(|_| format!("invalid value '{v}' for {flag}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid value '{value}' for --trace (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if !ALL_WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", ALL_WORKLOADS.join(", ")));
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload {} [--seed N] [--seconds N] [--trace 0|1]",
                ALL_WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = match run(&args.workload, args.seed, args.seconds as f64, args.trace) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload);
            std::process::exit(1);
        }
    };
    let host_cpus = resolve_threads(0);
    let comparable = host_cpus == BASELINE_HOST_CPUS;
    if !comparable {
        eprintln!(
            "perfbench: this host has {host_cpus} CPUs but the baseline was recorded on \
             {BASELINE_HOST_CPUS}; these numbers are not comparable to it"
        );
    }
    let walls: Vec<String> = outcome.untraced_walls.iter().map(|w| format!("{w:.4}")).collect();
    eprintln!("perfbench: untraced pass walls (s): {}", walls.join(" "));
    let tally = &outcome.tally;
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    let notes: String = outcome
        .notes
        .iter()
        .map(|(name, v)| format!(", \"{name}\": {}", json_number(*v)))
        .collect();
    println!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cpus\": {host_cpus}, \"baseline_host_cpus\": {BASELINE_HOST_CPUS}, \
         \"comparable\": {comparable}, \"commit\": \"{}\", \"failed_share\": {}, \
         \"passes\": {}, \"inputs\": {}{notes}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measure::git_commit(&measure::repo_root()),
        json_number(failed_share),
        outcome.passes,
        outcome.inputs,
    );
    println!("{}", result_line(tally.attempted.max(1), tally.failed, &outcome.metrics));
}
