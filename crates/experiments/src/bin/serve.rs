//! The warm-cache scheduler daemon: loads one platform/suite, keeps the
//! Section V evaluation cache warm, and answers scheduling-decision requests
//! over a JSONL protocol — on stdin/stdout (the default) or a TCP listener.
//!
//! ```text
//! echo '{"heuristic":"IE","workers":"UUUUUUUUUUUUUUUUUUUU"}' | \
//!     cargo run --release --bin serve -- --suite paper
//!
//! cargo run --release --bin serve -- --suite paper --listen 127.0.0.1:4800
//! ```
//!
//! The campaign flags (`--suite`, `--workers`, `--ncom`, `--wmin`, `--seed`)
//! select the warm scenario exactly like the experiment binaries select their
//! first job; `--listen ADDR` serves TCP connections (one session each, at
//! most `MAX_SESSIONS` at once, all sharing the warm cache) instead of stdin.
//! See `docs/ARCHITECTURE.md` ("Service layer") for the protocol. An option
//! error exits 2 with its message, like the sweep binaries
//! ([`dg_experiments::cli::or_exit`]).

use dg_experiments::cli::or_exit;
use dg_experiments::service::{serve_listener, ScheduleService, ServeOptions, ServiceCore};
use std::io::{BufWriter, Write};
use std::net::TcpListener;
use std::sync::Arc;

fn main() {
    let opts = or_exit(ServeOptions::from_env());
    let core = Arc::new(or_exit(ServiceCore::from_options(&opts.base)));
    if !opts.base.quiet {
        eprintln!(
            "serve: warm scenario ready ({} workers, m = {}, ncom = {}, seed {})",
            core.scenario.platform.num_workers(),
            core.scenario.application.tasks_per_iteration,
            core.scenario.master.ncom,
            core.scenario.seed,
        );
    }
    match &opts.listen {
        None => serve_stdio(core, opts.base.quiet),
        Some(addr) => serve_tcp(core, addr, opts.base.quiet),
    }
}

/// Serve one session over stdin/stdout until EOF.
fn serve_stdio(core: Arc<ServiceCore>, quiet: bool) {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut writer = BufWriter::new(stdout.lock());
    let mut service = ScheduleService::new(Arc::clone(&core));
    match service.serve(stdin.lock(), &mut writer) {
        Ok(summary) => {
            let _ = writer.flush();
            if !quiet {
                let stats = core.cache.stats();
                eprintln!(
                    "serve: shutdown after {} requests ({} errors, {} reschedules); \
                     cache {} hits / {} misses",
                    summary.requests,
                    summary.errors,
                    summary.reschedules,
                    stats.group_hits,
                    stats.group_misses,
                );
            }
        }
        Err(err) => {
            eprintln!("serve: i/o error: {err}");
            std::process::exit(1);
        }
    }
}

/// Bind `addr` and accept TCP connections forever through [`serve_listener`].
fn serve_tcp(core: Arc<ServiceCore>, addr: &str, quiet: bool) {
    let bound = TcpListener::bind(addr);
    let listener = or_exit(bound.map_err(|err| format!("serve: cannot listen on {addr}: {err}")));
    if !quiet {
        let local = listener.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| addr.into());
        eprintln!("serve: listening on {local}");
    }
    serve_listener(core, listener, quiet);
}
