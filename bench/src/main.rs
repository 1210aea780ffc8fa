//! The repository benchmark: one process per workload and mode.
//!
//! `pfr-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out <dir>]` generates its inputs from the seed, measures for about
//! `seconds`, checks every output, and prints the result object as the last
//! line of standard output. See `README.md` beside this package.

mod alloc;
mod data;
mod model;
mod offline;
mod pacer;
mod probes;
mod report;
mod rng;
mod serving;
mod spans;
mod stats;

use report::Report;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

pub const NAMES: [&str; 4] = ["cold_volatile", "cold_durable", "zipf_swap", "fit_refit"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `fit_refit` only: write this seed's paper figures to `expected/`.
    pub record: bool,
    pub out: PathBuf,
    pub started: Instant,
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 12.0,
        trace: false,
        record: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        started,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err(bad("between 1 and 60"));
                }
            }
            "--trace" | "--record" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                if flag == "--trace" {
                    args.trace = on;
                } else {
                    args.record = on;
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", NAMES.join(", ")));
    }
    Ok(args)
}

fn run(args: &Args, scratch: &Path) -> Report {
    let mut report = Report::default();
    match args.workload.as_str() {
        "cold_volatile" => serving::run(serving::Kind::ColdVolatile, args, scratch, &mut report),
        "cold_durable" => serving::run(serving::Kind::ColdDurable, args, scratch, &mut report),
        "zipf_swap" => serving::run(serving::Kind::ZipfSwap, args, scratch, &mut report),
        _ => offline::run(args, &mut report),
    }
    report.set("peak_heap_mb", alloc::peak_heap_mb());
    report.set("diag.peak_rss_mb", stats::peak_rss_mb());
    report.set(
        "e2e.fail_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(started) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pfr-e2e-bench: {message}");
            std::process::exit(2);
        }
    };
    // Journals live only under the scratch directory, which is wiped before
    // the run and after it, whether it passed, failed or panicked.
    let scratch = args.out.join("scratch");
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("pfr-e2e-bench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let outcome = std::panic::catch_unwind(|| run(&args, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    let code = match outcome {
        // A printed result exits 0 whatever it says: `correct` and `failed`
        // carry the verdict.
        Ok(report) => match report.print(args.trace) {
            Ok(()) => 0,
            Err(message) => {
                eprintln!("pfr-e2e-bench: {message}");
                1
            }
        },
        Err(_) => 1,
    };
    std::process::exit(code);
}
