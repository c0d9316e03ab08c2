//! The repository's benchmark: the Crafty stack measured end to end and
//! layer by layer, through public entry points only.
//!
//! ```text
//! perfbench --workload <ycsb-a-1t|bank-high-2t|svc-ycsb-a> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file>]
//!           [--rustc <version>] [--revision <id>]
//! ```
//!
//! Every workload runs the production configuration: the Crafty engine as
//! `build_engine(EngineKind::Crafty, ..)` builds it (per-line fallback,
//! ranged drain coalescing, word-granular dirty masks) over a simulated
//! space with the paper's 300 ns NVM latency model and the strict crash
//! model. The seed makes every input; the program under test sees only the
//! generated keys, values and transfers.
//!
//! | workload | what | why |
//! |---|---|---|
//! | `ycsb-a-1t` | closed loop, 1 thread, YCSB-A (50% get / 50% put, zipf 0.99) over 20,000 records in 16 shards, per-transaction durability | the uncontended write path (Log → drain → Redo); single-threaded, so its persist counts repeat exactly |
//! | `bank-high-2t` | closed loop, 2 threads, the paper's bank at high contention (1,024 line-aligned accounts, 5 transfers per transaction) | HTM conflicts, Validate and fallback completions; write-only, no KV or server |
//! | `svc-ycsb-a` | open loop, Poisson arrivals at 20,000 requests/s over one loopback connection to a `KvServer` with 1 worker and group commit | the only workload with socket, decode, batching and `persist_fence` on the critical path |
//!
//! A run sets the workload up five times on fresh memory spaces. Each
//! set-up serves a fifth of `--seconds`, then is crashed, recovered,
//! rebooted and audited. The untraced run (`--trace 0`) prints the
//! end-to-end metrics, each the median over the set-ups. The traced run
//! (`--trace 1`) splits each set-up's time into an untraced half and a
//! traced half and prints the last set-up's per-layer metrics: counters
//! from the untraced half, spans and engine phase timers from the traced
//! half, and the difference between the halves as
//! `gen.trace_overhead_frac`.
//!
//! Tail latency is a layer metric (`gen.latency_p99_us`), not an
//! end-to-end one: on a small virtual machine the service's p99 measures
//! how long the host takes to run a descheduled virtual CPU again, and it
//! moves by a factor of two between runs minutes apart. Recovery time
//! (`recovery.ms`) is a layer metric for the same reason: a 1.5 ms
//! computation on a shared host spread by up to a quarter between runs.
//!
//! What each layer metric should move, and where (elsewhere the
//! prediction is no change):
//!
//! | layer | moves | on |
//! |---|---|---|
//! | `pmem.*` | `persist_ns_per_op`, `throughput_tps`, `latency_p50_us` | `ycsb-a-1t`, `svc-ycsb-a` (drains); `bank-high-2t` (ranges, words) |
//! | `htm.*` | `throughput_tps`, `latency_p50_us` | `bank-high-2t` (≈0 on `ycsb-a-1t`) |
//! | `core.*` | `throughput_tps`, `latency_p50_us` | `bank-high-2t` (retries); `ycsb-a-1t` (phases) |
//! | `kv.*` | `latency_p50_us`, `throughput_tps` | `ycsb-a-1t`, `svc-ycsb-a` |
//! | `server.*` | `latency_p50_us` | `svc-ycsb-a` |
//! | `recovery.*` | restart time after a crash | all |
//! | `gen.*` | diagnostic only | all |
//!
//! Every run checks its outputs: store integrity and bank conservation on
//! the live state, every service reply against a shadow copy of the
//! store, and, after a crash image taken at the end of each set-up, recovery,
//! a reboot and an audit that every acknowledged write survived. Any
//! failure makes the result `correct: false` and the exit code 1.

mod closed;
mod common;
mod hist;
mod model;
mod report;
mod service;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Metrics;

/// The workloads, with the reason each is in the benchmark (as in
/// `BENCHMARK.json`).
const WORKLOADS: &[(&str, &str)] = &[
    (
        "ycsb-a-1t",
        "Closed loop, 1 thread, YCSB-A over a 20k-record KV store: the uncontended write path (Log, drain, Redo); single-threaded, so its persist counts repeat exactly",
    ),
    (
        "bank-high-2t",
        "Closed loop, 2 threads, the paper's bank on 1,024 shared accounts: HTM conflicts, Validate and fallback completions; write-only, no KV or server",
    ),
    (
        "svc-ycsb-a",
        "Open loop, Poisson 20k req/s on one loopback connection to a 1-worker KvServer with group commit: socket, decode, batching and persist_fence on the critical path",
    ),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub rustc: String,
    pub revision: String,
}

/// What a workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of every failed check.
    pub failures: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        trace_out: None,
        rustc: "unknown".to_string(),
        revision: "unknown".to_string(),
    };
    let mut seen_seed = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?;
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--rustc" => args.rustc = value,
            "--revision" => args.revision = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if !seen_seed {
        return Err("--seed is required".to_string());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// One line of run metadata, as JSON.
fn metadata(args: &Args) -> String {
    let lat = crafty_pmem::LatencyModel::nvm_300ns();
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or("", |(_, why)| why);
    let flush = if args.workload == "svc-ycsb-a" {
        "group commit: one drain and one persist_fence per pipelined write batch, before any ack"
    } else {
        "per-transaction durability (TmThread::execute)"
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": \"{}\", \"why\": \"{why}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"profile\": \"{profile}\", \"rustc\": \"{}\", \"revision\": \"{}\", \
         \"engine\": \"Crafty (build_engine: per-line fallback, ranged drain coalescing, word-granular dirty masks)\", \
         \"latency_model\": {{\"drain_ns\": {}, \"clwb_range_ns\": {}, \"clwb_line_ns\": {}, \"clwb_word_ns\": {}}}, \
         \"crash_model\": \"strict\", \"flush_policy\": \"{flush}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.rustc.replace('"', "'"),
        args.revision.replace('"', "'"),
        lat.drain_ns,
        lat.clwb_range_ns,
        lat.clwb_line_ns,
        lat.clwb_word_ns,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("meta: {}", metadata(&args));
    let out = match args.workload.as_str() {
        "ycsb-a-1t" => closed::run(closed::Which::Ycsb, &args),
        "bank-high-2t" => closed::run(closed::Which::Bank, &args),
        _ => service::run(&args),
    };
    let correct = out.failures.is_empty() && out.failed == 0;
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "checks: {} ({} of {} ops failed, failed_frac {failed_frac})",
        if correct { "pass" } else { "FAIL" },
        out.failed,
        out.attempted
    );
    let list = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    out.metrics
        .print(list, out.attempted.max(1), out.failed, correct);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
