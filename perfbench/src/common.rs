//! The configuration every workload shares, and the crash → recover →
//! reboot sequence.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crafty_common::{PAddr, PersistentTm};
use crafty_core::{recover, RecoveryReport};
use crafty_pmem::{CrashModel, LatencyModel, MemorySpace, PersistentImage, PmemConfig};
use crafty_workloads::{build_engine, EngineKind};

use crate::closed::Window;
use crate::report;
use crate::trace::{self, Span};
use crate::Args;

/// Set-ups per run. Each serves its share of the run time and is then
/// crashed, recovered and audited; the end-to-end metrics are medians over
/// them, and the last one also gives the layer metrics.
pub const SETUPS: usize = 5;

/// Recoveries timed per set-up, each on a fresh copy of its crash image.
pub const RECOVERIES: usize = 7;

/// Persistent words of the simulated space (32 MiB): room for the engine's
/// logs and heap, the store's arena and the bank's accounts.
const PERSISTENT_WORDS: u64 = 1 << 22;

/// The simulated space: the paper's 300 ns NVM and the strict crash model
/// (nothing persists without a flush and a drain), word-granular dirty
/// masks and ranged drain coalescing as in the production configuration.
pub fn pmem_config(threads: usize) -> PmemConfig {
    PmemConfig {
        persistent_words: PERSISTENT_WORDS,
        volatile_words: 1 << 20,
        max_threads: threads + 2,
        latency: LatencyModel::nvm_300ns(),
        crash: CrashModel::strict(),
        ..PmemConfig::benchmark()
    }
}

/// A memory space with the production Crafty engine over it.
pub struct Env {
    pub mem: Arc<MemorySpace>,
    pub engine: Box<dyn PersistentTm>,
    /// The engine's log directory, for recovery.
    pub dir: PAddr,
}

impl Env {
    pub fn new(threads: usize) -> Env {
        Env::over(Arc::new(MemorySpace::new(pmem_config(threads))), threads)
    }

    /// Builds the engine over `mem`. The engine's first persistent
    /// reservation is its log directory, so the reservation cursor read
    /// just before construction is the directory's address; recovery
    /// refuses a wrong one.
    fn over(mem: Arc<MemorySpace>, threads: usize) -> Env {
        let dir = mem.reserve_persistent(0);
        let engine = build_engine(EngineKind::Crafty, &mem, threads);
        Env { mem, engine, dir }
    }

    pub fn latency(&self) -> LatencyModel {
        self.mem.config().latency
    }
}

/// Reboots a recovered image and rebuilds the engine over it, replaying
/// the engine's reservations so the store's `open` finds its root.
pub fn reboot(image: &PersistentImage, threads: usize) -> Env {
    let mem = Arc::new(MemorySpace::boot(image, pmem_config(threads)));
    Env::over(mem, threads)
}

/// Recovers [`RECOVERIES`] fresh copies of `image` and returns the
/// recovered image, its report, and the median recovery time in ms.
pub fn recover_timed(
    image: &PersistentImage,
    dir: PAddr,
) -> (PersistentImage, RecoveryReport, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..RECOVERIES {
        let mut copy = image.clone();
        let t = Instant::now();
        let report = recover(&mut copy, dir).expect("crash image holds a log directory");
        times.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some((copy, report));
    }
    let (copy, report) = last.expect("at least one recovery");
    (copy, report, report::median(&times))
}

/// The timed windows of each set-up: the run time is shared out evenly
/// among the set-ups, and a traced set-up splits its share into an
/// untraced half followed by a traced half.
pub fn windows(args: &Args) -> Vec<Window> {
    let share = Duration::from_secs_f64(args.seconds) / SETUPS as u32;
    if args.trace {
        vec![
            Window {
                dur: share / 2,
                traced: false,
            },
            Window {
                dur: share / 2,
                traced: true,
            },
        ]
    } else {
        vec![Window {
            dur: share,
            traced: false,
        }]
    }
}

/// Writes the kept spans where `--trace-out` says, if it says.
pub fn write_trace(args: &Args, spans: &[Vec<Span>]) {
    if let Some(path) = &args.trace_out {
        if let Err(e) = trace::write_spans(path, spans) {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            );
        }
    }
}
