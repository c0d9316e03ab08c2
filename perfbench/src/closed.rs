//! The closed-loop workloads: `ycsb-a-1t` and `bank-high-2t`.
//!
//! Each thread runs its next transaction as soon as the previous one
//! returns from `TmThread::execute`, which makes every transaction durable
//! before it returns (per-transaction flush policy).

use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crafty_common::trace::{self as ctrace, TraceLevel};
use crafty_common::{mix64, BreakdownSnapshot, PersistentTm, SplitMix64, TxAbort, TxnOps};
use crafty_core::RecoveryReport;
use crafty_kv::{DirectOps, KvConfig, ShardedKv};
use crafty_pmem::{MemorySpace, PersistentImage, PmemStats};
use crafty_workloads::{BankWorkload, Contention, OpKind, OpenLoopConfig, TxnMix, Workload};

use crate::hist::Hist;
use crate::model::persist_ns;
use crate::report::{self, Metrics, Summary};
use crate::trace::{Kind, Span, Totals, TracedOps, Tracer};
use crate::{common, Args, Outcome};

/// A transaction body the closed loop can run: transaction `idx` of
/// thread `tid`. It must replay identically when the engine re-runs it.
pub trait Body: Sync {
    fn run(
        &self,
        tid: usize,
        idx: u64,
        ops: &mut dyn TxnOps,
        tracer: Option<&Tracer>,
    ) -> Result<(), TxAbort>;
}

/// One timed window of a closed-loop run.
#[derive(Clone, Copy)]
pub struct Window {
    pub dur: Duration,
    pub traced: bool,
}

/// What one window measured.
pub struct WindowOut {
    pub wall: Duration,
    pub txns: u64,
    pub hist: Hist,
    pub pmem: PmemStats,
    pub breakdown: BreakdownSnapshot,
    pub spans: Totals,
    /// Throughput of each whole [`SLICE`] of the window, all threads.
    pub slice_tps: Vec<f64>,
}

/// The window is cut into slices of this length; throughput is reported
/// as the median slice, so a short stall of the host moves it little.
pub const SLICE: Duration = Duration::from_millis(500);

/// What one closed-loop run produced.
pub struct Driven {
    pub setup_end: Instant,
    pub windows: Vec<WindowOut>,
    /// Persist traffic of thread 0's first `prefix_ops` transactions of
    /// the first window, when it ran that many.
    pub prefix_pmem: Option<PmemStats>,
    /// Transactions each thread executed, warm-up included.
    pub executed: Vec<u64>,
    pub kept_spans: Vec<Vec<Span>>,
    pub rss_mib: f64,
    pub image: Option<PersistentImage>,
}

struct ThreadOut {
    hists: Vec<Hist>,
    counts: Vec<u64>,
    slices: Vec<Vec<u64>>,
    prefix: Option<PmemStats>,
    totals: Vec<Totals>,
    spans: Vec<Span>,
    executed: u64,
}

/// How a closed-loop run proceeds.
pub struct Plan<'a> {
    pub threads: usize,
    /// Transactions per thread before the first window.
    pub warmup: u64,
    /// Thread 0's transactions over which `Driven::prefix_pmem` counts.
    pub prefix_ops: u64,
    pub windows: &'a [Window],
    /// Take a crash image after the last window.
    pub crash: bool,
}

/// Runs the warm-up, then each window in turn, then (if asked) takes the
/// crash image while the workers are still parked: after the last
/// transaction and before anything quiesces.
pub fn drive(engine: &dyn PersistentTm, mem: &MemorySpace, body: &dyn Body, plan: &Plan) -> Driven {
    let (threads, windows) = (plan.threads, plan.windows);
    let barrier = Barrier::new(threads + 1);
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let barrier = &barrier;
                s.spawn(move || worker(engine, mem, body, tid, plan, barrier, epoch))
            })
            .collect();
        barrier.wait();
        let setup_end = Instant::now();
        let mut outs = Vec::new();
        for w in windows {
            if w.traced {
                ctrace::set_level(TraceLevel::Counters);
            }
            let p0 = mem.stats();
            let b0 = engine.breakdown();
            barrier.wait();
            let t0 = Instant::now();
            barrier.wait();
            let wall = t0.elapsed();
            ctrace::set_level(TraceLevel::Off);
            outs.push((
                wall,
                mem.stats().since(&p0),
                engine.breakdown().since(&b0),
                p0,
            ));
        }
        let rss_mib = report::peak_rss_mib();
        let image = plan.crash.then(|| mem.crash());
        barrier.wait();
        let per_thread: Vec<ThreadOut> = workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop worker panicked"))
            .collect();
        let mut windows_out = Vec::new();
        for (k, (wall, pmem, breakdown, _)) in outs.iter().enumerate() {
            let mut hist = Hist::new();
            let mut spans = Totals::default();
            let mut txns = 0;
            let whole = (windows[k].dur.as_nanos() / SLICE.as_nanos()) as usize;
            let mut slice_tps = vec![0.0; whole];
            for t in &per_thread {
                for (i, c) in t.slices[k].iter().take(whole).enumerate() {
                    slice_tps[i] += *c as f64 / SLICE.as_secs_f64();
                }
                hist.merge(&t.hists[k]);
                spans.merge(&t.totals[k]);
                txns += t.counts[k];
            }
            windows_out.push(WindowOut {
                wall: *wall,
                txns,
                hist,
                pmem: *pmem,
                breakdown: *breakdown,
                spans,
                slice_tps,
            });
        }
        let prefix_pmem = match (per_thread[0].prefix, outs.first()) {
            (Some(p), Some((_, _, _, p0))) => Some(p.since(p0)),
            _ => None,
        };
        Driven {
            setup_end,
            windows: windows_out,
            prefix_pmem,
            executed: per_thread.iter().map(|t| t.executed).collect(),
            kept_spans: per_thread.into_iter().map(|t| t.spans).collect(),
            rss_mib,
            image,
        }
    })
}

fn worker(
    engine: &dyn PersistentTm,
    mem: &MemorySpace,
    body: &dyn Body,
    tid: usize,
    plan: &Plan,
    barrier: &Barrier,
    epoch: Instant,
) -> ThreadOut {
    let windows = plan.windows;
    let mut handle = engine.register_thread(tid);
    let tracer = Tracer::new(epoch);
    let mut hists: Vec<Hist> = windows.iter().map(|_| Hist::new()).collect();
    let mut counts = vec![0u64; windows.len()];
    let mut slices: Vec<Vec<u64>> = windows
        .iter()
        .map(|w| vec![0u64; (w.dur.as_nanos() / SLICE.as_nanos()) as usize + 2])
        .collect();
    let mut totals = Vec::new();
    let mut prefix = None;
    let mut idx = 0u64;
    let mut exec = |idx: u64, tracer: Option<&Tracer>| match tracer {
        None => {
            handle.execute(&mut |ops| body.run(tid, idx, ops, None));
        }
        Some(t) => {
            t.begin_op(((tid as u64) << 48) | idx);
            t.enter(Kind::Execute);
            handle.execute(&mut |ops| {
                t.enter(Kind::Body);
                let mut traced = TracedOps {
                    inner: ops,
                    tracer: t,
                };
                let r = body.run(tid, idx, &mut traced, Some(t));
                t.exit();
                r
            });
            t.exit();
        }
    };
    for _ in 0..plan.warmup {
        exec(idx, None);
        idx += 1;
    }
    barrier.wait();
    for (k, w) in windows.iter().enumerate() {
        let before = tracer.totals();
        barrier.wait();
        let start = Instant::now();
        let deadline = start + w.dur;
        let mut t0 = start;
        let mut n = 0u64;
        loop {
            exec(idx, w.traced.then_some(&tracer));
            let t1 = Instant::now();
            hists[k].record((t1 - t0).as_nanos() as u64);
            let slice = ((t1 - start).as_nanos() / SLICE.as_nanos()) as usize;
            if let Some(c) = slices[k].get_mut(slice) {
                *c += 1;
            }
            idx += 1;
            n += 1;
            if k == 0 && tid == 0 && n == plan.prefix_ops {
                prefix = Some(mem.stats());
            }
            if t1 >= deadline {
                break;
            }
            t0 = t1;
        }
        counts[k] = n;
        let mut delta = tracer.totals();
        for (a, b) in delta.by_kind.iter_mut().zip(&before.by_kind) {
            a.count -= b.count;
            a.total_ns -= b.total_ns;
            a.self_ns -= b.self_ns;
        }
        delta.kv_txnops -= before.kv_txnops;
        totals.push(delta);
        barrier.wait();
    }
    barrier.wait();
    ThreadOut {
        hists,
        counts,
        slices,
        prefix,
        totals,
        spans: tracer.take_spans(),
        executed: idx,
    }
}

/// Records prefilled into the YCSB store.
pub const YCSB_RECORDS: u64 = 20_000;
/// YCSB store shards.
pub const YCSB_SHARDS: usize = 16;
/// Length of the pre-generated YCSB operation cycle (a power of two).
const YCSB_CYCLE: usize = 1 << 18;

/// The YCSB-A closed loop: gets and puts over a prefilled store, keys
/// drawn from the seeded zipfian schedule, one transaction per operation.
pub struct Ycsb {
    pub kv: ShardedKv,
    ops: Vec<(u64, bool)>,
}

impl Ycsb {
    pub fn kv_config() -> KvConfig {
        KvConfig::benchmark(YCSB_RECORDS, YCSB_SHARDS)
    }

    /// The key of op `idx` and, for a put, the value it writes.
    pub fn op(&self, idx: u64) -> (u64, Option<u64>) {
        let (key, put) = self.ops[idx as usize & (YCSB_CYCLE - 1)];
        (key, put.then(|| mix64(key ^ idx.wrapping_mul(0x9E37_79B9))))
    }
}

impl Body for Ycsb {
    fn run(
        &self,
        _tid: usize,
        idx: u64,
        ops: &mut dyn TxnOps,
        tracer: Option<&Tracer>,
    ) -> Result<(), TxAbort> {
        let (key, put) = self.op(idx);
        match (put, tracer) {
            (Some(v), None) => self.kv.put(ops, key, v).map(drop),
            (None, None) => self.kv.get(ops, key).map(drop),
            (Some(v), Some(t)) => t.span(Kind::KvPut, || self.kv.put(ops, key, v)).map(drop),
            (None, Some(t)) => t.span(Kind::KvGet, || self.kv.get(ops, key)).map(drop),
        }
    }
}

/// Creates and prefills the YCSB store (after the engine, so a rebooted
/// space replays the same reservations) and returns the prefill pairs.
/// The operation cycle is the seeded open-loop YCSB-A schedule with its
/// send times dropped: the same keys and mix the service workload offers.
pub fn ycsb_prepare(mem: &MemorySpace, seed: u64) -> (Ycsb, HashMap<u64, u64>) {
    let cfg = OpenLoopConfig::ycsb_a(1, YCSB_CYCLE as u64, YCSB_RECORDS, seed);
    let kv = ShardedKv::create(mem, &Ycsb::kv_config());
    let mut direct = DirectOps::new(mem);
    let mut pairs = HashMap::with_capacity(YCSB_RECORDS as usize);
    for rank in 0..YCSB_RECORDS {
        let key = cfg.scrambled_key(rank);
        kv.put(&mut direct, key, mix64(key))
            .expect("direct prefill cannot abort");
        pairs.insert(key, mix64(key));
    }
    kv.persist_all(mem, 0);
    let ops = cfg
        .schedule()
        .into_iter()
        .map(|op| match op.kind {
            OpKind::Get { key } => (key, false),
            OpKind::Put { key, .. } => (key, true),
        })
        .collect();
    (Ycsb { kv, ops }, pairs)
}

/// The paper's bank at high contention. Each transaction's five transfers
/// are drawn from a generator seeded by (seed, thread, index), so a
/// re-executed body touches the same accounts.
pub struct Bank {
    pub mix: Box<dyn TxnMix>,
    seed: u64,
}

impl Body for Bank {
    fn run(
        &self,
        tid: usize,
        idx: u64,
        ops: &mut dyn TxnOps,
        _tracer: Option<&Tracer>,
    ) -> Result<(), TxAbort> {
        let mut rng = SplitMix64::new(self.seed ^ mix64(((tid as u64) << 40) | idx));
        self.mix.run_txn(tid, idx, &mut rng, ops)
    }
}

pub const BANK_THREADS: usize = 2;

/// The closed-loop workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Which {
    Ycsb,
    Bank,
}

enum State {
    Ycsb(Ycsb, HashMap<u64, u64>),
    Bank(Bank),
}

impl State {
    fn body(&self) -> &dyn Body {
        match self {
            State::Ycsb(y, _) => y,
            State::Bank(b) => b,
        }
    }
}

/// Transactions per thread before the first window.
fn warmup_ops(which: Which) -> u64 {
    match which {
        Which::Ycsb => 100_000,
        Which::Bank => 20_000,
    }
}

/// Thread 0's transactions over which persist traffic is counted on the
/// single-threaded workload, where the count then repeats exactly.
pub const PREFIX_OPS: u64 = 200_000;

/// Runs a closed-loop workload end to end and returns its metrics. Every
/// set-up gets its own timed window on a fresh memory space, then is
/// crashed, recovered and audited; the last one also gives the layer
/// metrics.
pub fn run(which: Which, args: &Args) -> Outcome {
    let threads = match which {
        Which::Ycsb => 1,
        Which::Bank => BANK_THREADS,
    };
    let windows = common::windows(args);
    let mut m = Metrics::default();
    let mut setups = Vec::new();
    let mut failures = Vec::new();
    let mut lost = 0;
    let mut rss_mib = None;
    for rep in 0..common::SETUPS {
        let t0 = Instant::now();
        let env = common::Env::new(threads);
        let state = match which {
            Which::Ycsb => {
                let (y, pairs) = ycsb_prepare(&env.mem, args.seed);
                State::Ycsb(y, pairs)
            }
            Which::Bank => State::Bank(Bank {
                mix: BankWorkload::paper(Contention::High, threads).prepare(&env.mem),
                seed: args.seed,
            }),
        };
        let plan = Plan {
            threads,
            warmup: warmup_ops(which),
            prefix_ops: PREFIX_OPS,
            windows: &windows,
            crash: true,
        };
        let mut d = drive(env.engine.as_ref(), &env.mem, state.body(), &plan);
        let setup_s = (d.setup_end - t0).as_secs_f64();
        // The first set-up's peak comes before any crash image or reboot.
        rss_mib.get_or_insert(d.rss_mib);
        let (recovery_ms, report, missing) = check(&env, &state, &mut d, threads, &mut failures);
        lost += missing;
        setups.push(summarize(&env, &d, setup_s, recovery_ms, threads));
        if let (true, Some(w1)) = (rep + 1 == common::SETUPS, d.windows.get(1)) {
            let w0 = &d.windows[0];
            layer_metrics(&mut m, &env, &state, w0, w1, threads);
            let overhead = 1.0 - slice_median(w1) / slice_median(w0);
            m.set("gen.trace_overhead_frac", overhead);
            m.note(
                "gen.trace_overhead_frac",
                "throughput lost when traced".to_string(),
            );
            m.set("recovery.sequences_scanned", report.sequences_found as f64);
            m.set(
                "recovery.sequences_rolled_back",
                report.sequences_rolled_back as f64,
            );
            common::write_trace(args, &d.kept_spans);
        }
    }
    report::set_medians(&mut m, &setups);
    m.set("peak_rss_mib", rss_mib.expect("at least one set-up"));
    Outcome {
        metrics: m,
        attempted: setups.iter().map(|s| s.samples).sum(),
        failed: lost,
        failures,
    }
}

/// The end-to-end figures of one set-up's untraced window.
fn summarize(
    env: &common::Env,
    d: &Driven,
    setup_s: f64,
    recovery_ms: f64,
    threads: usize,
) -> Summary {
    let w0 = &d.windows[0];
    let (persist, persist_ops) = match d.prefix_pmem {
        Some(p) if threads == 1 => (p, PREFIX_OPS),
        _ => (w0.pmem, w0.txns),
    };
    Summary {
        setup_s,
        tps: slice_median(w0),
        p50_ns: w0.hist.percentile(0.5),
        samples: w0.hist.count(),
        persist_ns_per_op: persist_ns(&persist, &env.latency()) as f64 / persist_ops as f64,
        persist_ops,
        recovery_ms,
    }
}

/// Checks the live state, then recovers the crash image, reboots it and
/// audits it. Returns the median recovery time, the recovery report and
/// the number of acknowledged writes the recovered state lacks.
fn check(
    env: &common::Env,
    state: &State,
    d: &mut Driven,
    threads: usize,
    failures: &mut Vec<String>,
) -> (f64, RecoveryReport, u64) {
    let live = match state {
        State::Ycsb(y, _) => y.kv.check_integrity(&env.mem),
        State::Bank(b) => b.mix.verify(&env.mem),
    };
    if let Err(e) = live {
        failures.push(format!("live state: {e}"));
    }
    let image = d.image.take().expect("closed loop took a crash image");
    let (recovered, report, recovery_ms) = common::recover_timed(&image, env.dir);
    let rebooted = common::reboot(&recovered, threads);
    let lost = match state {
        State::Ycsb(y, pairs) => {
            let kv2 = ShardedKv::open(&rebooted.mem, &Ycsb::kv_config());
            if let Err(e) = kv2.check_integrity(&rebooted.mem) {
                failures.push(format!("recovered store: {e}"));
            }
            ycsb_audit(
                y,
                pairs,
                d.executed[0],
                &kv2,
                &rebooted.mem,
                &report,
                failures,
            )
        }
        State::Bank(b) => {
            if let Err(e) = b.mix.verify(&rebooted.mem) {
                failures.push(format!("recovered bank: {e}"));
            }
            0
        }
    };
    (recovery_ms, report, lost)
}

fn layer_metrics(
    m: &mut Metrics,
    env: &common::Env,
    state: &State,
    w0: &WindowOut,
    w1: &WindowOut,
    threads: usize,
) {
    // Counters from the untraced window, spans and phase timers from the
    // traced one.
    let thread_ns = w0.wall.as_nanos() as f64 * threads as f64;
    report::pmem_layer(m, &w0.pmem, &env.latency(), w0.txns, thread_ns);
    report::engine_layer(m, &w0.breakdown, w0.txns);
    report::traced_engine_layer(m, &w1.breakdown, w1.txns);
    report::span_layer(m, &w1.spans, w1.txns);
    if let State::Ycsb(y, _) = state {
        let s = y.kv.stats(&env.mem);
        m.set(
            "kv.arena_words_per_record",
            s.arena_used as f64 / s.len as f64,
        );
    }
    m.set("gen.samples", w0.hist.count() as f64);
    m.set_pct_us("gen.latency_p99_us", &w0.hist, 0.99);
    m.set_pct_us("gen.latency_p999_us", &w0.hist, 0.999);
}

/// The window's median slice throughput, or its whole-window throughput
/// when it is shorter than one slice.
fn slice_median(w: &WindowOut) -> f64 {
    if w.slice_tps.is_empty() {
        w.txns as f64 / w.wall.as_secs_f64()
    } else {
        report::median(&w.slice_tps)
    }
}

/// Checks the recovered store against the writes the run made: replays
/// the deterministic op stream over the prefill to get the state after
/// the last transaction, then requires the recovered store to equal that
/// state with at most the last `sequences_rolled_back` puts undone (the
/// paper's recovery rolls back each thread's latest sequence). Returns
/// the number of keys that match no such state.
fn ycsb_audit(
    y: &Ycsb,
    pairs: &HashMap<u64, u64>,
    executed: u64,
    kv2: &ShardedKv,
    mem2: &MemorySpace,
    report: &RecoveryReport,
    failures: &mut Vec<String>,
) -> u64 {
    let mut state = pairs.clone();
    let mut puts: Vec<(u64, u64)> = Vec::new(); // (key, previous value)
    for idx in 0..executed {
        if let (key, Some(v)) = y.op(idx) {
            let prev = state.insert(key, v).expect("puts hit prefilled keys");
            puts.push((key, prev));
        }
    }
    let tail = report.sequences_rolled_back.min(puts.len());
    let recent = &puts[puts.len() - tail..];
    let mut lost = 0u64;
    for (&key, &v) in &state {
        if recent.iter().any(|&(k, _)| k == key) {
            continue;
        }
        if kv2.get_direct(mem2, key) != Some(v) {
            lost += 1;
        }
    }
    // The recent keys must match the final state with some suffix undone.
    let recent_ok = (0..=tail).any(|undo| {
        let mut expect: HashMap<u64, u64> = recent.iter().map(|&(k, _)| (k, state[&k])).collect();
        for &(k, prev) in recent.iter().rev().take(undo) {
            expect.insert(k, prev);
        }
        expect
            .iter()
            .all(|(&k, &v)| kv2.get_direct(mem2, k) == Some(v))
    });
    if !recent_ok {
        lost += 1;
    }
    let live = kv2.collect_pairs(mem2).len();
    if live != state.len() {
        failures.push(format!(
            "recovered store has {live} keys, expected {}",
            state.len()
        ));
    }
    if lost > 0 {
        failures.push(format!("{lost} acknowledged writes missing after recovery"));
    }
    lost
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Persist traffic of the first transactions of a single-threaded
    /// YCSB run, after a warm-up.
    fn prefix_counts(seed: u64) -> PmemStats {
        let env = common::Env::new(1);
        let (y, _) = ycsb_prepare(&env.mem, seed);
        let plan = Plan {
            threads: 1,
            warmup: 1_000,
            prefix_ops: 2_000,
            windows: &[Window {
                dur: Duration::from_millis(300),
                traced: false,
            }],
            crash: false,
        };
        let d = drive(env.engine.as_ref(), &env.mem, &y, &plan);
        d.prefix_pmem
            .expect("the window ran past the counted prefix")
    }

    #[test]
    fn single_threaded_persist_counts_repeat_exactly() {
        let a = prefix_counts(42);
        let b = prefix_counts(42);
        assert_eq!(a, b);
        assert!(a.drains > 0 && a.words_persisted > 0);
    }
}
