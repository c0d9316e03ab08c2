//! Metric names, units, the layer metrics shared by every workload, and
//! the result line.

use std::collections::BTreeMap;

use crafty_common::trace::{AbortCause, TxnPhase};
use crafty_common::{BreakdownSnapshot, CompletionPath, HwTxnOutcome};
use crafty_pmem::{LatencyModel, PmemStats};

use crate::common::RECOVERIES;
use crate::hist::Hist;
use crate::model::persist_ns;
use crate::trace::{Kind, Totals};

/// End-to-end metrics, printed by the untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_tps", "txn/s"),
    ("latency_p50_us", "us"),
    ("persist_ns_per_op", "ns"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pmem.drains_per_op", "count"),
    ("pmem.flush_ranges_per_op", "count"),
    ("pmem.lines_per_range", "count"),
    ("pmem.words_persisted_per_op", "count"),
    ("pmem.write_amplification", "ratio"),
    ("pmem.overflow_writebacks_per_op", "count"),
    ("pmem.busy_frac", "ratio"),
    ("htm.attempts_per_txn", "count"),
    ("htm.commit_ratio", "ratio"),
    ("htm.conflict_aborts_per_txn", "count"),
    ("htm.capacity_aborts_per_txn", "count"),
    ("htm.explicit_aborts_per_txn", "count"),
    ("htm.abort_cause.conflict", "count"),
    ("htm.abort_cause.capacity", "count"),
    ("htm.abort_cause.explicit", "count"),
    ("htm.abort_cause.persistent-doomed", "count"),
    ("htm.abort_cause.sgl-fallback", "count"),
    ("core.execute_us", "us"),
    ("core.self_us_per_txn", "us"),
    ("core.body_runs_per_txn", "count"),
    ("core.useful_ratio", "ratio"),
    ("core.txnops_us_per_txn", "us"),
    ("core.path_frac.read_only", "ratio"),
    ("core.path_frac.redo", "ratio"),
    ("core.path_frac.validate", "ratio"),
    ("core.path_frac.fallback", "ratio"),
    ("core.phase_us_per_txn.log", "us"),
    ("core.phase_us_per_txn.redo", "us"),
    ("core.phase_us_per_txn.validate", "us"),
    ("core.phase_us_per_txn.fallback", "us"),
    ("core.phase_us_per_txn.drain", "us"),
    ("core.phase_us_per_txn.fence", "us"),
    ("kv.get_us", "us"),
    ("kv.put_us", "us"),
    ("kv.txnops_per_op", "count"),
    ("kv.arena_words_per_record", "count"),
    ("server.mean_batch", "count"),
    ("server.fences_per_batch", "ratio"),
    ("server.service_p50_us", "us"),
    ("server.outside_p50_us", "us"),
    ("server.shed_batches", "count"),
    ("server.protocol_errors", "count"),
    ("recovery.ms", "ms"),
    ("recovery.sequences_scanned", "count"),
    ("recovery.sequences_rolled_back", "count"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.latency_p99_us", "us"),
    ("gen.latency_p999_us", "us"),
    ("gen.samples", "count"),
    ("gen.achieved_ratio", "ratio"),
    ("gen.trace_overhead_frac", "ratio"),
];

/// One run's measured values, by metric name. Metrics a workload does not
/// exercise stay unset and print as 0, marked `n/a` in the readable table.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Sets a percentile metric in microseconds and notes its sample
    /// count. A percentile the sample cannot support is left unset and
    /// noted as such.
    pub fn set_pct_us(&mut self, name: &'static str, h: &Hist, q: f64) {
        match h.percentile(q) {
            Some(ns) => {
                self.set(name, ns as f64 / 1e3);
                self.note(name, format!("n={}", h.count()));
            }
            None => self.note(name, format!("too few samples (n={})", h.count())),
        }
    }

    pub fn note(&mut self, name: &'static str, text: String) {
        self.notes.insert(name, text);
    }

    /// Prints the readable table for `list`, then the result line.
    pub fn print(&self, list: &[(&str, &str)], attempted: u64, failed: u64, correct: bool) {
        for (name, unit) in list {
            let note = self
                .notes
                .get(name)
                .map_or(String::new(), |n| format!("  ({n})"));
            match self.values.get(name) {
                Some(v) => println!("  {name:<36} {v:>16.4} {unit}{note}"),
                None => println!("  {name:<36} {:>16} {unit}{note}", "n/a"),
            }
        }
        let body: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_f64(v)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }
}

/// A finite float as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
fn json_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One set-up's end-to-end figures. A run reports, for each, the median
/// over its set-ups: each set-up is a fresh memory space and a fresh crash
/// image, so one unlucky placement in memory moves the run's figure
/// little.
pub struct Summary {
    pub setup_s: f64,
    pub tps: f64,
    /// Median latency, when the sample supports it.
    pub p50_ns: Option<u64>,
    /// Latency samples, one per operation of the timed window.
    pub samples: u64,
    pub persist_ns_per_op: f64,
    /// Operations the persist cost was counted over.
    pub persist_ops: u64,
    /// Median time of `recover` on the set-up's crash image.
    pub recovery_ms: f64,
}

/// Sets the metrics every set-up measures, as medians over the set-ups.
pub fn set_medians(m: &mut Metrics, setups: &[Summary]) {
    let n = setups.len();
    let med = |f: &dyn Fn(&Summary) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    m.set("setup_s", med(&|s| s.setup_s));
    m.note("setup_s", format!("median of {n} set-ups"));
    m.set("throughput_tps", med(&|s| s.tps));
    m.note("throughput_tps", format!("median of {n} set-ups' windows"));
    let p50: Option<Vec<f64>> = setups
        .iter()
        .map(|s| s.p50_ns.map(|ns| ns as f64 / 1e3))
        .collect();
    let samples: Vec<String> = setups.iter().map(|s| s.samples.to_string()).collect();
    match p50 {
        Some(v) => {
            m.set("latency_p50_us", median(&v));
            m.note(
                "latency_p50_us",
                format!("median of {n} set-ups, n={}", samples.join("/")),
            );
        }
        None => m.note(
            "latency_p50_us",
            format!("too few samples (n={})", samples.join("/")),
        ),
    }
    m.set("persist_ns_per_op", med(&|s| s.persist_ns_per_op));
    m.note(
        "persist_ns_per_op",
        format!(
            "median of {n} set-ups, each over {} ops",
            setups[n - 1].persist_ops
        ),
    );
    m.set("recovery.ms", med(&|s| s.recovery_ms));
    m.note(
        "recovery.ms",
        format!("median of {n} set-ups, each the median of {RECOVERIES} recoveries"),
    );
}

/// The `pmem.*` metrics from one window's counter deltas. `thread_ns` is
/// the window's wall time times the threads that issue persist traffic.
pub fn pmem_layer(m: &mut Metrics, d: &PmemStats, lat: &LatencyModel, ops: u64, thread_ns: f64) {
    let ops = ops as f64;
    m.set("pmem.drains_per_op", ratio(d.drains as f64, ops));
    m.set(
        "pmem.flush_ranges_per_op",
        ratio(d.flush_ranges as f64, ops),
    );
    m.set("pmem.lines_per_range", d.lines_per_range());
    m.set(
        "pmem.words_persisted_per_op",
        ratio(d.words_persisted as f64, ops),
    );
    m.set("pmem.write_amplification", d.write_amplification());
    m.set(
        "pmem.overflow_writebacks_per_op",
        ratio(d.overflow_writebacks as f64, ops),
    );
    m.set(
        "pmem.busy_frac",
        ratio(persist_ns(d, lat) as f64, thread_ns),
    );
}

/// The `htm.*` metrics and the counter-based `core.*` metrics from one
/// window's breakdown delta.
pub fn engine_layer(m: &mut Metrics, b: &BreakdownSnapshot, txns: u64) {
    let t = txns as f64;
    let attempts = b.total_hardware() as f64;
    m.set("htm.attempts_per_txn", ratio(attempts, t));
    m.set(
        "htm.commit_ratio",
        ratio(b.hw(HwTxnOutcome::Commit) as f64, attempts),
    );
    m.set(
        "htm.conflict_aborts_per_txn",
        ratio(b.hw(HwTxnOutcome::Conflict) as f64, t),
    );
    m.set(
        "htm.capacity_aborts_per_txn",
        ratio(b.hw(HwTxnOutcome::Capacity) as f64, t),
    );
    m.set(
        "htm.explicit_aborts_per_txn",
        ratio(b.hw(HwTxnOutcome::Explicit) as f64, t),
    );
    let done = b.total_persistent() as f64;
    for (name, path) in [
        ("core.path_frac.read_only", CompletionPath::ReadOnly),
        ("core.path_frac.redo", CompletionPath::Redo),
        ("core.path_frac.validate", CompletionPath::Validate),
        ("core.path_frac.fallback", CompletionPath::Sgl),
    ] {
        m.set(name, ratio(b.completions(path) as f64, done));
    }
}

/// The metrics that need the trace level's counters: abort causes and
/// engine phase times, per transaction.
pub fn traced_engine_layer(m: &mut Metrics, b: &BreakdownSnapshot, txns: u64) {
    let t = txns as f64;
    for (name, cause) in [
        ("htm.abort_cause.conflict", AbortCause::Conflict),
        ("htm.abort_cause.capacity", AbortCause::Capacity),
        ("htm.abort_cause.explicit", AbortCause::Explicit),
        (
            "htm.abort_cause.persistent-doomed",
            AbortCause::PersistentDoomed,
        ),
        ("htm.abort_cause.sgl-fallback", AbortCause::SglFallback),
    ] {
        m.set(name, ratio(b.abort_cause(cause) as f64, t));
    }
    for (name, phase) in [
        ("core.phase_us_per_txn.log", TxnPhase::Log),
        ("core.phase_us_per_txn.redo", TxnPhase::Redo),
        ("core.phase_us_per_txn.validate", TxnPhase::Validate),
        ("core.phase_us_per_txn.fallback", TxnPhase::Sgl),
        ("core.phase_us_per_txn.drain", TxnPhase::Drain),
        ("core.phase_us_per_txn.fence", TxnPhase::Fence),
    ] {
        m.set(name, ratio(b.phase_cycles(phase) as f64 / 1e3, t));
    }
}

/// The span-based `core.*` and `kv.*` metrics of a closed-loop window.
pub fn span_layer(m: &mut Metrics, s: &Totals, txns: u64) {
    let t = txns as f64;
    let exec = s.get(Kind::Execute);
    let body = s.get(Kind::Body);
    let ops = s.txnops();
    m.set(
        "core.execute_us",
        ratio(exec.total_ns as f64 / 1e3, exec.count as f64),
    );
    m.set("core.self_us_per_txn", ratio(exec.self_ns as f64 / 1e3, t));
    m.set("core.body_runs_per_txn", ratio(body.count as f64, t));
    m.set("core.useful_ratio", ratio(t, body.count as f64));
    m.set(
        "core.txnops_us_per_txn",
        ratio(ops.total_ns as f64 / 1e3, t),
    );
    let get = s.get(Kind::KvGet);
    let put = s.get(Kind::KvPut);
    if get.count + put.count > 0 {
        m.set(
            "kv.get_us",
            ratio(get.self_ns as f64 / 1e3, get.count as f64),
        );
        m.set(
            "kv.put_us",
            ratio(put.self_ns as f64 / 1e3, put.count as f64),
        );
        m.set(
            "kv.txnops_per_op",
            ratio(s.kv_txnops as f64, (get.count + put.count) as f64),
        );
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark description lists is one this program
    /// prints, in the right section, and nothing else.
    #[test]
    fn metric_lists_match_the_benchmark_description() {
        let desc = include_str!("../../BENCHMARK.json");
        let (head, per_layer) = desc.split_once("\"per_layer\"").expect("per_layer section");
        let (_, e2e) = head
            .split_once("\"end_to_end\"")
            .expect("end_to_end section");
        let names = |s: &str| -> Vec<String> {
            s.split("\"name\":")
                .skip(1)
                .map(|r| {
                    r.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let listed =
            |l: &[(&str, &str)]| -> Vec<String> { l.iter().map(|(n, _)| n.to_string()).collect() };
        assert_eq!(names(e2e), listed(END_TO_END));
        assert_eq!(names(per_layer), listed(PER_LAYER));
        let (workloads, _) = head
            .split_once("\"end_to_end\"")
            .expect("workloads section");
        let whys: Vec<String> = workloads
            .split("\"why\":")
            .skip(1)
            .map(|r| {
                r.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = crate::WORKLOADS
            .iter()
            .map(|(_, why)| why.to_string())
            .collect();
        assert_eq!(names(workloads), listed(crate::WORKLOADS));
        assert_eq!(whys, ours);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(1.234567891), "1.234567891");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
