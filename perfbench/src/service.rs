//! The open-loop service workload, `svc-ycsb-a`.
//!
//! One generator thread offers a seeded Poisson schedule of YCSB-A
//! requests over one loopback connection to a `KvServer` with one worker
//! and group commit (one drain and one `persist_fence` per pipelined write
//! batch, before any ack). The generator's socket is nonblocking: each
//! turn of its loop sends whatever is due, reads whatever has arrived and
//! yields, so the generator and the server worker are the only busy
//! threads. `run.py` puts both on one CPU, where the worker runs as soon as
//! a request wakes it instead of waiting for the host to wake an idle
//! virtual CPU. Latency runs from each request's intended send time to its
//! reply.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crafty_common::trace::{self as ctrace, TraceLevel};
use crafty_common::{mix64, BreakdownSnapshot, PAddr, PersistentTm};
use crafty_core::RecoveryReport;
use crafty_kv::{DirectOps, SessionTable, ShardedKv};
use crafty_pmem::{MemorySpace, PersistentImage, PmemStats};
use crafty_server::protocol::frame_payload_len;
use crafty_server::{
    KvClient, KvServer, Request, Response, ServerConfig, ServerStats, StatsReport,
};
use crafty_workloads::{OpKind, OpenLoopConfig, ScheduledOp};

use crate::closed::{Ycsb, YCSB_RECORDS};
use crate::hist::Hist;
use crate::model::persist_ns;
use crate::report::{self, Metrics, Summary};
use crate::trace::{Kind, Tracer};
use crate::{common, Args, Outcome};

/// Offered load, requests per second: far below one worker's capacity, so
/// the numbers describe a healthy server.
pub const RATE: u64 = 20_000;
/// Requests sent before the timed schedule starts.
const WARMUP_OPS: u64 = 4_000;
/// How long the generator waits for outstanding replies after the last
/// send before counting them as unanswered.
const GRACE: Duration = Duration::from_secs(5);

/// What one pass of the generator over a schedule saw.
struct Pass {
    latency: Hist,
    late: Hist,
    completed: u64,
    failed: u64,
    /// Reply time of the last reply, from the pass's start.
    last_reply_ns: u64,
}

/// The client side of the one connection.
struct Generator {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    inbox: Vec<u8>,
    /// Requests awaiting replies, oldest first: schedule index and the
    /// reply the shadow state predicts.
    pending: VecDeque<(usize, Response)>,
    /// The store's contents as the acknowledged writes left them.
    shadow: HashMap<u64, u64>,
    errors: Vec<String>,
}

impl Generator {
    fn connect(addr: std::net::SocketAddr, shadow: HashMap<u64, u64>) -> Generator {
        let stream = TcpStream::connect(addr).expect("connect to the loopback server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_nonblocking(true)
            .expect("make the socket nonblocking");
        Generator {
            stream,
            out: Vec::with_capacity(1 << 16),
            sent: 0,
            inbox: Vec::with_capacity(1 << 16),
            pending: VecDeque::with_capacity(1 << 12),
            shadow,
            errors: Vec::new(),
        }
    }

    /// Offers `sched` (times relative to the call) and collects every
    /// reply, checking each against the shadow state.
    fn run(&mut self, sched: &[ScheduledOp], tracer: Option<&Tracer>) -> Pass {
        let mut pass = Pass {
            latency: Hist::new(),
            late: Hist::new(),
            completed: 0,
            failed: 0,
            last_reply_ns: 0,
        };
        let start = Instant::now();
        let mut next = 0usize;
        let mut buf = [0u8; 1 << 14];
        let mut give_up: Option<Instant> = None;
        loop {
            let now = start.elapsed().as_nanos() as u64;
            while next < sched.len() && sched[next].at_ns <= now {
                let op = sched[next];
                pass.late.record(now - op.at_ns);
                let (req, expect) = match op.kind {
                    OpKind::Get { key } => (Request::Get { key }, reply(self.shadow.get(&key))),
                    OpKind::Put { key, value } => (
                        Request::Put { key, value },
                        reply(self.shadow.insert(key, value).as_ref()),
                    ),
                };
                req.encode(&mut self.out);
                self.pending.push_back((next, expect));
                next += 1;
            }
            if self.sent < self.out.len() {
                match self.stream.write(&self.out[self.sent..]) {
                    Ok(n) => self.sent += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) => {
                        self.errors.push(format!("send failed: {e}"));
                        break;
                    }
                }
                if self.sent == self.out.len() {
                    self.out.clear();
                    self.sent = 0;
                }
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.errors.push("server closed the connection".to_string());
                    break;
                }
                Ok(n) => {
                    let at = start.elapsed().as_nanos() as u64;
                    self.inbox.extend_from_slice(&buf[..n]);
                    if !self.take_replies(sched, at, &mut pass, tracer) {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => {
                    self.errors.push(format!("receive failed: {e}"));
                    break;
                }
            }
            if next == sched.len() {
                if self.pending.is_empty() {
                    break;
                }
                let deadline = *give_up.get_or_insert_with(|| Instant::now() + GRACE);
                if Instant::now() >= deadline {
                    self.errors
                        .push(format!("{} requests unanswered", self.pending.len()));
                    break;
                }
            }
            std::thread::yield_now();
        }
        pass.failed += (sched.len() as u64) - pass.completed - pass.failed;
        pass
    }

    /// Parses every whole reply frame in the inbox. Returns false when
    /// the stream can no longer be trusted.
    fn take_replies(
        &mut self,
        sched: &[ScheduledOp],
        at: u64,
        pass: &mut Pass,
        tracer: Option<&Tracer>,
    ) -> bool {
        let mut consumed = 0;
        let ok = loop {
            let len = match frame_payload_len(&self.inbox[consumed..]) {
                Ok(Some(len)) => len,
                Ok(None) => break true,
                Err(e) => {
                    self.errors.push(format!("bad reply frame: {e:?}"));
                    break false;
                }
            };
            let start = consumed + crafty_server::protocol::HEADER_LEN;
            consumed = start + len;
            let Some((i, expect)) = self.pending.pop_front() else {
                self.errors.push("reply without a request".to_string());
                break false;
            };
            let at_ns = sched[i].at_ns;
            match Response::decode(&self.inbox[start..consumed]) {
                Ok(got) if got == expect => {
                    pass.completed += 1;
                    pass.latency.record(at - at_ns);
                    pass.last_reply_ns = at;
                    if let Some(t) = tracer {
                        t.record(Kind::Request, at_ns, at, i as u64);
                    }
                }
                Ok(got) => {
                    pass.failed += 1;
                    if self.errors.len() < 8 {
                        self.errors
                            .push(format!("request {i}: expected {expect:?}, got {got:?}"));
                    }
                }
                Err(e) => {
                    self.errors.push(format!("undecodable reply: {e:?}"));
                    break false;
                }
            }
        };
        self.inbox.drain(..consumed);
        ok
    }
}

/// The reply a get (or a put, which returns the previous value) earns
/// from a store holding `value`.
fn reply(value: Option<&u64>) -> Response {
    match value {
        Some(&value) => Response::Found { value },
        None => Response::Missing,
    }
}

/// A booted service, warmed up, with its schedule ready.
struct Service {
    mem: Arc<MemorySpace>,
    engine: Arc<dyn PersistentTm>,
    dir: PAddr,
    kv: ShardedKv,
    server: KvServer,
    generator: Generator,
    schedule: Vec<ScheduledOp>,
}

fn boot(args: &Args) -> Service {
    let env = common::Env::new(1);
    let engine: Arc<dyn PersistentTm> = Arc::from(env.engine);
    let mem = env.mem;
    let share = args.seconds / common::SETUPS as f64;
    let cfg = OpenLoopConfig::ycsb_a(RATE, ops_for(share), YCSB_RECORDS, args.seed);
    let kv = ShardedKv::create(&mem, &Ycsb::kv_config());
    let mut shadow = HashMap::with_capacity(YCSB_RECORDS as usize);
    let mut direct = DirectOps::new(&mem);
    for rank in 0..YCSB_RECORDS {
        let key = cfg.scrambled_key(rank);
        kv.put(&mut direct, key, mix64(key))
            .expect("direct prefill cannot abort");
        shadow.insert(key, mix64(key));
    }
    kv.persist_all(&mem, 0);
    let sessions = SessionTable::create(&mem, 64);
    let server = KvServer::start(
        Arc::clone(&engine),
        kv,
        sessions,
        ServerConfig::loopback(1, true),
    )
    .expect("start the loopback server");
    let mut generator = Generator::connect(server.local_addr(), shadow);
    // Warm-up replays the head of the same traffic; the shadow follows.
    let warm = OpenLoopConfig {
        ops: WARMUP_OPS,
        ..cfg
    }
    .schedule();
    let pass = generator.run(&warm, None);
    if pass.failed > 0 {
        generator
            .errors
            .insert(0, format!("{} warm-up requests failed", pass.failed));
    }
    Service {
        mem,
        engine,
        dir: env.dir,
        kv,
        server,
        generator,
        schedule: cfg.schedule(),
    }
}

/// Requests in a schedule of `seconds` at [`RATE`].
fn ops_for(seconds: f64) -> u64 {
    ((RATE as f64 * seconds) as u64).max(1)
}

/// One timed part of the schedule and the counter deltas it caused.
struct Part {
    pass: Pass,
    pmem: PmemStats,
    breakdown: BreakdownSnapshot,
    server: ServerStats,
    /// Intended send time of the part's last request.
    span_ns: u64,
}

/// Offers `sched` with its times restarted at zero.
fn offer(svc: &mut Service, sched: &[ScheduledOp], tracer: Option<&Tracer>) -> Part {
    let base = sched[0].at_ns;
    let rebased: Vec<ScheduledOp> = sched
        .iter()
        .map(|op| ScheduledOp {
            at_ns: op.at_ns - base,
            kind: op.kind,
        })
        .collect();
    if tracer.is_some() {
        ctrace::set_level(TraceLevel::Counters);
    }
    let p0 = svc.mem.stats();
    let b0 = svc.engine.breakdown();
    let s0 = svc.server.stats();
    let pass = svc.generator.run(&rebased, tracer);
    ctrace::set_level(TraceLevel::Off);
    Part {
        pass,
        pmem: svc.mem.stats().since(&p0),
        breakdown: svc.engine.breakdown().since(&b0),
        server: diff(svc.server.stats(), s0),
        span_ns: rebased.last().map_or(1, |op| op.at_ns.max(1)),
    }
}

/// Runs the service workload end to end and returns its metrics. Every
/// set-up boots a fresh service, offers it its share of the run time, and
/// is then crashed, recovered and audited; the last one also gives the
/// layer metrics.
pub fn run(args: &Args) -> Outcome {
    let mut m = Metrics::default();
    let mut failures = Vec::new();
    let mut setups = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut rss_mib = None;
    for rep in 0..common::SETUPS {
        let t0 = Instant::now();
        let mut svc = boot(args);
        let setup_s = t0.elapsed().as_secs_f64();
        let tracer = Tracer::new(Instant::now());
        // Traced: an untraced first half, then a traced second half.
        let schedule = std::mem::take(&mut svc.schedule);
        let parts = if args.trace {
            let (a, b) = schedule.split_at(schedule.len() / 2);
            vec![offer(&mut svc, a, None), offer(&mut svc, b, Some(&tracer))]
        } else {
            vec![offer(&mut svc, &schedule, None)]
        };
        for part in &parts {
            attempted += part.pass.completed + part.pass.failed;
            failed += part.pass.failed;
        }
        // The first set-up's peak comes before any crash image or reboot.
        rss_mib.get_or_insert(report::peak_rss_mib());
        let image = svc.mem.crash();
        let Service {
            mem,
            dir,
            kv,
            server,
            generator,
            ..
        } = svc;
        // The worker serves one connection at a time: close the
        // generator's before asking for the server's latency summary.
        let Generator {
            stream,
            errors,
            shadow,
            ..
        } = generator;
        drop(stream);
        failures.extend(errors);
        let layers = rep + 1 == common::SETUPS && parts.len() > 1;
        let stats = layers.then(|| {
            KvClient::connect(server.local_addr()).and_then(|mut c| {
                c.set_read_timeout(Some(GRACE))?;
                c.stats()
                    .map_err(|e| std::io::Error::other(format!("{e:?}")))
            })
        });
        server.shutdown();

        if let Err(e) = kv.check_integrity(&mem) {
            failures.push(format!("live store: {e}"));
        }
        let (recovered, report, recovery_ms) = common::recover_timed(&image, dir);
        failed += audit(&recovered, &shadow, &mut failures);
        let p = &parts[0].pass;
        setups.push(Summary {
            setup_s,
            tps: p.completed as f64 / (p.last_reply_ns.max(1) as f64 / 1e9),
            p50_ns: p.latency.percentile(0.5),
            samples: p.latency.count(),
            persist_ns_per_op: persist_ns(&parts[0].pmem, &mem.config().latency) as f64
                / p.completed.max(1) as f64,
            persist_ops: p.completed,
            recovery_ms,
        });
        if let Some(stats) = stats {
            match stats {
                Ok(r) => layer_metrics(&mut m, &parts[0], &parts[1], &r, &mem, &kv, &report),
                Err(e) => failures.push(format!("STATS request failed: {e}")),
            }
            common::write_trace(args, &[tracer.take_spans()]);
        }
    }
    report::set_medians(&mut m, &setups);
    m.set("peak_rss_mib", rss_mib.expect("at least one set-up"));
    Outcome {
        metrics: m,
        attempted,
        failed,
        failures,
    }
}

/// Reboots the recovered image and checks that it holds exactly the
/// acknowledged state. Returns the number of acknowledged writes missing.
fn audit(
    recovered: &PersistentImage,
    shadow: &HashMap<u64, u64>,
    failures: &mut Vec<String>,
) -> u64 {
    let rebooted = common::reboot(recovered, 1);
    let kv2 = ShardedKv::open(&rebooted.mem, &Ycsb::kv_config());
    if let Err(e) = kv2.check_integrity(&rebooted.mem) {
        failures.push(format!("recovered store: {e}"));
    }
    let lost = shadow
        .iter()
        .filter(|&(&k, &v)| kv2.get_direct(&rebooted.mem, k) != Some(v))
        .count() as u64;
    if lost > 0 {
        failures.push(format!("{lost} acknowledged writes missing after recovery"));
    }
    let live = kv2.collect_pairs(&rebooted.mem).len();
    if live != shadow.len() {
        failures.push(format!(
            "recovered store has {live} keys, expected {}",
            shadow.len()
        ));
    }
    lost
}

/// The per-layer metrics of the last set-up: counters from the untraced
/// `first` part, phase timers from the `traced` part.
fn layer_metrics(
    m: &mut Metrics,
    first: &Part,
    traced: &Part,
    stats: &StatsReport,
    mem: &MemorySpace,
    kv: &ShardedKv,
    recovery: &RecoveryReport,
) {
    let p = &first.pass;
    let server = &first.server;
    let wall_s = p.last_reply_ns.max(1) as f64 / 1e9;
    report::pmem_layer(
        m,
        &first.pmem,
        &mem.config().latency,
        p.completed,
        wall_s * 1e9,
    );
    report::engine_layer(m, &first.breakdown, server.requests);
    report::traced_engine_layer(m, &traced.breakdown, traced.server.requests);
    m.set("server.mean_batch", server.mean_batch());
    m.set(
        "server.fences_per_batch",
        server.flushes as f64 / server.batches.max(1) as f64,
    );
    m.set("server.shed_batches", server.shed_batches as f64);
    m.set("server.protocol_errors", server.protocol_errors as f64);
    let service = stats.latency_p50_ns as f64 / 1e3;
    m.set("server.service_p50_us", service);
    m.note(
        "server.service_p50_us",
        format!("n={}", stats.latency_count),
    );
    if let Some(client) = p.latency.percentile(0.5) {
        m.set("server.outside_p50_us", client as f64 / 1e3 - service);
    }
    let s = kv.stats(mem);
    m.set(
        "kv.arena_words_per_record",
        s.arena_used as f64 / s.len as f64,
    );
    m.set(
        "recovery.sequences_scanned",
        recovery.sequences_found as f64,
    );
    m.set(
        "recovery.sequences_rolled_back",
        recovery.sequences_rolled_back as f64,
    );
    m.set_pct_us("gen.late_p50_us", &p.late, 0.50);
    m.set_pct_us("gen.late_p99_us", &p.late, 0.99);
    m.set_pct_us("gen.latency_p99_us", &p.latency, 0.99);
    m.set_pct_us("gen.latency_p999_us", &p.latency, 0.999);
    m.set("gen.samples", p.latency.count() as f64);
    let offered = (p.completed + p.failed) as f64 / (first.span_ns as f64 / 1e9);
    m.set(
        "gen.achieved_ratio",
        (p.completed as f64 / wall_s) / offered,
    );
    if let (Some(a), Some(b)) = (
        p.latency.percentile(0.5),
        traced.pass.latency.percentile(0.5),
    ) {
        m.set("gen.trace_overhead_frac", b as f64 / a as f64 - 1.0);
        m.note(
            "gen.trace_overhead_frac",
            "p50 latency added when traced".to_string(),
        );
    }
}

fn diff(a: ServerStats, b: ServerStats) -> ServerStats {
    ServerStats {
        connections: a.connections - b.connections,
        requests: a.requests - b.requests,
        batches: a.batches - b.batches,
        flushes: a.flushes - b.flushes,
        protocol_errors: a.protocol_errors - b.protocol_errors,
        shed_batches: a.shed_batches - b.shed_batches,
        sessions: a.sessions - b.sessions,
    }
}
