//! End-to-end service test: boot a real Crafty engine behind the TCP
//! front-end, load it over the wire, and read the live metrics back
//! through the protocol's `Stats` request.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};

use crafty_common::PersistentTm;
use crafty_core::{Crafty, CraftyConfig};
use crafty_kv::{DirectOps, KvConfig, SessionTable, ShardedKv};
use crafty_pmem::{MemorySpace, PmemConfig};
#[cfg(not(feature = "no-session-dedup"))]
use crafty_server::ClientError;
use crafty_server::{KvClient, KvServer, Request, Response, ServerConfig};

const RECORDS: u64 = 256;
const WORKERS: usize = 2;

/// Boots a prefilled store behind a loopback server, Crafty engine,
/// group commit on.
fn boot() -> (Arc<MemorySpace>, Arc<Crafty>, KvServer) {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let engine = Arc::new(Crafty::new(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests().with_max_threads(WORKERS),
    ));
    let kv = ShardedKv::create(&mem, &KvConfig::benchmark(RECORDS, 16));
    {
        let mut ops = DirectOps::new(&mem);
        for key in 0..RECORDS {
            kv.put(&mut ops, key, key * 3).expect("direct prefill");
        }
        kv.persist_all(&mem, 0);
    }
    let sessions = SessionTable::create(&mem, 64);
    let server = KvServer::start(
        Arc::clone(&engine) as Arc<dyn crafty_common::PersistentTm>,
        kv,
        sessions,
        ServerConfig::loopback(WORKERS, true),
    )
    .expect("bind loopback server");
    (mem, engine, server)
}

#[test]
fn stats_reports_live_percentiles_from_a_loaded_server() {
    let (_mem, engine, server) = boot();
    let mut client = KvClient::connect(server.local_addr()).expect("connect");

    // A fresh server has counted nothing but this connection.
    let idle = client.stats().expect("stats on idle server");
    assert_eq!(idle.requests, 0, "stats must reflect only completed work");
    assert_eq!(idle.latency_count, 0);
    assert_eq!(idle.latency_p999_ns, 0);

    // Load it: pipelined mixed batches, so the server sees real
    // group-commit windows and every request lands in the histogram.
    const BATCHES: u64 = 20;
    const PER_BATCH: u64 = 8;
    for b in 0..BATCHES {
        let mut reqs = Vec::new();
        for i in 0..PER_BATCH {
            let key = (b * PER_BATCH + i) % RECORDS;
            if i % 2 == 0 {
                reqs.push(Request::Put {
                    key,
                    value: key + 1000,
                });
            } else {
                reqs.push(Request::Get { key });
            }
        }
        client.send(&reqs).expect("send batch");
        let responses = client.recv(reqs.len()).expect("recv batch");
        assert_eq!(responses.len(), reqs.len());
    }

    let loaded = client.stats().expect("stats on loaded server");
    let served = BATCHES * PER_BATCH;
    // The idle Stats request itself was served too.
    assert!(
        loaded.requests > served,
        "requests {} must count the {served} loaded ops",
        loaded.requests
    );
    assert!(loaded.connections >= 1);
    assert!(
        loaded.flushes >= 1,
        "group-commit write batches must have fenced"
    );
    assert!(
        loaded.latency_count >= served,
        "every served request must land in the histogram (got {})",
        loaded.latency_count
    );
    // Live percentiles: nonzero, ordered, bounded by the exact maximum.
    assert!(loaded.latency_p50_ns > 0, "p50 of a loaded server is not 0");
    assert!(loaded.latency_p50_ns <= loaded.latency_p99_ns);
    assert!(loaded.latency_p99_ns <= loaded.latency_p999_ns);
    assert!(loaded.latency_p999_ns <= loaded.latency_max_ns);
    assert!(loaded.latency_mean_ns > 0);
    assert_eq!(loaded.protocol_errors, 0);

    // The wire report and the in-process snapshot agree on the counters.
    let local = server.stats();
    assert_eq!(local.connections, loaded.connections);
    assert_eq!(local.flushes, loaded.flushes);

    // The loaded writes actually took: durable reads see them.
    assert_eq!(client.get(0).expect("get"), Some(1000));

    server.shutdown();
    engine.quiesce();
}

/// The live exactly-once contract, no crash involved: a replayed
/// sequenced batch (lost-ack simulation) must return the *cached*
/// responses and re-apply nothing — even for a non-idempotent increment.
#[cfg(not(feature = "no-session-dedup"))]
#[test]
fn replayed_batch_returns_cached_replies_without_reapplying() {
    let (_mem, engine, server) = boot();
    let mut client = KvClient::connect(server.local_addr()).expect("connect");

    let (sid, last_seq) = client.hello(0).expect("handshake");
    assert!(sid > 0, "fresh session granted");
    assert_eq!(last_seq, 0);

    let batch = [
        Request::Incr {
            key: 9000,
            delta: 5,
            session: sid,
            seq: 1,
        },
        Request::SeqPut {
            key: 9001,
            value: 77,
            session: sid,
            seq: 2,
        },
    ];
    client.send(&batch).expect("send");
    let first = client.recv(2).expect("recv");
    assert_eq!(first[0], Response::Found { value: 5 });
    assert_eq!(first[1], Response::Missing, "no previous value at 9001");

    // The client "lost the ack": replay the identical batch. The session
    // table must serve both responses from its cache.
    client.send(&batch).expect("replay");
    let second = client.recv(2).expect("recv replay");
    assert_eq!(second, first, "replayed batch must get the cached replies");

    // And the store shows exactly one application.
    assert_eq!(client.get(9000).expect("get"), Some(5), "no double-apply");
    assert_eq!(client.get(9001).expect("get"), Some(77));

    // A resumed session reports the applied high-water mark.
    let mut resumed = KvClient::connect(server.local_addr()).expect("reconnect");
    assert_eq!(resumed.hello(sid).expect("resume"), (sid, 2));

    server.shutdown();
    engine.quiesce();
}

/// Teeth: with the session-table lookup feature-gated out, the same
/// replay double-applies — proving the lookup is what provides
/// exactly-once, exactly as the fence teeth test proves the fence.
#[cfg(feature = "no-session-dedup")]
#[test]
fn dedup_teeth_replay_double_applies_without_the_lookup() {
    let (_mem, engine, server) = boot();
    let mut client = KvClient::connect(server.local_addr()).expect("connect");
    let (sid, _) = client.hello(0).expect("handshake");

    let batch = [Request::Incr {
        key: 9000,
        delta: 5,
        session: sid,
        seq: 1,
    }];
    client.send(&batch).expect("send");
    assert_eq!(
        client.recv(1).expect("recv")[0],
        Response::Found { value: 5 }
    );
    client.send(&batch).expect("replay");
    let replayed = client.recv(1).expect("recv replay")[0];

    assert_eq!(
        replayed,
        Response::Found { value: 10 },
        "without the dedup lookup the replay must double-apply — if this \
         fails, the teeth test is no longer exercising the gated path"
    );
    assert_eq!(client.get(9000).expect("get"), Some(10));

    server.shutdown();
    engine.quiesce();
}

/// Sequence gaps are protocol violations: the server drops the
/// connection without acking rather than applying out of order.
#[cfg(not(feature = "no-session-dedup"))]
#[test]
fn sequence_gap_drops_the_connection() {
    let (_mem, engine, server) = boot();
    let mut client = KvClient::connect(server.local_addr()).expect("connect");
    let (sid, _) = client.hello(0).expect("handshake");

    client
        .send(&[Request::Incr {
            key: 9000, // outside the prefilled range
            delta: 1,
            session: sid,
            seq: 7, // the session has applied nothing; seq 7 is a gap
        }])
        .expect("send");
    match client.recv(1) {
        Err(ClientError::Disconnected) => {}
        other => panic!("gap must close the connection, got {other:?}"),
    }

    let mut fresh = KvClient::connect(server.local_addr()).expect("connect");
    let stats = fresh.stats().expect("stats");
    assert!(
        stats.protocol_errors >= 1,
        "the violation must be counted, got {stats:?}"
    );
    assert_eq!(
        fresh.get(9000).expect("get"),
        None,
        "the gapped write must not have been applied"
    );

    server.shutdown();
    engine.quiesce();
}

/// An engine wrapper whose first `persist_fence` parks until the test
/// releases it, so a batch can be held inside its durability window (and
/// its in-flight budget slot) for as long as the test needs.
struct GatedEngine {
    inner: Arc<Crafty>,
    /// Taken by the first fence: it reports entry on the first channel and
    /// waits for the release on the second.
    gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl PersistentTm for GatedEngine {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn register_thread(&self, tid: usize) -> Box<dyn crafty_common::TmThread + '_> {
        self.inner.register_thread(tid)
    }

    fn breakdown(&self) -> crafty_common::BreakdownSnapshot {
        self.inner.breakdown()
    }

    fn quiesce(&self) {
        self.inner.quiesce();
    }

    fn persist_fence(&self, calling_tid: usize) {
        let gate = self.gate.lock().expect("gate lock poisoned").take();
        if let Some((entered, release)) = gate {
            entered.send(()).expect("test listens for the fence");
            release.recv().expect("test releases the fence");
        }
        self.inner.persist_fence(calling_tid);
    }
}

/// Under an in-flight budget of one, a pipelined batch that arrives while
/// another batch holds the only slot is shed whole with `Busy` — and a
/// shed batch is *not* recorded, so resending it succeeds.
#[test]
fn overloaded_server_sheds_whole_batches_with_busy() {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let crafty = Arc::new(Crafty::new(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests().with_max_threads(WORKERS),
    ));
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let engine = Arc::new(GatedEngine {
        inner: Arc::clone(&crafty),
        gate: Mutex::new(Some((entered_tx, release_rx))),
    });
    let kv = ShardedKv::create(&mem, &KvConfig::benchmark(RECORDS, 16));
    let sessions = SessionTable::create(&mem, 64);
    let server = KvServer::start(
        Arc::clone(&engine) as Arc<dyn PersistentTm>,
        kv,
        sessions,
        ServerConfig::loopback(WORKERS, true).with_inflight_budget(1),
    )
    .expect("bind loopback server");
    let addr = server.local_addr();
    let batch = |t: u64| -> Vec<Request> {
        (0..64)
            .map(|i| Request::Put {
                key: t * 1000 + i,
                value: i,
            })
            .collect()
    };

    // Connection A's write batch claims the only budget slot and parks in
    // its fence: from here until the release, the slot is taken.
    let mut holder = KvClient::connect(addr).expect("connect holder");
    holder.send(&batch(0)).expect("send held batch");
    entered_rx.recv().expect("held batch reaches its fence");

    // Connection B's batch (served by the other worker) must be shed
    // whole: every request answered Busy, nothing executed.
    let mut shed = KvClient::connect(addr).expect("connect shed");
    let busy = batch(1);
    shed.send(&busy).expect("send shed batch");
    let responses = shed.recv(busy.len()).expect("recv shed batch");
    assert!(
        responses.iter().all(|r| matches!(r, Response::Busy)),
        "a batch over the budget must be Busy for every request: {responses:?}"
    );
    assert!(
        server.stats().shed_batches >= 1,
        "shed counter must record it"
    );

    // Release the holder: its batch completes in full.
    release_tx.send(()).expect("release the fence");
    let held = holder.recv(64).expect("recv held batch");
    assert!(held.iter().all(|r| !matches!(r, Response::Busy)));

    // The shed batch left no trace, so resending it now succeeds.
    shed.send(&busy).expect("resend shed batch");
    let resent = shed.recv(busy.len()).expect("recv resent batch");
    assert!(
        resent.iter().all(|r| !matches!(r, Response::Busy)),
        "the resent batch must execute once the slot is free: {resent:?}"
    );
    let stats = server.shutdown();
    assert!(stats.shed_batches >= 1);
    crafty.quiesce();
}

#[test]
fn desynced_stream_is_dropped_and_counted() {
    let (_mem, engine, server) = boot();

    // Feed the server a response opcode (0x85, the stats reply): a
    // desynchronized stream. The high bit makes it an unknown request
    // opcode, so the server must drop the connection without replying.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.write_all(&[1, 0, 0, 0, 0x85]).expect("write bad frame");
    let mut buf = [0u8; 16];
    let n = raw.read(&mut buf).expect("read until server closes");
    assert_eq!(n, 0, "server must close a desynced connection, not answer");

    // The drop is visible in the live metrics.
    let mut client = KvClient::connect(server.local_addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        stats.protocol_errors >= 1,
        "protocol error counter must record the dropped connection"
    );

    server.shutdown();
    engine.quiesce();
}
