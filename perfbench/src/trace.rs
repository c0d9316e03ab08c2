//! In-memory spans around the public calls the benchmark makes into each
//! layer, for the traced run.
//!
//! Every span has a name, a start, an end, the span that caused it and the
//! id of the operation it belongs to. Self time (a span's duration minus
//! the time its child spans cover) is accumulated per name as spans close,
//! for every operation. Full span records are kept only for every
//! [`KEEP_EVERY`]-th operation, up to [`KEEP_CAP`] records per thread, so a
//! long run does not grow without bound; they are written out as JSON
//! lines when the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

use crafty_common::{PAddr, TxAbort, TxnOps};

/// Span kinds, one per public call the benchmark brackets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `TmThread::execute`: one persistent transaction, retries included.
    Execute,
    /// One invocation of the transaction body by the engine.
    Body,
    /// `TxnOps::read`.
    Read,
    /// `TxnOps::write`.
    Write,
    /// `TxnOps::alloc`.
    Alloc,
    /// `TxnOps::dealloc`.
    Dealloc,
    /// `ShardedKv::get`.
    KvGet,
    /// `ShardedKv::put`.
    KvPut,
    /// One service request, from its intended send time to its reply.
    Request,
}

const KINDS: usize = 9;

impl Kind {
    pub const fn name(self) -> &'static str {
        match self {
            Kind::Execute => "execute",
            Kind::Body => "body",
            Kind::Read => "txnops.read",
            Kind::Write => "txnops.write",
            Kind::Alloc => "txnops.alloc",
            Kind::Dealloc => "txnops.dealloc",
            Kind::KvGet => "kv.get",
            Kind::KvPut => "kv.put",
            Kind::Request => "request",
        }
    }

    fn is_txnops(self) -> bool {
        matches!(self, Kind::Read | Kind::Write | Kind::Alloc | Kind::Dealloc)
    }

    fn is_kv(self) -> bool {
        matches!(self, Kind::KvGet | Kind::KvPut)
    }
}

/// Keep full records for one operation in this many.
pub const KEEP_EVERY: u64 = 64;
/// Most span records kept per thread.
pub const KEEP_CAP: usize = 1 << 16;

/// A closed span as written out.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent among the same thread's kept spans.
    pub parent: Option<u32>,
    pub op: u64,
}

/// Per-kind totals over every span, kept or not.
#[derive(Clone, Copy, Default, Debug)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    kept: Option<u32>,
}

#[derive(Default)]
struct State {
    stack: Vec<Open>,
    totals: [Total; KINDS],
    spans: Vec<Span>,
    op: u64,
    keep: bool,
    /// `TxnOps` calls made directly under a KV call.
    kv_txnops: u64,
}

/// One thread's tracer.
pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        let state = State {
            stack: Vec::with_capacity(16),
            spans: Vec::with_capacity(KEEP_CAP),
            ..State::default()
        };
        Tracer {
            epoch,
            state: RefCell::new(state),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts operation `op`; its spans carry this id.
    pub fn begin_op(&self, op: u64) {
        let mut s = self.state.borrow_mut();
        s.op = op;
        s.keep = op.is_multiple_of(KEEP_EVERY) && s.spans.len() + 256 <= KEEP_CAP;
    }

    pub fn enter(&self, kind: Kind) {
        let now = self.now();
        self.enter_at(kind, now);
    }

    /// Opens a span that started at `start_ns` on this tracer's clock.
    pub fn enter_at(&self, kind: Kind, start_ns: u64) {
        let mut s = self.state.borrow_mut();
        let kept = if s.keep {
            let parent = s.stack.last().and_then(|o| o.kept);
            let op = s.op;
            s.spans.push(Span {
                kind,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            Some((s.spans.len() - 1) as u32)
        } else {
            None
        };
        s.stack.push(Open {
            kind,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    pub fn exit(&self) {
        let now = self.now();
        self.exit_at(now);
    }

    /// Closes the innermost span at `end_ns` on this tracer's clock.
    pub fn exit_at(&self, end_ns: u64) {
        let mut s = self.state.borrow_mut();
        let open = s.stack.pop().expect("span exit without a matching enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        let t = &mut s.totals[open.kind as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = s.stack.last_mut() {
            parent.child_ns += dur;
            let under_kv = parent.kind.is_kv();
            if under_kv && open.kind.is_txnops() {
                s.kv_txnops += 1;
            }
        }
        if let Some(i) = open.kept {
            s.spans[i as usize].end_ns = end_ns;
        }
    }

    /// Records a span that does not nest in the current stack (requests
    /// in flight overlap), as operation `op`.
    pub fn record(&self, kind: Kind, start_ns: u64, end_ns: u64, op: u64) {
        let mut s = self.state.borrow_mut();
        let dur = end_ns.saturating_sub(start_ns);
        let t = &mut s.totals[kind as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur;
        if op.is_multiple_of(KEEP_EVERY) && s.spans.len() < KEEP_CAP {
            s.spans.push(Span {
                kind,
                start_ns,
                end_ns,
                parent: None,
                op,
            });
        }
    }

    /// Runs `f` inside a span of `kind`.
    #[inline]
    pub fn span<T>(&self, kind: Kind, f: impl FnOnce() -> T) -> T {
        self.enter(kind);
        let r = f();
        self.exit();
        r
    }

    pub fn totals(&self) -> Totals {
        let s = self.state.borrow();
        Totals {
            by_kind: s.totals,
            kv_txnops: s.kv_txnops,
        }
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.state.borrow_mut().spans)
    }
}

/// Span totals merged across threads.
#[derive(Clone, Copy, Default, Debug)]
pub struct Totals {
    pub by_kind: [Total; KINDS],
    pub kv_txnops: u64,
}

impl Totals {
    pub fn get(&self, kind: Kind) -> Total {
        self.by_kind[kind as usize]
    }

    pub fn merge(&mut self, other: &Totals) {
        for (a, b) in self.by_kind.iter_mut().zip(&other.by_kind) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
        self.kv_txnops += other.kv_txnops;
    }

    /// Time inside `TxnOps` calls, and their number.
    pub fn txnops(&self) -> Total {
        let mut t = Total::default();
        for k in [Kind::Read, Kind::Write, Kind::Alloc, Kind::Dealloc] {
            let x = self.get(k);
            t.count += x.count;
            t.total_ns += x.total_ns;
            t.self_ns += x.self_ns;
        }
        t
    }
}

/// Writes kept spans as JSON lines, one object per span.
pub fn write_spans(path: &std::path::Path, per_thread: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (tid, spans) in per_thread.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"tid\":{tid},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
    }
    out.flush()
}

/// A forwarding [`TxnOps`] that brackets every call in a span.
pub struct TracedOps<'a> {
    pub inner: &'a mut dyn TxnOps,
    pub tracer: &'a Tracer,
}

impl TxnOps for TracedOps<'_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        let inner = &mut *self.inner;
        self.tracer.span(Kind::Read, || inner.read(addr))
    }

    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        let inner = &mut *self.inner;
        self.tracer.span(Kind::Write, || inner.write(addr, value))
    }

    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        let inner = &mut *self.inner;
        self.tracer.span(Kind::Alloc, || inner.alloc(words))
    }

    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        let inner = &mut *self.inner;
        self.tracer
            .span(Kind::Dealloc, || inner.dealloc(addr, words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_spans() {
        let t = Tracer::new(Instant::now());
        t.begin_op(0);
        t.enter_at(Kind::Execute, 0);
        t.enter_at(Kind::Body, 10);
        t.enter_at(Kind::KvPut, 12);
        t.enter_at(Kind::Read, 13);
        t.exit_at(18);
        t.enter_at(Kind::Write, 20);
        t.exit_at(22);
        t.exit_at(30);
        t.exit_at(40);
        t.exit_at(100);
        let tot = t.totals();
        assert_eq!(tot.get(Kind::Execute).total_ns, 100);
        assert_eq!(tot.get(Kind::Execute).self_ns, 70);
        assert_eq!(tot.get(Kind::Body).self_ns, 12);
        assert_eq!(tot.get(Kind::KvPut).self_ns, 11);
        assert_eq!(tot.txnops().total_ns, 7);
        assert_eq!(tot.kv_txnops, 2);
        let spans = t.take_spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[4].start_ns, spans[4].end_ns), (20, 22));
    }

    #[test]
    fn only_every_kth_operation_is_kept() {
        let t = Tracer::new(Instant::now());
        for op in 0..KEEP_EVERY * 3 {
            t.begin_op(op);
            t.enter(Kind::Execute);
            t.exit();
        }
        assert_eq!(t.take_spans().len(), 3);
        assert_eq!(t.totals().get(Kind::Execute).count, KEEP_EVERY * 3);
    }
}
