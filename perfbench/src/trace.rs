//! The `core` layer boundary: a delegating [`Protocol`] wrapper that
//! counts every trait call and times a sample of them, plus the in-memory
//! span log the traced run writes out when it ends.
//!
//! [`Traced`] forwards every [`Protocol`] method — the defaulted ones
//! (`on_round_start`, `discard`, `is_complete`) included — so the engine
//! sees exactly the inner protocol and a traced run reproduces the
//! untraced `RunStats` bit for bit. Its shards ([`TracedShard`]) do the
//! same for [`ProtocolShard`] and report their busy time per sharded
//! phase, so the benchmark can charge a parallel phase its slowest shard
//! (the part of the round that blocks the merge) rather than the sum.
//!
//! Calls are counted exactly; only every `every`-th call of each kind is
//! timed, and a kind's time is estimated as its sampled mean times its
//! call count. `every = 1` times everything. Each timed call's reading is
//! corrected by the clock's own cost ([`clock_overhead_ns`]), which is
//! comparable to the cheapest protocol calls.

// Timing harness: wall-clock reads are this file's job; the
// workspace-wide ban exists for simulation code.
#![allow(clippy::disallowed_methods)]

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use ag_graph::NodeId;
use ag_sim::{ContactIntent, Protocol, ProtocolShard, ShardableProtocol};
use rand::rngs::StdRng;

/// Calls of one kind: exact count, plus the sampled subset's time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStat {
    /// Every call made.
    pub calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Total nanoseconds of the timed calls.
    pub timed_ns: u64,
}

/// What timing an empty region reads, in nanoseconds: the median of
/// many back-to-back clock reads, measured once per process.
pub fn clock_overhead_ns() -> f64 {
    static OVERHEAD: OnceLock<f64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut reads: Vec<u128> = (0..20_000)
            .map(|_| black_box(Instant::now()).elapsed().as_nanos())
            .collect();
        reads.sort_unstable();
        reads[reads.len() / 2] as f64
    })
}

impl CallStat {
    /// Estimated seconds spent in all calls of this kind.
    pub fn est_s(&self) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        let net_ns = (self.timed_ns as f64 - self.timed as f64 * clock_overhead_ns()).max(0.0);
        net_ns * 1e-9 * self.calls as f64 / self.timed as f64
    }

    fn merge(&mut self, other: &CallStat) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }

    /// Runs `f`, counting it and timing it when it falls on the sample.
    #[inline]
    fn record<R>(&mut self, every: u64, f: impl FnOnce() -> R) -> R {
        let sample = self.calls.is_multiple_of(every);
        self.calls += 1;
        if sample {
            let t = Instant::now();
            let out = f();
            self.timed_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.timed += 1;
            out
        } else {
            f()
        }
    }
}

/// Calls made inside one shard during one sharded phase.
#[derive(Debug, Clone, Copy, Default)]
struct ShardCalls {
    compose: CallStat,
    compose_empty: u64,
    deliver: CallStat,
    discard: CallStat,
    residue: CallStat,
}

impl ShardCalls {
    fn busy_s(&self) -> f64 {
        self.compose.est_s() + self.deliver.est_s() + self.discard.est_s() + self.residue.est_s()
    }
}

/// Everything a [`Traced`] protocol recorded over one run.
#[derive(Debug, Clone, Default)]
pub struct CallTotals {
    pub wakeup: CallStat,
    pub compose: CallStat,
    /// Compose calls that returned no message.
    pub compose_empty: u64,
    pub deliver: CallStat,
    pub discard: CallStat,
    /// `node_complete` and `is_complete` probes.
    pub complete: CallStat,
    pub round_start: CallStat,
    /// `make_shards` plus the shard teardown (`into_residue`).
    pub shard_admin: CallStat,
    /// Protocol time on the critical path of the round loop: every
    /// main-thread call, plus the slowest shard of each sharded phase.
    pub blocking_s: f64,
}

impl CallTotals {
    /// Adds another run's totals (the sweep sums its trials).
    pub fn merge(&mut self, o: &CallTotals) {
        self.wakeup.merge(&o.wakeup);
        self.compose.merge(&o.compose);
        self.compose_empty += o.compose_empty;
        self.deliver.merge(&o.deliver);
        self.discard.merge(&o.discard);
        self.complete.merge(&o.complete);
        self.round_start.merge(&o.round_start);
        self.shard_admin.merge(&o.shard_admin);
        self.blocking_s += o.blocking_s;
    }
}

/// Main-thread call records of a [`Traced`] protocol.
#[derive(Debug, Default)]
struct MainCalls {
    wakeup: CallStat,
    deliver: CallStat,
    discard: CallStat,
    round_start: CallStat,
    make_shards: CallStat,
}

/// A delegating wrapper around a protocol `P`; see the module docs.
pub struct Traced<P> {
    inner: P,
    every: u64,
    main: MainCalls,
    /// Completion probes take `&self`, so they count through a cell.
    complete: Cell<CallStat>,
    /// `compose` takes `&self` on the serial engine.
    compose: RefCell<(CallStat, u64)>,
    /// Sharded phases started so far.
    phases: u64,
    /// `(phase, calls)` reports from torn-down shards.
    shard_log: Mutex<Vec<(u64, ShardCalls)>>,
}

impl<P> Traced<P> {
    /// Wraps `inner`, timing every `every`-th call of each kind.
    pub fn new(inner: P, every: u64) -> Self {
        Traced {
            inner,
            every: every.max(1),
            main: MainCalls::default(),
            complete: Cell::new(CallStat::default()),
            compose: RefCell::new((CallStat::default(), 0)),
            phases: 0,
            shard_log: Mutex::new(Vec::new()),
        }
    }

    /// Estimated protocol seconds on the round loop's critical path so
    /// far (see [`CallTotals::blocking_s`]).
    pub fn blocking_s(&self) -> f64 {
        self.totals().blocking_s
    }

    /// Unwraps the protocol and its call totals.
    pub fn finish(self) -> (P, CallTotals) {
        let totals = self.totals();
        (self.inner, totals)
    }

    fn totals(&self) -> CallTotals {
        let (compose, compose_empty) = *self.compose.borrow();
        let mut t = CallTotals {
            wakeup: self.main.wakeup,
            compose,
            compose_empty,
            deliver: self.main.deliver,
            discard: self.main.discard,
            complete: self.complete.get(),
            round_start: self.main.round_start,
            shard_admin: self.main.make_shards,
            blocking_s: 0.0,
        };
        t.blocking_s = t.wakeup.est_s()
            + t.compose.est_s()
            + t.deliver.est_s()
            + t.discard.est_s()
            + t.complete.est_s()
            + t.round_start.est_s()
            + t.shard_admin.est_s();
        let log = self.shard_log.lock().expect("shard log lock poisoned");
        let mut phase_max: Vec<f64> = vec![0.0; usize::try_from(self.phases).unwrap_or(0)];
        for (phase, calls) in log.iter() {
            t.compose.merge(&calls.compose);
            t.compose_empty += calls.compose_empty;
            t.deliver.merge(&calls.deliver);
            t.discard.merge(&calls.discard);
            t.shard_admin.merge(&calls.residue);
            let slot = &mut phase_max[usize::try_from(*phase).unwrap_or(0)];
            *slot = slot.max(calls.busy_s());
        }
        t.blocking_s += phase_max.iter().sum::<f64>();
        t
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    type Msg = P::Msg;

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn on_round_start(&mut self, round: u64) {
        let inner = &mut self.inner;
        self.main
            .round_start
            .record(self.every, || inner.on_round_start(round));
    }

    fn on_wakeup(&mut self, node: NodeId, rng: &mut StdRng) -> Option<ContactIntent> {
        let inner = &mut self.inner;
        self.main
            .wakeup
            .record(self.every, || inner.on_wakeup(node, rng))
    }

    fn compose(&self, from: NodeId, to: NodeId, tag: u32, rng: &mut StdRng) -> Option<P::Msg> {
        let mut rec = self.compose.borrow_mut();
        let msg = rec
            .0
            .record(self.every, || self.inner.compose(from, to, tag, rng));
        if msg.is_none() {
            rec.1 += 1;
        }
        msg
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, tag: u32, msg: P::Msg) {
        let inner = &mut self.inner;
        self.main
            .deliver
            .record(self.every, || inner.deliver(from, to, tag, msg));
    }

    fn discard(&mut self, msg: P::Msg) {
        let inner = &mut self.inner;
        self.main.discard.record(self.every, || inner.discard(msg));
    }

    fn node_complete(&self, node: NodeId) -> bool {
        let mut c = self.complete.get();
        let done = c.record(self.every, || self.inner.node_complete(node));
        self.complete.set(c);
        done
    }

    fn is_complete(&self) -> bool {
        let mut c = self.complete.get();
        let done = c.record(self.every, || self.inner.is_complete());
        self.complete.set(c);
        done
    }
}

/// One shard of a [`Traced`] protocol.
pub struct TracedShard<'a, S> {
    inner: S,
    every: u64,
    phase: u64,
    calls: ShardCalls,
    log: &'a Mutex<Vec<(u64, ShardCalls)>>,
}

impl<S: ProtocolShard> ProtocolShard for TracedShard<'_, S> {
    type Msg = S::Msg;

    fn compose(&mut self, from: NodeId, to: NodeId, tag: u32, rng: &mut StdRng) -> Option<S::Msg> {
        let inner = &mut self.inner;
        let msg = self
            .calls
            .compose
            .record(self.every, || inner.compose(from, to, tag, rng));
        if msg.is_none() {
            self.calls.compose_empty += 1;
        }
        msg
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, tag: u32, msg: S::Msg) {
        let inner = &mut self.inner;
        self.calls
            .deliver
            .record(self.every, || inner.deliver(from, to, tag, msg));
    }

    fn discard(&mut self, msg: S::Msg) {
        let inner = &mut self.inner;
        self.calls.discard.record(self.every, || inner.discard(msg));
    }

    fn into_residue(self) -> Vec<S::Msg> {
        let TracedShard {
            inner,
            phase,
            mut calls,
            log,
            ..
        } = self;
        // Teardown is timed on every call: there are two per phase.
        let residue = calls.residue.record(1, || inner.into_residue());
        log.lock()
            .expect("shard log lock poisoned")
            .push((phase, calls));
        residue
    }
}

impl<P: ShardableProtocol> ShardableProtocol for Traced<P> {
    type Shard<'a>
        = TracedShard<'a, P::Shard<'a>>
    where
        Self: 'a;

    fn make_shards(
        &mut self,
        bounds: &[(usize, usize)],
        send_counts: &[usize],
    ) -> Vec<Self::Shard<'_>> {
        let phase = self.phases;
        self.phases += 1;
        let every = self.every;
        let log = &self.shard_log;
        let inner = &mut self.inner;
        let shards = self
            .main
            .make_shards
            .record(1, || inner.make_shards(bounds, send_counts));
        shards
            .into_iter()
            .map(|inner| TracedShard {
                inner,
                every,
                phase,
                calls: ShardCalls::default(),
                log,
            })
            .collect()
    }
}

/// One closed span: a named interval on the run's clock, with the span
/// that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    detail: String,
}

/// The in-memory span log of one benchmark invocation.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records the closed span `[start, end]`; returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        detail: String,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            detail,
        });
        self.spans.len() - 1
    }

    /// The log as JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"detail\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, s.detail
            );
        }
        out
    }
}
