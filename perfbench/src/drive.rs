//! The `sim` layer boundary: one completion run through the serial
//! [`Engine`] or the [`ShardedEngine`], untraced (`run_batch`, the path
//! the end-to-end metrics time) or traced (`run_observed` over a
//! [`Traced`] protocol, timing every round).

// Timing harness: wall-clock reads are this file's job; the
// workspace-wide ban exists for simulation code.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use ag_sim::{Engine, EngineConfig, Protocol, RunStats, ShardableProtocol, ShardedEngine};

use crate::trace::{CallTotals, Traced};

/// Which round loop drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    Serial,
    Sharded(usize),
}

/// What a traced run records beyond its stats.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    pub calls: CallTotals,
    /// Wall milliseconds of each round.
    pub round_ms: Vec<f64>,
    /// Estimated protocol milliseconds on the critical path of each round.
    pub round_protocol_ms: Vec<f64>,
}

/// An untraced run on the serial engine: `(stats, seconds)`.
pub fn run_serial<P: Protocol>(proto: &mut P, cfg: EngineConfig) -> (RunStats, f64) {
    let mut engine = Engine::new(cfg);
    let t = Instant::now();
    let stats = engine.run_batch(proto);
    (stats, t.elapsed().as_secs_f64())
}

/// An untraced run on either loop: `(stats, seconds)`.
pub fn run_untraced<P: ShardableProtocol>(
    proto: &mut P,
    cfg: EngineConfig,
    lp: Loop,
) -> (RunStats, f64) {
    match lp {
        Loop::Serial => run_serial(proto, cfg),
        Loop::Sharded(shards) => {
            let mut engine = ShardedEngine::new(cfg, shards);
            let t = Instant::now();
            let stats = engine.run_batch(proto);
            (stats, t.elapsed().as_secs_f64())
        }
    }
}

/// Per-round observer state shared by both loops.
struct Rounds {
    last: Instant,
    last_protocol_s: f64,
    trace: RunTrace,
}

impl Rounds {
    fn start() -> Self {
        Rounds {
            last: Instant::now(),
            last_protocol_s: 0.0,
            trace: RunTrace::default(),
        }
    }

    fn observe<P>(&mut self, proto: &Traced<P>) {
        let now = Instant::now();
        let protocol_s = proto.blocking_s();
        self.trace
            .round_ms
            .push(now.duration_since(self.last).as_secs_f64() * 1e3);
        self.trace
            .round_protocol_ms
            .push((protocol_s - self.last_protocol_s) * 1e3);
        self.last = now;
        self.last_protocol_s = protocol_s;
    }
}

/// A traced run on the serial engine: `(protocol, stats, seconds, trace)`.
pub fn traced_serial<P: Protocol>(
    proto: P,
    cfg: EngineConfig,
    every: u64,
) -> (P, RunStats, f64, RunTrace) {
    let mut traced = Traced::new(proto, every);
    let mut engine = Engine::new(cfg);
    let t = Instant::now();
    let mut rounds = Rounds::start();
    let stats = engine.run_observed(&mut traced, |_, p| rounds.observe(p));
    let secs = t.elapsed().as_secs_f64();
    let (proto, calls) = traced.finish();
    rounds.trace.calls = calls;
    (proto, stats, secs, rounds.trace)
}

/// A traced run on either loop: `(protocol, stats, seconds, trace)`.
pub fn traced_run<P: ShardableProtocol>(
    proto: P,
    cfg: EngineConfig,
    lp: Loop,
    every: u64,
) -> (P, RunStats, f64, RunTrace) {
    match lp {
        Loop::Serial => traced_serial(proto, cfg, every),
        Loop::Sharded(shards) => {
            let mut traced = Traced::new(proto, every);
            let mut engine = ShardedEngine::new(cfg, shards);
            let t = Instant::now();
            let mut rounds = Rounds::start();
            let stats = engine.run_observed(&mut traced, |_, p| rounds.observe(p));
            let secs = t.elapsed().as_secs_f64();
            let (proto, calls) = traced.finish();
            rounds.trace.calls = calls;
            (proto, stats, secs, rounds.trace)
        }
    }
}
