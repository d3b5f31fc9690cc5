//! The two completion-run workloads: one uniform-AG dissemination on a
//! random 3-regular graph, timed from round 1 until every node holds
//! full rank, then checked node by node against the generation.
//!
//! * `ag-payload-1k` — n = 10⁴, k = 32, 1 KiB payloads, serial engine:
//!   the GF kernels, payload replay and decoder dominate.
//! * `rank-only-100k` — n = 10⁵, k = 8, no payload, sharded engine: the
//!   round loop, partner choice, shard merge and memory dominate.
//!
//! Every sample repeats the same seeded problem, so every sample (and
//! the traced run) must reproduce the same `RunStats`.

// Timing harness: wall-clock reads are this file's job; the
// workspace-wide ban exists for simulation code.
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

use ag_gf::{Gf256, SlabField};
use ag_graph::builders;
use ag_graph::seedmix::{splitmix64, GOLDEN_GAMMA};
use ag_sim::{EngineConfig, RunStats};
use algebraic_gossip::{AgConfig, AlgebraicGossip, Placement, TrialPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::drive::{self, Loop, RunTrace};
use crate::report::{median, Report};
use crate::trace::SpanLog;
use crate::{layer_metrics, Ctx, LayerShape, MIB};

/// One completion workload's problem shape.
pub struct Completion {
    n: usize,
    k: usize,
    r: usize,
    /// Sharded workloads run `ShardedEngine` with one shard per thread.
    sharded: bool,
    /// Time every `trace_every`-th protocol call in the traced run (odd,
    /// so the sample does not alias with the forward/backward compose
    /// order).
    trace_every: u64,
    /// Fixed set-up instances timed per sample, enough for about 0.2 s.
    setup_instances: usize,
}

pub const AG_PAYLOAD_1K: Completion = Completion {
    n: 10_000,
    k: 32,
    r: 1024,
    sharded: false,
    trace_every: 3,
    setup_instances: 16,
};

pub const RANK_ONLY_100K: Completion = Completion {
    n: 100_000,
    k: 8,
    r: 0,
    sharded: true,
    trace_every: 17,
    setup_instances: 3,
};

/// Round budget: both problems finish in well under 100 rounds.
const MAX_ROUNDS: u64 = 10_000;
/// Set-up is timed on fixed instances, the same in every run whatever
/// its seed. The 3-regular generator resamples until the graph is simple
/// and connected, so one build costs a random number of attempts; timing
/// the run's own instances would make `setup_s` follow the seed rather
/// than the code.
const SETUP_SEED: u64 = 0x5E7;
/// Problem instances per run, and full passes over them at least.
const INSTANCES: usize = 3;
const MIN_CYCLES: usize = 2;

/// The seed of instance `i` of a run seeded `seed`.
fn instance_seed(seed: u64, i: usize) -> u64 {
    splitmix64(seed ^ (i as u64 + 1).wrapping_mul(GOLDEN_GAMMA))
}

struct Setup {
    proto: AlgebraicGossip<Gf256>,
    graph_s: f64,
    new_s: f64,
}

impl Completion {
    fn lp(&self, threads: usize) -> Loop {
        if self.sharded {
            Loop::Sharded(threads)
        } else {
            Loop::Serial
        }
    }

    fn engine(&self, seed: u64) -> EngineConfig {
        EngineConfig::synchronous(splitmix64(seed ^ 0xE6)).with_max_rounds(MAX_ROUNDS)
    }

    /// Builds the graph and the protocol for `seed`, timing each.
    fn setup(&self, seed: u64) -> Setup {
        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x6A));
        let graph = builders::random_regular(self.n, 3, &mut rng).expect("3-regular graph");
        let graph_s = t.elapsed().as_secs_f64();
        let cfg = AgConfig::new(self.k)
            .with_payload_len(self.r)
            .with_placement(Placement::Spread);
        let t = Instant::now();
        let proto = AlgebraicGossip::<Gf256>::new(&graph, &cfg, splitmix64(seed ^ 0xA6))
            .expect("AG protocol");
        let new_s = t.elapsed().as_secs_f64();
        Setup {
            proto,
            graph_s,
            new_s,
        }
    }

    /// The layer shape the stand-alone probes run at.
    fn shape(&self) -> LayerShape {
        LayerShape {
            gf16: false,
            row_symbols: if self.r > 0 { self.r } else { self.k },
            coeff_symbols: self.k,
            linalg_k: self.k,
            linalg_r: self.r,
            rlnc_k: self.k,
            rlnc_r: self.r,
        }
    }

    /// One timed set-up of each fixed set-up instance: the mean
    /// `(graph s, new s)` per set-up. Every sample takes one such pass, so
    /// set-up is sampled across the whole run as the host's speed drifts,
    /// and `setup_s` is the median pass.
    fn setup_pass(&self) -> (f64, f64) {
        let (mut graph_s, mut new_s) = (0.0, 0.0);
        for i in 0..self.setup_instances {
            let s = self.setup(instance_seed(SETUP_SEED, i));
            graph_s += s.graph_s;
            new_s += s.new_s;
        }
        let n = self.setup_instances as f64;
        (graph_s / n, new_s / n)
    }

    /// The untraced run: end-to-end metrics. Samples cycle over
    /// `INSTANCES` problems derived from the seed. Each instance's time is
    /// the median of its samples and `run_s` is the mean over instances,
    /// so neither one slow stretch of the host nor one unlucky instance
    /// sets the result.
    pub fn run(&self, ctx: &Ctx, rep: &mut Report) {
        let lp = self.lp(ctx.threads);
        let seeds: Vec<u64> = (0..INSTANCES).map(|i| instance_seed(ctx.seed, i)).collect();
        let mut setups = Vec::new();
        let mut runs: Vec<Vec<f64>> = vec![Vec::new(); INSTANCES];
        let mut first: Vec<Option<RunStats>> = vec![None; INSTANCES];
        let start = Instant::now();
        let mut i = 0;
        while i < MIN_CYCLES * INSTANCES || start.elapsed() < ctx.budget {
            let (graph_s, new_s) = self.setup_pass();
            setups.push(graph_s + new_s);
            let j = i % INSTANCES;
            let mut s = self.setup(seeds[j]);
            let (stats, secs) = drive::run_untraced(&mut s.proto, self.engine(seeds[j]), lp);
            let ok = verify(&s.proto, &stats) && same_stats(&mut first[j], &stats);
            rep.run(
                ok,
                &format!("instance {j} sample ({} rounds)", stats.rounds),
            );
            runs[j].push(secs);
            i += 1;
        }
        let mut total_s = 0.0;
        let mut node_rounds = 0.0;
        for (j, (r, f)) in runs.iter().zip(&first).enumerate() {
            let rounds = f.as_ref().map_or(0, |s| s.rounds);
            total_s += median(r);
            node_rounds += self.n as f64 * rounds as f64;
            rep.note(format!(
                "instance {j}: rounds={rounds} run_s samples: {}",
                fmt_samples(r)
            ));
        }
        rep.note(format!("setup_s samples: {}", fmt_samples(&setups)));
        rep.put("setup_s", median(&setups), "s");
        rep.put("run_s", total_s / INSTANCES as f64, "s");
        rep.put("node_rounds_per_s", node_rounds / total_s, "1/s");
        rep.put("trials_per_s", INSTANCES as f64 / total_s, "1/s");
    }

    /// One set-up and completion run of the first instance: the process
    /// `run.py` measures peak memory on.
    pub fn run_once(&self, ctx: &Ctx, rep: &mut Report) {
        let seed = instance_seed(ctx.seed, 0);
        let mut s = self.setup(seed);
        let (stats, _) = drive::run_untraced(&mut s.proto, self.engine(seed), self.lp(ctx.threads));
        rep.run(verify(&s.proto, &stats), "memory probe run");
    }

    /// The traced run: per-layer metrics.
    pub fn run_traced(&self, ctx: &Ctx, rep: &mut Report, spans: &mut SpanLog) {
        let lp = self.lp(ctx.threads);
        // The traced run studies the first instance only.
        let seed = instance_seed(ctx.seed, 0);

        // Untraced and traced samples alternate, so drift hits both legs.
        let mut first: Option<RunStats> = None;
        let (mut plain_s, mut traced_s, mut traces) = (Vec::new(), Vec::new(), Vec::new());
        let (mut plan_wall, mut plan_busy) = (0.0, 0.0);
        let (mut graph_s, mut new_s) = (Vec::new(), Vec::new());
        let mut finals = Vec::new();
        let start = Instant::now();
        while traced_s.len() < 2 || start.elapsed() < ctx.budget.mul_f64(0.7) {
            let (g, p) = self.setup_pass();
            graph_s.push(g);
            new_s.push(p);
            // The untraced sample goes through the trial runner as a
            // one-trial serial plan, which times the plan layer itself.
            let t = Instant::now();
            let out = TrialPlan::new(1, seed).map_serial(|_| {
                let t = Instant::now();
                let mut s = self.setup(seed);
                let (stats, secs) = drive::run_untraced(&mut s.proto, self.engine(seed), lp);
                let ok = verify(&s.proto, &stats);
                (stats, secs, ok, t.elapsed().as_secs_f64())
            });
            plan_wall += t.elapsed().as_secs_f64();
            for (stats, secs, ok, busy) in out {
                plan_busy += busy;
                let ok = ok && same_stats(&mut first, &stats);
                rep.run(ok, "untraced sample");
                plain_s.push(secs);
            }

            let sample_start = Instant::now();
            let s = self.setup(seed);
            let setup_end = Instant::now();
            let (proto, stats, secs, trace) =
                drive::traced_run(s.proto, self.engine(seed), lp, self.trace_every);
            let run_end = Instant::now();
            let ok = verify(&proto, &stats) && same_stats(&mut first, &stats);
            rep.run(ok, "traced sample (RunStats must match the untraced run)");
            let sample = spans.record("sample", None, sample_start, Instant::now(), String::new());
            spans.record(
                "setup",
                Some(sample),
                sample_start,
                setup_end,
                String::new(),
            );
            let run = spans.record(
                "run",
                Some(sample),
                setup_end,
                run_end,
                format!("rounds={}", stats.rounds),
            );
            record_rounds(spans, run, setup_end, &trace);
            finals.push((
                proto.helpful_receptions(),
                proto.redundant_receptions(),
                proto.arena_allocated_bytes(),
            ));
            traced_s.push(secs);
            traces.push(trace);
        }
        let stats = first.expect("at least one sample ran");

        // Single-loop baseline on the same problem: the serial engine for
        // the sharded workload, two shards for the serial one. Rounds can
        // differ (the loops draw different streams), so compare per round.
        let other = if self.sharded {
            Loop::Serial
        } else {
            Loop::Sharded(ctx.threads)
        };
        let mut s = self.setup(seed);
        let (other_stats, other_s) = drive::run_untraced(&mut s.proto, self.engine(seed), other);
        rep.run(verify(&s.proto, &other_stats), "shard baseline sample");
        drop(s);
        let per_round = median(&plain_s) / stats.rounds as f64;
        let other_per_round = other_s / other_stats.rounds.max(1) as f64;
        let shard_speedup = if self.sharded {
            other_per_round / per_round
        } else {
            per_round / other_per_round
        };

        layer_metrics(&self.shape(), ctx, rep);
        // The per-layer split comes from one traced sample, the median
        // one by run time, so its parts add up to its own `run_s`.
        let mut order: Vec<usize> = (0..traced_s.len()).collect();
        order.sort_by(|&a, &b| traced_s[a].total_cmp(&traced_s[b]));
        let mid = order[order.len() / 2];
        let calls = &traces[mid].calls;
        let self_s = traced_s[mid] - calls.blocking_s;
        let round_ms = &traces[mid].round_ms;
        let (helpful, redundant, arena) = finals[mid];
        rep.note(format!(
            "traced run_s={:.4} = protocol {:.4} (compose {:.4}, deliver {:.4}, wakeup {:.4}, other {:.4}) + sim.self_s {self_s:.4}; untraced run_s={:.4}",
            traced_s[mid],
            calls.blocking_s,
            calls.compose.est_s(),
            calls.deliver.est_s(),
            calls.wakeup.est_s(),
            calls.discard.est_s() + calls.complete.est_s() + calls.round_start.est_s() + calls.shard_admin.est_s(),
            median(&plain_s),
        ));
        rep.put("core.new_s", median(&new_s), "s");
        core_metrics(rep, calls, helpful, redundant, arena as f64 / MIB);
        rep.put("sim.rounds", stats.rounds as f64, "count");
        rep.put("sim.self_s", self_s, "s");
        rep.put("sim.round_ms_p50", median(round_ms), "ms");
        rep.put(
            "sim.round_ms_max",
            round_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        sim_counts(rep, &stats);
        rep.put("sim.shard_speedup", shard_speedup, "ratio");
        rep.put("plan.parallel_efficiency", plan_busy / plan_wall, "ratio");
        rep.put("graph.build_s", median(&graph_s), "s");
        rep.put(
            "trace.overhead_ratio",
            median(&traced_s) / median(&plain_s),
            "ratio",
        );
    }
}

/// `xs` as space-separated seconds.
fn fmt_samples(xs: &[f64]) -> String {
    xs.iter()
        .map(|s| format!("{s:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every node completed and decodes exactly the generation.
pub fn verify<F: SlabField>(proto: &AlgebraicGossip<F>, stats: &RunStats) -> bool {
    stats.completed
        && (0..proto.graph().n())
            .all(|v| proto.decoded(v).as_deref() == Some(proto.generation().messages()))
}

/// Records `stats` as the reference on first use; afterwards, true only
/// when `stats` equals the reference exactly.
fn same_stats(first: &mut Option<RunStats>, stats: &RunStats) -> bool {
    match first {
        Some(f) => f == stats,
        None => {
            *first = Some(stats.clone());
            true
        }
    }
}

/// One span per round under `run`, with its protocol share.
pub fn record_rounds(spans: &mut SpanLog, run: usize, start: Instant, trace: &RunTrace) {
    let mut t = start;
    for (i, (ms, proto_ms)) in trace
        .round_ms
        .iter()
        .zip(&trace.round_protocol_ms)
        .enumerate()
    {
        let end = t + Duration::from_secs_f64(ms / 1e3);
        spans.record(
            "round",
            Some(run),
            t,
            end,
            format!("round={} protocol_ms={proto_ms:.4}", i + 1),
        );
        t = end;
    }
}

/// The `core.*` call metrics.
pub fn core_metrics(
    rep: &mut Report,
    calls: &crate::trace::CallTotals,
    helpful: u64,
    redundant: u64,
    arena_mib: f64,
) {
    rep.put("core.wakeup_calls", calls.wakeup.calls as f64, "count");
    rep.put("core.wakeup_s", calls.wakeup.est_s(), "s");
    rep.put("core.compose_calls", calls.compose.calls as f64, "count");
    rep.put("core.compose_s", calls.compose.est_s(), "s");
    rep.put("core.deliver_calls", calls.deliver.calls as f64, "count");
    rep.put("core.deliver_s", calls.deliver.est_s(), "s");
    rep.put("core.discard_calls", calls.discard.calls as f64, "count");
    rep.put(
        "core.compose_empty_share",
        calls.compose_empty as f64 / calls.compose.calls.max(1) as f64,
        "ratio",
    );
    rep.put(
        "core.helpful_share",
        helpful as f64 / (helpful + redundant).max(1) as f64,
        "ratio",
    );
    rep.put("core.arena_MiB", arena_mib, "MiB");
}

/// The engine's own counters.
pub fn sim_counts(rep: &mut Report, stats: &RunStats) {
    rep.put("sim.delivered", stats.messages_delivered as f64, "count");
    rep.put("sim.dedup_dropped", stats.dedup_dropped as f64, "count");
    rep.put("sim.empty_sends", stats.empty_sends as f64, "count");
}
