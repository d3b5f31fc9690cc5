//! The `paper-sweep` workload: a fixed set of small-graph trial cells run
//! through one [`TrialPlan`] on the worker threads — the shape of the
//! paper's experiments. It is the only workload that runs TAG, the tree
//! protocols, the uncoded baseline, the asynchronous loop and GF(2⁴).
//!
//! A *pass* runs every trial of every cell once; `run_s` is a pass's wall
//! time. Each pass must reproduce the first pass's `RunStats` exactly.

// Timing harness: wall-clock reads are this file's job; the
// workspace-wide ban exists for simulation code.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use ag_gf::{Gf16, Gf256, SlabField};
use ag_graph::seedmix::splitmix64;
use ag_graph::{builders, Graph};
use ag_sim::{EngineConfig, Protocol, RunStats};
use algebraic_gossip::{
    AgConfig, AlgebraicGossip, BroadcastTree, CommModel, IsTree, Placement, RandomMessageGossip,
    Tag, TreeProtocol, TrialPlan, TrialSeeds,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::completion::{core_metrics, sim_counts, verify};
use crate::drive::{self, Loop, RunTrace};
use crate::report::{median, Report};
use crate::trace::{CallTotals, SpanLog};
use crate::{layer_metrics, Ctx, LayerShape, MIB};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// TAG with the round-robin broadcast tree `B_RR` rooted at node 0.
    TagBrr,
    /// TAG with the IS bitstring tree rooted at node 0.
    TagIs,
    UniformAg,
    /// Store-and-forward gossip of raw messages.
    Uncoded,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Topo {
    Barbell,
    Ring,
    Grid,
    Rr3,
}

struct Cell {
    name: &'static str,
    topo: Topo,
    kind: Kind,
    gf16: bool,
    k: usize,
    r: usize,
    asynchronous: bool,
    /// Trials per pass, chosen so no cell dominates the pass.
    trials: u64,
}

const fn cell(name: &'static str, topo: Topo, kind: Kind, k: usize, trials: u64) -> Cell {
    Cell {
        name,
        topo,
        kind,
        gf16: false,
        k,
        r: 0,
        asynchronous: false,
        trials,
    }
}

/// The trial set, most expensive trials first so the queue drains evenly.
const CELLS: [Cell; 8] = [
    Cell {
        r: 256,
        gf16: true,
        ..cell("rr3-ag-gf16", Topo::Rr3, Kind::UniformAg, 64, 3)
    },
    Cell {
        r: 256,
        ..cell("rr3-ag-gf256", Topo::Rr3, Kind::UniformAg, 64, 6)
    },
    cell("barbell-ag", Topo::Barbell, Kind::UniformAg, 96, 8),
    cell("barbell-tag-brr", Topo::Barbell, Kind::TagBrr, 96, 8),
    cell("ring-tag-brr", Topo::Ring, Kind::TagBrr, 128, 8),
    cell("grid-tag-is", Topo::Grid, Kind::TagIs, 64, 8),
    cell("grid-uncoded", Topo::Grid, Kind::Uncoded, 64, 8),
    Cell {
        asynchronous: true,
        ..cell("grid-ag-async", Topo::Grid, Kind::UniformAg, 64, 8)
    },
];

const MAX_ROUNDS: u64 = 1_000_000;
/// Set-up is timed on one fixed seed, the same in every run whatever its
/// seed, so every set-up builds the same graphs and runs the same warm-up
/// trials. Every pass is preceded by one set-up, so set-up is sampled
/// across the whole run as the host's speed drifts; `setup_s` is the
/// median set-up.
const SETUP_SEED: u64 = 0x5E7;
const MIN_PASSES: usize = 3;
/// Time every `TRACE_EVERY`-th protocol call in the traced pass.
const TRACE_EVERY: u64 = 5;

/// The four cell graphs, indexed by [`Topo`].
struct Graphs([Graph; 4]);

impl Graphs {
    fn build(seed: u64) -> Graphs {
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x6A));
        Graphs([
            builders::barbell(96).expect("barbell"),
            builders::cycle(128).expect("ring"),
            builders::grid(16, 16).expect("grid"),
            builders::random_regular(1024, 3, &mut rng).expect("3-regular graph"),
        ])
    }

    fn get(&self, topo: Topo) -> &Graph {
        &self.0[topo as usize]
    }
}

/// One trial's result.
struct TrialOut {
    cell: usize,
    stats: RunStats,
    ok: bool,
    n: usize,
    /// Protocol construction seconds.
    new_s: f64,
    /// Engine seconds, round 1 to completion.
    run_s: f64,
    /// Whole-trial seconds: construction, run and verification.
    busy_s: f64,
    /// When the whole trial started and ended.
    span: (Instant, Instant),
    trace: Option<RunTrace>,
    helpful: u64,
    redundant: u64,
    arena_bytes: usize,
}

fn engine_cfg(cell: &Cell, seeds: TrialSeeds) -> EngineConfig {
    let cfg = if cell.asynchronous {
        EngineConfig::asynchronous(seeds.engine)
    } else {
        EngineConfig::synchronous(seeds.engine)
    };
    cfg.with_max_rounds(MAX_ROUNDS)
}

fn drive_any<P: Protocol>(
    proto: P,
    cfg: EngineConfig,
    every: Option<u64>,
) -> (P, RunStats, f64, Option<RunTrace>) {
    match every {
        None => {
            let mut proto = proto;
            let (stats, secs) = drive::run_serial(&mut proto, cfg);
            (proto, stats, secs, None)
        }
        Some(every) => {
            let (proto, stats, secs, trace) = drive::traced_serial(proto, cfg, every);
            (proto, stats, secs, Some(trace))
        }
    }
}

fn blank(cell: usize, n: usize, new_s: f64, run: (RunStats, f64, Option<RunTrace>)) -> TrialOut {
    TrialOut {
        cell,
        n,
        ok: run.0.completed,
        stats: run.0,
        new_s,
        run_s: run.1,
        busy_s: 0.0,
        span: (Instant::now(), Instant::now()),
        trace: run.2,
        helpful: 0,
        redundant: 0,
        arena_bytes: 0,
    }
}

fn ag_trial<F: SlabField>(ci: usize, g: &Graph, seeds: TrialSeeds, every: Option<u64>) -> TrialOut {
    let cell = &CELLS[ci];
    let cfg = AgConfig::new(cell.k)
        .with_payload_len(cell.r)
        .with_placement(Placement::Spread);
    let t = Instant::now();
    let proto = AlgebraicGossip::<F>::new(g, &cfg, seeds.protocol).expect("AG protocol");
    let new_s = t.elapsed().as_secs_f64();
    let (p, stats, secs, trace) = drive_any(proto, engine_cfg(cell, seeds), every);
    let ok = verify(&p, &stats);
    let mut out = blank(ci, g.n(), new_s, (stats, secs, trace));
    out.ok = ok;
    out.helpful = p.helpful_receptions();
    out.redundant = p.redundant_receptions();
    out.arena_bytes = p.arena_allocated_bytes();
    out
}

fn tag_trial<F: SlabField>(
    ci: usize,
    g: &Graph,
    seeds: TrialSeeds,
    every: Option<u64>,
) -> TrialOut {
    // Construction time covers the tree protocol and TAG itself.
    let t = Instant::now();
    if CELLS[ci].kind == Kind::TagIs {
        let tree = IsTree::new(g, 0, seeds.protocol).expect("IS tree");
        run_tag::<F, _>(ci, g, tree, seeds, every, t)
    } else {
        let tree = BroadcastTree::new(g, 0, CommModel::RoundRobin, seeds.protocol).expect("B_RR");
        run_tag::<F, _>(ci, g, tree, seeds, every, t)
    }
}

fn run_tag<F: SlabField, S: TreeProtocol>(
    ci: usize,
    g: &Graph,
    tree: S,
    seeds: TrialSeeds,
    every: Option<u64>,
    started: Instant,
) -> TrialOut {
    let cell = &CELLS[ci];
    let cfg = AgConfig::new(cell.k).with_payload_len(cell.r);
    let proto = Tag::<F, S>::new(g, tree, &cfg, seeds.protocol).expect("TAG");
    let new_s = started.elapsed().as_secs_f64();
    let (p, stats, secs, trace) = drive_any(proto, engine_cfg(cell, seeds), every);
    let mut out = blank(ci, g.n(), new_s, (stats, secs, trace));
    out.ok =
        out.ok && (0..g.n()).all(|v| p.decoded(v).as_deref() == Some(p.generation().messages()));
    out
}

fn uncoded_trial(ci: usize, g: &Graph, seeds: TrialSeeds, every: Option<u64>) -> TrialOut {
    let cell = &CELLS[ci];
    let cfg = AgConfig::new(cell.k).with_payload_len(cell.r);
    let t = Instant::now();
    let proto = RandomMessageGossip::<Gf256>::new(g, &cfg, seeds.protocol).expect("baseline");
    let new_s = t.elapsed().as_secs_f64();
    let (p, stats, secs, trace) = drive_any(proto, engine_cfg(cell, seeds), every);
    let mut out = blank(ci, g.n(), new_s, (stats, secs, trace));
    out.ok = out.ok
        && (0..g.n()).all(|v| {
            let held = p.messages_of(v);
            held.len() == cell.k
                && held
                    .iter()
                    .all(|m| m.payload == p.generation().message(m.index))
        });
    out
}

/// Runs trial `seeds` of cell `ci`, verifying every node's result.
fn trial(ci: usize, graphs: &Graphs, seeds: TrialSeeds, every: Option<u64>) -> TrialOut {
    let cell = &CELLS[ci];
    let g = graphs.get(cell.topo);
    let t = Instant::now();
    let mut out = match (cell.kind, cell.gf16) {
        (Kind::UniformAg, false) => ag_trial::<Gf256>(ci, g, seeds, every),
        (Kind::UniformAg, true) => ag_trial::<Gf16>(ci, g, seeds, every),
        (Kind::TagBrr | Kind::TagIs, false) => tag_trial::<Gf256>(ci, g, seeds, every),
        (Kind::TagBrr | Kind::TagIs, true) => tag_trial::<Gf16>(ci, g, seeds, every),
        (Kind::Uncoded, _) => uncoded_trial(ci, g, seeds, every),
    };
    let end = Instant::now();
    out.busy_s = end.duration_since(t).as_secs_f64();
    out.span = (t, end);
    out
}

fn total_trials() -> u64 {
    CELLS.iter().map(|c| c.trials).sum()
}

/// The cell trial `t` of the flattened plan belongs to.
fn cell_of(mut t: u64) -> usize {
    for (i, c) in CELLS.iter().enumerate() {
        if t < c.trials {
            return i;
        }
        t -= c.trials;
    }
    CELLS.len() - 1
}

fn plan(seed: u64) -> TrialPlan {
    TrialPlan::new(total_trials(), splitmix64(seed ^ 0x5E))
}

/// One pass over every trial: `(outcomes in trial order, wall seconds)`.
fn pass(graphs: &Graphs, seed: u64, every: Option<u64>, serial: bool) -> (Vec<TrialOut>, f64) {
    let plan = plan(seed);
    let f = |s: TrialSeeds| trial(cell_of(s.trial), graphs, s, every);
    let t = Instant::now();
    let outs = if serial {
        plan.map_serial(f)
    } else {
        plan.map(f)
    };
    (outs, t.elapsed().as_secs_f64())
}

/// Set-up: the cell graphs plus one warm-up trial per cell, on seeds
/// beyond the plan's own. Returns `(total s, graph s, new s)`.
fn setup(seed: u64, rep: &mut Report) -> (f64, f64, f64) {
    let t = Instant::now();
    let graphs = Graphs::build(seed);
    let graph_s = t.elapsed().as_secs_f64();
    let plan = plan(seed);
    let mut new_s = 0.0;
    for (ci, cell) in CELLS.iter().enumerate() {
        let out = trial(ci, &graphs, plan.seeds(total_trials() + ci as u64), None);
        rep.run(out.ok, &format!("warm-up trial of {}", cell.name));
        new_s += out.new_s;
    }
    (t.elapsed().as_secs_f64(), graph_s, new_s)
}

/// Checks a pass: every trial verified and `RunStats` equal to the
/// reference pass. Returns `(node-rounds, trials)`.
fn check_pass(
    outs: &[TrialOut],
    first: &mut Option<Vec<RunStats>>,
    what: &str,
    rep: &mut Report,
) -> (f64, usize) {
    let stats: Vec<RunStats> = outs.iter().map(|o| o.stats.clone()).collect();
    let same = match first {
        Some(f) => *f == stats,
        None => {
            *first = Some(stats);
            true
        }
    };
    for o in outs {
        rep.run(o.ok, &format!("{what}: trial of {}", CELLS[o.cell].name));
    }
    rep.run(same, &format!("{what}: RunStats must match the first pass"));
    let node_rounds = outs
        .iter()
        .map(|o| o.n as f64 * o.stats.rounds as f64)
        .sum();
    (node_rounds, outs.len())
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx, rep: &mut Report) {
    let graphs = Graphs::build(ctx.seed);
    let mut first = None;
    let mut setups = Vec::new();
    let (mut walls, mut node_rounds, mut trials) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < MIN_PASSES || start.elapsed() < ctx.budget {
        setups.push(setup(SETUP_SEED, rep).0);
        let (outs, wall) = pass(&graphs, ctx.seed, None, false);
        let (nr, t) = check_pass(&outs, &mut first, "pass", rep);
        walls.push(wall);
        node_rounds.push(nr / wall);
        trials.push(t as f64 / wall);
    }
    rep.note(format!(
        "passes={} trials/pass={} pass_s[min,max]=[{:.4},{:.4}]",
        walls.len(),
        total_trials(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max)
    ));
    rep.put("setup_s", median(&setups), "s");
    rep.put("run_s", median(&walls), "s");
    rep.put("node_rounds_per_s", median(&node_rounds), "1/s");
    rep.put("trials_per_s", median(&trials), "1/s");
}

/// One pass over the trial set: the process `run.py` measures peak
/// memory on.
pub fn run_once(ctx: &Ctx, rep: &mut Report) {
    let graphs = Graphs::build(ctx.seed);
    let (outs, _) = pass(&graphs, ctx.seed, None, false);
    check_pass(&outs, &mut None, "memory probe pass", rep);
}

/// The traced run: per-layer metrics.
pub fn run_traced(ctx: &Ctx, rep: &mut Report, spans: &mut SpanLog) {
    let graphs = Graphs::build(ctx.seed);
    let mut first = None;
    let (mut graph_s, mut new_s) = (Vec::new(), Vec::new());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut traced_outs = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < ctx.budget.mul_f64(0.4) {
        let (_, g, p) = setup(SETUP_SEED, rep);
        graph_s.push(g);
        new_s.push(p);
        let (outs, wall) = pass(&graphs, ctx.seed, None, false);
        check_pass(&outs, &mut first, "untraced pass", rep);
        plain.push(wall);
        let pass_start = Instant::now();
        let (outs, wall) = pass(&graphs, ctx.seed, Some(TRACE_EVERY), false);
        check_pass(&outs, &mut first, "traced pass", rep);
        let id = spans.record("pass", None, pass_start, Instant::now(), String::new());
        for o in &outs {
            spans.record(
                "trial",
                Some(id),
                o.span.0,
                o.span.1,
                format!(
                    "cell={} rounds={} run_s={:.6} busy_s={:.6}",
                    CELLS[o.cell].name, o.stats.rounds, o.run_s, o.busy_s
                ),
            );
        }
        traced.push(wall);
        traced_outs = outs;
    }
    // Single-thread baseline of the same trial set.
    let (outs, serial_wall) = pass(&graphs, ctx.seed, None, true);
    check_pass(&outs, &mut first, "serial pass", rep);
    let mut cell_s = vec![0.0; CELLS.len()];
    for o in &outs {
        cell_s[o.cell] += o.busy_s;
    }
    for (c, s) in CELLS.iter().zip(&cell_s) {
        rep.note(format!(
            "plan.cell_s.{} = {s:.4} s ({} trials, {:.0}% of the serial pass)",
            c.name,
            c.trials,
            100.0 * s / serial_wall
        ));
    }
    let shard_speedup = shard_speedup(&graphs, ctx, rep);

    layer_metrics(
        &LayerShape {
            gf16: true,
            row_symbols: 256,
            coeff_symbols: 64,
            linalg_k: 96,
            linalg_r: 0,
            rlnc_k: 64,
            rlnc_r: 256,
        },
        ctx,
        rep,
    );

    let mut calls = CallTotals::default();
    let mut round_ms = Vec::new();
    let (mut run_s, mut helpful, mut redundant, mut arena) = (0.0, 0, 0, 0usize);
    let mut sum = traced_outs[0].stats.clone();
    for (i, o) in traced_outs.iter().enumerate() {
        let tr = o.trace.as_ref().expect("traced pass records traces");
        calls.merge(&tr.calls);
        round_ms.extend_from_slice(&tr.round_ms);
        run_s += o.run_s;
        helpful += o.helpful;
        redundant += o.redundant;
        arena = arena.max(o.arena_bytes);
        if i > 0 {
            sum.rounds += o.stats.rounds;
            sum.messages_delivered += o.stats.messages_delivered;
            sum.dedup_dropped += o.stats.dedup_dropped;
            sum.empty_sends += o.stats.empty_sends;
        }
    }
    rep.note(format!(
        "traced trial run_s summed={run_s:.4} = protocol {:.4} + sim.self_s {:.4}; pass wall untraced={:.4} traced={:.4} serial={serial_wall:.4}",
        calls.blocking_s,
        run_s - calls.blocking_s,
        median(&plain),
        median(&traced),
    ));
    rep.put("core.new_s", median(&new_s), "s");
    core_metrics(rep, &calls, helpful, redundant, arena as f64 / MIB);
    rep.put("sim.rounds", sum.rounds as f64, "count");
    rep.put("sim.self_s", run_s - calls.blocking_s, "s");
    rep.put("sim.round_ms_p50", median(&round_ms), "ms");
    rep.put(
        "sim.round_ms_max",
        round_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    sim_counts(rep, &sum);
    rep.put("sim.shard_speedup", shard_speedup, "ratio");
    rep.put(
        "plan.parallel_efficiency",
        serial_wall / (ctx.threads as f64 * median(&plain)),
        "ratio",
    );
    rep.put("graph.build_s", median(&graph_s), "s");
    rep.put(
        "trace.overhead_ratio",
        median(&traced) / median(&plain),
        "ratio",
    );
}

/// Serial engine vs the sharded engine (one shard per thread) on the
/// `rr3-ag-gf256` cell's problem, per round.
fn shard_speedup(graphs: &Graphs, ctx: &Ctx, rep: &mut Report) -> f64 {
    const TRIALS: u64 = 4;
    let ci = CELLS
        .iter()
        .position(|c| c.name == "rr3-ag-gf256")
        .expect("cell exists");
    let cell = &CELLS[ci];
    let g = graphs.get(cell.topo);
    let cfg = AgConfig::new(cell.k)
        .with_payload_len(cell.r)
        .with_placement(Placement::Spread);
    let plan = TrialPlan::new(TRIALS, splitmix64(ctx.seed ^ 0x5D));
    let mut per_round = |s: TrialSeeds, lp: Loop, what: &str| {
        let mut p = AlgebraicGossip::<Gf256>::new(g, &cfg, s.protocol).expect("AG protocol");
        let (stats, secs) = drive::run_untraced(&mut p, engine_cfg(cell, s), lp);
        rep.run(verify(&p, &stats), what);
        secs / stats.rounds.max(1) as f64
    };
    let (mut serial, mut sharded) = (0.0, 0.0);
    for s in plan.seed_list() {
        serial += per_round(s, Loop::Serial, "shard baseline: serial trial");
        sharded += per_round(
            s,
            Loop::Sharded(ctx.threads),
            "shard baseline: sharded trial",
        );
    }
    serial / sharded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_of_walks_the_flattened_plan() {
        assert_eq!(cell_of(0), 0);
        assert_eq!(cell_of(CELLS[0].trials), 1);
        assert_eq!(cell_of(total_trials() - 1), CELLS.len() - 1);
    }
}
