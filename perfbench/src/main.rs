//! The repository benchmark: three workloads over the algebraic gossip
//! stack, end-to-end metrics from an untraced run and per-layer metrics
//! from a separate traced run. See `perfbench/README.md` for the metric
//! definitions and `perfbench/run.py` for the script that builds this
//! binary and measures peak memory.
//!
//! ```text
//! ag-perfbench --workload <ag-payload-1k|rank-only-100k|paper-sweep>
//!              --seed <n> --seconds <s> --trace <0|1>
//!              [--trace-out <file>] [--once <0|1>]
//! ```
//!
//! The workloads run on `min(2, available cores)` threads.
//!
//! `--once 1` sets up and runs one problem (one pass of `paper-sweep`)
//! with its checks and prints no metrics: the fresh process whose peak
//! memory `run.py` reports as `peak_rss_mib`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed decode or
//! `RunStats` mismatch makes the exit code non-zero.

mod completion;
mod drive;
mod layers;
mod report;
mod sweep;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use ag_gf::{Gf16, Gf256, Kernel};
use ag_graph::seedmix::splitmix64;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Report;
use crate::trace::SpanLog;

pub const MIB: f64 = 1024.0 * 1024.0;

/// Per-invocation settings every workload reads.
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    pub threads: usize,
}

/// Where the stand-alone `gf`/`linalg`/`rlnc` probes run.
pub struct LayerShape {
    /// GF(2⁴) for the `gf` and `rlnc` probes (else GF(2⁸)).
    pub gf16: bool,
    /// Row length of `gf.mul_add_MiB_s`, in symbols.
    pub row_symbols: usize,
    /// Row length of `gf.mul_add_coeff_MiB_s`, in symbols.
    pub coeff_symbols: usize,
    /// `EchelonBasis` shape (always GF(2⁸)).
    pub linalg_k: usize,
    pub linalg_r: usize,
    /// `Decoder` shape.
    pub rlnc_k: usize,
    pub rlnc_r: usize,
}

/// Time budget of each stand-alone layer probe.
const PROBE_BUDGET: Duration = Duration::from_millis(250);

/// Runs the `gf`, `linalg` and `rlnc` probes at `shape`.
pub fn layer_metrics(shape: &LayerShape, ctx: &Ctx, rep: &mut Report) {
    let mut rng = StdRng::seed_from_u64(splitmix64(ctx.seed ^ 0x1A));
    let b = PROBE_BUDGET;
    let (row, coeff, rl) = if shape.gf16 {
        (
            layers::gf_mul_add_mib_s::<Gf16>(shape.row_symbols, b, &mut rng),
            layers::gf_mul_add_mib_s::<Gf16>(shape.coeff_symbols, b, &mut rng),
            layers::rlnc_probe::<Gf16>(shape.rlnc_k, shape.rlnc_r, b, &mut rng),
        )
    } else {
        (
            layers::gf_mul_add_mib_s::<Gf256>(shape.row_symbols, b, &mut rng),
            layers::gf_mul_add_mib_s::<Gf256>(shape.coeff_symbols, b, &mut rng),
            layers::rlnc_probe::<Gf256>(shape.rlnc_k, shape.rlnc_r, b, &mut rng),
        )
    };
    let la = layers::linalg_probe::<Gf256>(shape.linalg_k, shape.linalg_r, b, &mut rng);
    rep.run(rl.bad_decodes == 0, "rlnc probe decode");
    rep.put("gf.mul_add_MiB_s", row, "MiB/s");
    rep.put("gf.mul_add_coeff_MiB_s", coeff, "MiB/s");
    rep.put("linalg.insert_us", la.insert_us, "us");
    rep.put("linalg.settle_us", la.settle_us, "us");
    rep.put("rlnc.emit_us", rl.emit_us, "us");
    rep.put("rlnc.receive_us", rl.receive_us, "us");
    rep.put("rlnc.settle_us", rl.settle_us, "us");
    rep.put("rlnc.decode_us", rl.decode_us, "us");
    rep.put("rlnc.innovative_share", rl.innovative_share, "ratio");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    once: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut once = false;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" | "--once" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
                if flag == "--trace" {
                    trace = on;
                } else {
                    once = on;
                }
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        once,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ag-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // `available_parallelism` respects the CPU affinity mask.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    // The trial runner reads its thread count from the environment;
    // set it before any parallel work starts.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        threads,
    };
    let mut rep = Report::default();
    let mut spans = SpanLog::new();
    let host = format!(
        "host: cores={} simd={} kernel={} replay={} threads={} shards={} seed={} workload={} trace={} clock_read_ns={:.1}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        ag_gf::simd::level_name(),
        Kernel::active().name(),
        ag_linalg::replay_mode().name(),
        threads,
        if args.workload == "rank-only-100k" { threads } else { 1 },
        args.seed,
        args.workload,
        u8::from(args.trace),
        trace::clock_overhead_ns(),
    );
    rep.note(host.clone());
    let problem = match args.workload.as_str() {
        "ag-payload-1k" => Some(&completion::AG_PAYLOAD_1K),
        "rank-only-100k" => Some(&completion::RANK_ONLY_100K),
        "paper-sweep" => None,
        other => {
            eprintln!("ag-perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    match (problem, args.once, args.trace) {
        (Some(c), true, _) => c.run_once(&ctx, &mut rep),
        (Some(c), false, false) => c.run(&ctx, &mut rep),
        (Some(c), false, true) => c.run_traced(&ctx, &mut rep, &mut spans),
        (None, true, _) => sweep::run_once(&ctx, &mut rep),
        (None, false, false) => sweep::run(&ctx, &mut rep),
        (None, false, true) => sweep::run_traced(&ctx, &mut rep, &mut spans),
    }
    if let Some(path) = &args.trace_out {
        let body = format!("{{\"host\":\"{host}\"}}\n{}", spans.to_json_lines());
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("ag-perfbench: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    rep.print();
    if rep.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
