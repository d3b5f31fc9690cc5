//! Stand-alone probes of the three lowest layers, each timed from outside
//! through the layer's public calls at the workload's shape:
//!
//! * `gf` — [`SlabField::mul_add_slice`] on one packed row;
//! * `linalg` — [`EchelonBasis`] insert until full rank, then settle;
//! * `rlnc` — a small all-to-all exchange among [`Decoder`]s:
//!   [`Recoder::emit`], [`Decoder::try_receive`], `settle`, `decode`, with
//!   every decode checked against the generation.
//!
//! Each probe runs for a fixed time budget and reports means per call.

// Timing harness: wall-clock reads are this file's job; the
// workspace-wide ban exists for simulation code.
#![allow(clippy::disallowed_methods)]

use std::hint::black_box;
use std::time::{Duration, Instant};

use ag_gf::SlabField;
use ag_linalg::EchelonBasis;
use ag_rlnc::{Decoder, Generation, Reception, Recoder};
use rand::rngs::StdRng;
use rand::Rng;

use crate::MIB;

fn random_row<F: SlabField>(symbols: usize, rng: &mut StdRng) -> Vec<u8> {
    let elems: Vec<F> = (0..symbols).map(|_| F::random(rng)).collect();
    F::pack(&elems)
}

/// `mul_add_slice` throughput in MiB/s of destination bytes on rows of
/// `symbols` symbols, measured for about `budget`.
pub fn gf_mul_add_mib_s<F: SlabField>(symbols: usize, budget: Duration, rng: &mut StdRng) -> f64 {
    let src = random_row::<F>(symbols, rng);
    let mut dst = random_row::<F>(symbols, rng);
    let c = F::random_nonzero(rng);
    // Enough calls per clock read that the read itself is negligible.
    let batch = (1 << 20) / src.len().max(1) + 1;
    let mut calls = 0u64;
    let t = Instant::now();
    while t.elapsed() < budget {
        for _ in 0..batch {
            F::mul_add_slice(c, black_box(&src), black_box(&mut dst));
        }
        calls += batch as u64;
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(&dst);
    (calls as f64 * src.len() as f64) / MIB / secs
}

/// `EchelonBasis` timings at `(F, k, r)`.
pub struct LinalgProbe {
    pub insert_us: f64,
    pub settle_us: f64,
}

/// Fills fresh bases of pivot width `k` with random `(k + r)`-symbol rows
/// until each is full, timing every insert and the settle that follows.
pub fn linalg_probe<F: SlabField>(
    k: usize,
    r: usize,
    budget: Duration,
    rng: &mut StdRng,
) -> LinalgProbe {
    let pool: Vec<Vec<u8>> = (0..4 * k).map(|_| random_row::<F>(k + r, rng)).collect();
    let mut buf = vec![0u8; pool[0].len()];
    let (mut inserts, mut insert_s) = (0u64, 0.0f64);
    let (mut settles, mut settle_s) = (0u64, 0.0f64);
    let mut next = 0usize;
    let start = Instant::now();
    while settles == 0 || start.elapsed() < budget {
        let mut basis = EchelonBasis::<F>::new(k);
        while !basis.is_full() {
            buf.copy_from_slice(&pool[next % pool.len()]);
            next += 1;
            let t = Instant::now();
            let outcome = basis.try_insert_packed_mut(&mut buf);
            insert_s += t.elapsed().as_secs_f64();
            inserts += 1;
            black_box(outcome.expect("rows have the basis shape"));
        }
        let t = Instant::now();
        basis.settle();
        settle_s += t.elapsed().as_secs_f64();
        settles += 1;
        black_box(&basis);
    }
    LinalgProbe {
        insert_us: insert_s * 1e6 / inserts as f64,
        settle_us: settle_s * 1e6 / settles as f64,
    }
}

/// Decoder-layer timings at `(F, k, r)`.
pub struct RlncProbe {
    pub emit_us: f64,
    pub receive_us: f64,
    pub settle_us: f64,
    pub decode_us: f64,
    /// Receptions from a helpful sender that were innovative, over all
    /// receptions from a helpful sender.
    pub innovative_share: f64,
    /// Decodes that did not reproduce the generation.
    pub bad_decodes: u64,
}

/// Nodes in the exchange probe.
const PROBE_NODES: usize = 8;

/// Runs generations of an 8-node exchange: messages spread round-robin,
/// random sender/receiver pairs until every node has full rank, then
/// settles and decodes every node and checks the result.
pub fn rlnc_probe<F: SlabField>(
    k: usize,
    r: usize,
    budget: Duration,
    rng: &mut StdRng,
) -> RlncProbe {
    let (mut emits, mut emit_s) = (0u64, 0.0f64);
    let (mut receives, mut receive_s) = (0u64, 0.0f64);
    let (mut settles, mut settle_s) = (0u64, 0.0f64);
    let (mut decodes, mut decode_s) = (0u64, 0.0f64);
    let (mut helpful, mut innovative) = (0u64, 0u64);
    let mut bad_decodes = 0u64;
    let start = Instant::now();
    while decodes == 0 || start.elapsed() < budget {
        let generation = Generation::<F>::random(k, r, rng);
        let mut nodes: Vec<Decoder<F>> = (0..PROBE_NODES).map(|_| Decoder::new(k, r)).collect();
        for i in 0..k {
            nodes[i % PROBE_NODES].seed_message(&generation, i);
        }
        while !nodes.iter().all(Decoder::is_complete) {
            let from = rng.gen_range(0..PROBE_NODES);
            let to = (from + rng.gen_range(1..PROBE_NODES)) % PROBE_NODES;
            let was_helpful = nodes[to].is_helpful_node(&nodes[from]);
            let t = Instant::now();
            let packet = Recoder::new(&nodes[from]).emit(rng);
            emit_s += t.elapsed().as_secs_f64();
            emits += 1;
            let Some(packet) = packet else { continue };
            let t = Instant::now();
            let outcome = nodes[to].try_receive(&packet);
            receive_s += t.elapsed().as_secs_f64();
            receives += 1;
            let outcome = outcome.expect("packet has the decoder's shape");
            if was_helpful {
                helpful += 1;
                innovative += u64::from(outcome == Reception::Innovative);
            }
        }
        for node in &nodes {
            let t = Instant::now();
            node.settle();
            settle_s += t.elapsed().as_secs_f64();
            settles += 1;
            let t = Instant::now();
            let decoded = node.decode();
            decode_s += t.elapsed().as_secs_f64();
            decodes += 1;
            if decoded.as_deref() != Some(generation.messages()) {
                bad_decodes += 1;
            }
        }
    }
    RlncProbe {
        emit_us: emit_s * 1e6 / emits as f64,
        receive_us: receive_s * 1e6 / receives.max(1) as f64,
        settle_us: settle_s * 1e6 / settles as f64,
        decode_us: decode_s * 1e6 / decodes as f64,
        innovative_share: innovative as f64 / helpful.max(1) as f64,
        bad_decodes,
    }
}
