//! Micro-tuner for the GF(2⁸) kernel routing decisions.
//!
//! Two measurements, printed (not committed as a gate — this is the tool
//! the routing constants in `ag_gf::kernel` cite):
//!
//! 1. **Blocked panel vs gather replay** at the decode shape: applying an
//!    `n × n` transform panel to `n` payload rows via one
//!    `mul_add_block` GEMM, against the row-at-a-time `mul_add_multi`
//!    schedule it replaces. This is the kernel behind the blocked payload
//!    replay in `ag_linalg`.
//! 2. **SWAR vs reference crossover**: single-row axpy throughput of the
//!    `wide` and `reference` rungs across row lengths, bracketing where
//!    (or whether) the SWAR rung ever wins on GF(2⁸) — the measurement
//!    behind `GF256_SWAR_ROW_BYTES` routing.
//! 3. **Short rows, SIMD vs reference**: single-row axpy at 8–63 bytes and
//!    an 18-source × 32-byte fused gather (the recoding and header
//!    elimination shape at k = 32) — the measurement behind the GFNI
//!    branch of `SHORT_ROW_BYTES` routing.
//!
//! Usage: `cargo run --release -p ag-bench --bin bench_gf_block`.

// Timing harness: wall-clock reads are this binary's job; the
// workspace-wide ban exists for simulation code.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use ag_gf::{reference, simd, wide, Gf256, SlabField};

fn fill(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// One blocked GEMM `dsts += coefs · srcs` at (n × n) × (n × rb), MiB/s of
/// destination panel written per pass.
fn gemm_mib_s(n: usize, rb: usize, reps: usize) -> (f64, f64) {
    let coefs = fill(0xC0EF, n * n);
    let srcs = fill(0x51C5, n * rb);
    let mut dsts = fill(0xD575, n * rb);
    Gf256::mul_add_block(&coefs, &srcs, &mut dsts, rb); // warm
    let mut best_block = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..reps {
            Gf256::mul_add_block(&coefs, &srcs, &mut dsts, rb);
            std::hint::black_box(&dsts);
        }
        best_block = best_block.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    let mut best_gather = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..reps {
            for i in 0..n {
                let (before, rest) = dsts.split_at_mut(i * rb);
                let _ = before;
                Gf256::mul_add_multi(&coefs[i * n..(i + 1) * n], &srcs, &mut rest[..rb]);
            }
            std::hint::black_box(&dsts);
        }
        best_gather = best_gather.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    let mib = (n * rb) as f64 / (1024.0 * 1024.0);
    (mib / best_block, mib / best_gather)
}

/// Single-row axpy MiB/s for one rung entry point at one row length.
fn axpy_mib_s(f: fn(u8, &[u8], &mut [u8]), len: usize, reps: usize) -> f64 {
    let src = fill(0xA5, len);
    let mut dst = fill(0x5A, len);
    f(0x57, &src, &mut dst); // warm
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f(0x57, &src, &mut dst);
            std::hint::black_box(&dst);
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    len as f64 / (1024.0 * 1024.0) / best
}

/// Fused-gather MiB/s (source bytes read per second) of `m` sources × `len`
/// bytes into one row, for one gather entry point.
fn gather_mib_s(f: fn(&[u8], &[u8], &mut [u8]), m: usize, len: usize, reps: usize) -> f64 {
    let factors = fill(0xFAC7, m);
    let srcs = fill(0x51C5, m * len);
    let mut dst = fill(0x5A, len);
    f(&factors, &srcs, &mut dst); // warm
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f(&factors, &srcs, &mut dst);
            std::hint::black_box(&dst);
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    (m * len) as f64 / (1024.0 * 1024.0) / best
}

/// The gather as a loop of reference-rung axpys.
fn reference_multi(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
    for (&f, row) in factors.iter().zip(srcs.chunks_exact(dst.len())) {
        reference::gf256_mul_add_slice(f, row, dst);
    }
}

/// Register-only GF2P8MULB throughput probes: no memory traffic, just
/// independent multiply-xor chains, to expose the port ceiling the blocked
/// kernel is chasing.
#[cfg(target_arch = "x86_64")]
mod peak {
    #![allow(unsafe_code)]
    use std::arch::x86_64::*;
    use std::time::Instant;

    /// # Safety
    ///
    /// Caller must have verified GFNI, AVX-512F and AVX-512BW support.
    // SAFETY: register-only intrinsics — no memory access.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    unsafe fn zmm_chains(iters: u64) -> __m512i {
        let c = _mm512_set1_epi8(0x3B);
        let d = _mm512_set1_epi8(0x11);
        // Each chain feeds its accumulator back into the multiply so the
        // body cannot be hoisted: one GF2P8MULB + one VPXORD per step, 16
        // independent chains to cover the multiply latency.
        let mut a = [_mm512_set1_epi8(1); 16];
        for _ in 0..iters {
            for v in &mut a {
                *v = _mm512_xor_si512(_mm512_gf2p8mul_epi8(*v, c), d);
            }
        }
        let mut acc = a[0];
        for v in &a[1..] {
            acc = _mm512_xor_si512(acc, *v);
        }
        acc
    }

    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support.
    // SAFETY: register-only intrinsics — no memory access.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn ymm_chains(iters: u64) -> __m256i {
        let c = _mm256_set1_epi8(0x3B);
        let d = _mm256_set1_epi8(0x11);
        let mut a = [_mm256_set1_epi8(1); 16];
        for _ in 0..iters {
            for v in &mut a {
                *v = _mm256_xor_si256(_mm256_gf2p8mul_epi8(*v, c), d);
            }
        }
        let mut acc = a[0];
        for v in &a[1..] {
            acc = _mm256_xor_si256(acc, *v);
        }
        acc
    }

    /// # Safety
    ///
    /// Caller must have verified GFNI, AVX-512F and AVX-512BW support.
    // SAFETY: register-only intrinsics — no memory access.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    unsafe fn zmm_mul_only_chains(iters: u64) -> __m512i {
        let c = _mm512_set1_epi8(0x3B);
        let mut a = [_mm512_set1_epi8(1); 16];
        for _ in 0..iters {
            for v in &mut a {
                *v = _mm512_gf2p8mul_epi8(*v, c);
            }
        }
        let mut acc = a[0];
        for v in &a[1..] {
            acc = _mm512_xor_si512(acc, *v);
        }
        acc
    }

    /// # Safety
    ///
    /// Caller must have verified GFNI, AVX-512F and AVX-512BW support.
    // SAFETY: register-only intrinsics — no memory access.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    unsafe fn zmm_affine_chains(iters: u64) -> __m512i {
        let m = _mm512_set1_epi64(0x0102040810204080u64 as i64);
        let mut a = [_mm512_set1_epi8(1); 16];
        for _ in 0..iters {
            for v in &mut a {
                *v = _mm512_gf2p8affine_epi64_epi8::<0>(*v, m);
            }
        }
        let mut acc = a[0];
        for v in &a[1..] {
            acc = _mm512_xor_si512(acc, *v);
        }
        acc
    }

    /// # Safety
    ///
    /// Caller must have verified GFNI, AVX-512F and AVX-512BW support.
    // SAFETY: register-only intrinsics — no memory access.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    unsafe fn zmm_mixed_chains(iters: u64) -> __m512i {
        let c = _mm512_set1_epi8(0x3B);
        let m = _mm512_set1_epi64(0x0102040810204080u64 as i64);
        let mut a = [_mm512_set1_epi8(1); 16];
        for _ in 0..iters {
            for q in 0..8 {
                a[2 * q] = _mm512_gf2p8mul_epi8(a[2 * q], c);
                a[2 * q + 1] = _mm512_gf2p8affine_epi64_epi8::<0>(a[2 * q + 1], m);
            }
        }
        let mut acc = a[0];
        for v in &a[1..] {
            acc = _mm512_xor_si512(acc, *v);
        }
        acc
    }

    pub fn report() {
        if !(is_x86_feature_detected!("gfni")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx2"))
        {
            return;
        }
        let iters = 4_000_000u64;
        let t0 = Instant::now();
        // SAFETY: features checked above.
        std::hint::black_box(unsafe { zmm_chains(iters) });
        let z = (iters * 16 * 64) as f64 / t0.elapsed().as_secs_f64() / 1e9;
        let t0 = Instant::now();
        // SAFETY: features checked above.
        std::hint::black_box(unsafe { ymm_chains(iters) });
        let y = (iters * 16 * 32) as f64 / t0.elapsed().as_secs_f64() / 1e9;
        let t0 = Instant::now();
        // SAFETY: features checked above.
        std::hint::black_box(unsafe { zmm_mul_only_chains(iters) });
        let m = (iters * 16 * 64) as f64 / t0.elapsed().as_secs_f64() / 1e9;
        let t0 = Instant::now();
        // SAFETY: features checked above.
        std::hint::black_box(unsafe { zmm_affine_chains(iters) });
        let af = (iters * 16 * 64) as f64 / t0.elapsed().as_secs_f64() / 1e9;
        let t0 = Instant::now();
        // SAFETY: features checked above.
        std::hint::black_box(unsafe { zmm_mixed_chains(iters) });
        let mx = (iters * 16 * 64) as f64 / t0.elapsed().as_secs_f64() / 1e9;
        println!("== register-only GF2P8MULB peak ==");
        println!("  zmm mul+xor: {z:.1} Gmul/s   zmm mul-only: {m:.1} Gmul/s   ymm mul+xor: {y:.1} Gmul/s");
        println!("  zmm affine-only: {af:.1} Gop/s   zmm mul/affine mixed: {mx:.1} Gop/s");
    }
}

fn main() {
    println!("simd level: {}", ag_gf::simd::level_name());
    #[cfg(target_arch = "x86_64")]
    peak::report();
    println!("\n== blocked panel vs gather replay (Gf256, n x n onto n rows) ==");
    for (n, rb) in [
        (32usize, 1024usize),
        (64, 1024),
        (128, 1024),
        (128, 1088),
        (128, 1152),
        (128, 128),
    ] {
        let reps = (256 * 1024 * 1024 / (n * n * rb)).clamp(4, 2000);
        let (block, gather) = gemm_mib_s(n, rb, reps);
        // Multiplies per second: n^2 * rb per pass.
        let gmul = (n * n * rb) as f64 / 1e9;
        println!(
            "  n={n:>3} rb={rb:>5}: blocked {block:>9.1} MiB/s ({:.1} Gmul/s)   gather {gather:>9.1} MiB/s ({:.1} Gmul/s)   ratio {:.2}x",
            gmul / ((n * rb) as f64 / (1024.0 * 1024.0) / block),
            gmul / ((n * rb) as f64 / (1024.0 * 1024.0) / gather),
            block / gather
        );
    }
    println!("\n== swar vs reference single-row axpy (Gf256) ==");
    for len in [
        64usize,
        128,
        256,
        512,
        1024,
        1152,
        2048,
        4096,
        16384,
        1 << 20,
    ] {
        let reps = (64 * 1024 * 1024 / len).clamp(8, 100_000);
        let s = axpy_mib_s(wide::gf256_mul_add_slice, len, reps);
        let r = axpy_mib_s(reference::gf256_mul_add_slice, len, reps);
        println!(
            "  len={len:>8}: swar {s:>8.1} MiB/s   reference {r:>8.1} MiB/s   swar/ref {:.2}",
            s / r
        );
    }
    println!(
        "\n== short rows: simd vs reference (Gf256, simd level {}) ==",
        simd::level_name()
    );
    for len in [8usize, 16, 24, 32, 48, 63] {
        let reps = 4 * 1024 * 1024 / len;
        let s = axpy_mib_s(simd::gf256_mul_add_slice, len, reps);
        let r = axpy_mib_s(reference::gf256_mul_add_slice, len, reps);
        println!(
            "  axpy len={len:>2}: simd {s:>8.1} MiB/s   reference {r:>8.1} MiB/s   simd/ref {:.2}",
            s / r
        );
    }
    let (m, len) = (18usize, 32usize);
    let reps = 4 * 1024 * 1024 / (m * len);
    let s = gather_mib_s(simd::gf256_mul_add_multi, m, len, reps);
    let r = gather_mib_s(reference_multi, m, len, reps);
    println!(
        "  gather {m} x {len} B: simd {s:>8.1} MiB/s   reference {r:>8.1} MiB/s   simd/ref {:.2}",
        s / r
    );
}
