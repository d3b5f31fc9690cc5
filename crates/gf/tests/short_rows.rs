//! Exhaustive short-row pin for the GF(2⁸) SIMD kernels.
//!
//! On GFNI hosts, rows under 64 bytes (the k-symbol coefficient headers)
//! and the sub-block tails of longer rows run through two overlapping
//! register windows per row. A window that starts or ends one byte off,
//! or a store that runs past the row, corrupts bytes that a random-length
//! proptest reaches only by chance. This test walks every row length
//! `0..=64` at every start misalignment `0..8`, for a fixed set of
//! constants and source counts, and checks every `simd::gf256_*` entry
//! point (the blocked panel kernel up to 100-byte rows, so its sub-column
//! tails are reached too) against the reference product-table kernels
//! byte for byte. Guard
//! bytes before and after every row (and every slab) must come back
//! untouched.
//!
//! Deterministic, not a proptest: the whole grid runs on every
//! `cargo test`. CI also runs it with `AG_GF_SIMD` forced to each level.

use ag_gf::{reference, simd};

const CONSTS: [u8; 8] = [0x00, 0x01, 0x02, 0x53, 0xFF, 0x8E, 0x57, 0xC3];
const SOURCE_COUNTS: [usize; 5] = [0, 1, 2, 5, 32];
const GUARD: usize = 40;

/// Deterministic pseudo-random bytes (a 64-bit LCG's high bits).
fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 56) as u8
        })
        .collect()
}

/// Asserts `got` equals `want` inside `row` and equals `orig` outside it.
fn check(got: &[u8], want: &[u8], orig: &[u8], row: std::ops::Range<usize>, what: &str) {
    assert_eq!(&got[row.clone()], &want[row.clone()], "{what}: row bytes");
    assert_eq!(
        &got[..row.start],
        &orig[..row.start],
        "{what}: guard before"
    );
    assert_eq!(&got[row.end..], &orig[row.end..], "{what}: guard after");
}

#[test]
fn single_row_ops_match_reference_at_every_short_length() {
    for n in 0..=64usize {
        for off in 0..8usize {
            let start = GUARD + off;
            let row = start..start + n;
            let len = start + n + GUARD;
            let src = bytes(0x5EED ^ ((n as u64) << 8) ^ off as u64, len);
            let orig = bytes(0xD57 ^ ((n as u64) << 8) ^ off as u64, len);
            for c in CONSTS {
                let what = format!("n={n} off={off} c={c:#04x}");

                let mut want = orig.clone();
                reference::gf256_mul_add_slice(c, &src[row.clone()], &mut want[row.clone()]);
                let mut got = orig.clone();
                simd::gf256_mul_add_slice(c, &src[row.clone()], &mut got[row.clone()]);
                check(&got, &want, &orig, row.clone(), &format!("mul_add {what}"));

                let mut want = orig.clone();
                reference::gf256_mul_slice(c, &mut want[row.clone()]);
                let mut got = orig.clone();
                simd::gf256_mul_slice(c, &mut got[row.clone()]);
                check(&got, &want, &orig, row.clone(), &format!("mul {what}"));
            }
        }
    }
}

#[test]
fn fused_gather_and_scatter_match_reference_at_every_short_length() {
    for n in 0..=64usize {
        for off in 0..8usize {
            let start = GUARD + off;
            for m in SOURCE_COUNTS {
                let seed = ((n as u64) << 16) ^ ((off as u64) << 8) ^ m as u64;
                for (ci, _) in CONSTS.iter().enumerate() {
                    // Rotating through the constants mixes zero, one and
                    // general factors in every position.
                    let factors: Vec<u8> =
                        (0..m).map(|i| CONSTS[(i + ci) % CONSTS.len()]).collect();
                    let what = format!("n={n} off={off} m={m} rot={ci}");

                    // Gather: m source rows (misaligned slab) into one row.
                    let srcs_buf = bytes(seed ^ 0x51C5, start + m * n);
                    let srcs = &srcs_buf[start..];
                    let row = start..start + n;
                    let orig = bytes(seed ^ 0xD575, start + n + GUARD);
                    let mut want = orig.clone();
                    for (i, &f) in factors.iter().enumerate() {
                        let s = &srcs[i * n..(i + 1) * n];
                        reference::gf256_mul_add_slice(f, s, &mut want[row.clone()]);
                    }
                    let mut got = orig.clone();
                    simd::gf256_mul_add_multi(&factors, srcs, &mut got[row.clone()]);
                    check(&got, &want, &orig, row, &format!("multi {what}"));

                    // Scatter: one source row into m destination rows.
                    let src_buf = bytes(seed ^ 0x5C47, start + n);
                    let src = &src_buf[start..];
                    let slab = start..start + m * n;
                    let orig = bytes(seed ^ 0xB0B, start + m * n + GUARD);
                    let mut want = orig.clone();
                    for (i, &f) in factors.iter().enumerate() {
                        let d = &mut want[start + i * n..start + (i + 1) * n];
                        reference::gf256_mul_add_slice(f, src, d);
                    }
                    let mut got = orig.clone();
                    simd::gf256_mul_add_scatter(&factors, src, &mut got[slab.clone()]);
                    check(&got, &want, &orig, slab, &format!("scatter {what}"));
                }
            }
        }
    }
}

#[test]
fn blocked_panel_matches_reference_at_every_short_tail() {
    // The panel kernels finish each row's last `rb % 32` bytes with the
    // short-row gather; lengths past 64 cover tails behind full columns.
    for n in 1..=100usize {
        for off in 0..4usize {
            let start = GUARD + off;
            for r in [1usize, 4, 5, 9] {
                for c in [1usize, 2, 5] {
                    let seed = ((n as u64) << 24) ^ ((off as u64) << 16) ^ ((r as u64) << 8);
                    let seed = seed ^ c as u64;
                    // Every fifth coefficient zero, so whole panel columns
                    // are skipped in some shapes.
                    let coefs: Vec<u8> = bytes(seed ^ 0xC0EF, r * c)
                        .into_iter()
                        .enumerate()
                        .map(|(i, b)| if i % 5 == 3 { 0 } else { b })
                        .collect();
                    let srcs_buf = bytes(seed ^ 0x51C5, start + c * n);
                    let srcs = &srcs_buf[start..];
                    let slab = start..start + r * n;
                    let orig = bytes(seed ^ 0xD575, start + r * n + GUARD);
                    let mut want = orig.clone();
                    for i in 0..r {
                        for j in 0..c {
                            let d = &mut want[start + i * n..start + (i + 1) * n];
                            let s = &srcs[j * n..(j + 1) * n];
                            reference::gf256_mul_add_slice(coefs[i * c + j], s, d);
                        }
                    }
                    let mut got = orig.clone();
                    simd::gf256_mul_add_block(&coefs, srcs, &mut got[slab.clone()], n);
                    let what = format!("block n={n} off={off} r={r} c={c}");
                    check(&got, &want, &orig, slab, &what);
                }
            }
        }
    }
}
