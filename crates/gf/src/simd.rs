//! The hardware rung of the kernel ladder: `PSHUFB` / `GF2P8MULB` slabs.
//!
//! This module applies the same split-nibble decomposition as
//! [`crate::wide`] — `c·b = LO[b & 0xF] ^ HI[b >> 4]` — but through the
//! instruction the SWAR rung emulates: `PSHUFB` performs sixteen (SSSE3) or
//! thirty-two (AVX2) parallel 16-entry table lookups per cycle. On CPUs
//! with GFNI, GF(2⁸) skips the tables entirely: `GF2P8MULB` multiplies
//! bytes directly in GF(2⁸) modulo `x⁸+x⁴+x³+x+1` (0x11B) — exactly the
//! polynomial [`crate::Gf256`] is built on, so the instruction *is* the
//! field.
//!
//! Everything is runtime-detected (`is_x86_feature_detected!`) and compiled
//! only on x86-64; other architectures transparently fall back to the SWAR
//! rung, as does an x86-64 CPU without SSSE3. The detected level can be
//! forced down with `AG_GF_SIMD=ssse3|avx2|gfni|gfni512` for ladder
//! benchmarks. Sub-block tails (&lt; 16/32 bytes) of the `PSHUFB` paths run
//! through scalar nibble-table lookups, which produce bit-identical bytes;
//! `proptest_kernels` pins all rungs to each other across every
//! block-boundary geometry.
//!
//! GF(2⁸) on GFNI hosts has one short-row family for rows of 1–63 bytes
//! (the k-symbol coefficient headers every reception eliminates), shared
//! by both GFNI levels and by the sub-block tails of the long-row kernels.
//! A row of `n` bytes is covered by two overlapping windows of the widest
//! size that fits — 32 + 32, 16 + 16, 8 + 8 or 4 + 4 bytes, at offsets `0`
//! and `n − w` — loaded into registers, multiplied with `GF2P8MULB` and
//! stored back. Both windows are computed from the row's original bytes
//! before either store, so the overlap receives the same value twice and
//! no load or store leaves the row: no masks, no nibble tables. A row of
//! exactly 32 bytes (the k = 32 header) is one ymm; rows of 1–3 bytes use
//! the prebuilt product table.
//!
//! The fused gather kernel [`gf256_mul_add_multi`] accumulates many source
//! rows into one destination per memory pass, keeping a tile of the
//! destination in vector registers across all sources. On GFNI machines it
//! runs 128-byte (AVX2) or 256-byte (AVX-512, the `gfni512` level) tiles;
//! below GFNI it degrades to a loop of single-row axpys, which is already
//! optimal there because the nibble tables must be rebuilt per source
//! coefficient anyway.

#![allow(unsafe_code)]

use crate::slab::xor_slice;

/// Is the SIMD rung available on this CPU at all (x86-64 with SSSE3+)?
#[must_use]
pub fn supported() -> bool {
    detail::supported()
}

/// The detected instruction level, for benchmark reports: `"gfni"`,
/// `"avx2"`, `"ssse3"`, or `"swar-fallback"` where the rung delegates.
#[must_use]
pub fn level_name() -> &'static str {
    detail::level_name()
}

/// Does the detected (or `AG_GF_SIMD`-forced) level include GFNI? Short
/// GF(2⁸) rows take the SIMD rung only when it does (see
/// [`crate::kernel::gf256_effective_kernel`]).
#[must_use]
pub fn has_gfni() -> bool {
    detail::has_gfni()
}

/// `dst[i] = c · dst[i]` over GF(2⁸), SIMD rung.
pub fn gf256_mul_slice(c: u8, dst: &mut [u8]) {
    if c == 1 {
        return;
    }
    if c == 0 {
        dst.fill(0);
        return;
    }
    detail::gf256_mul_slice(c, dst);
}

/// `dst[i] ^= c · src[i]` over GF(2⁸), SIMD rung.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn gf256_mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "slab operands must have equal length");
    if c == 0 {
        return;
    }
    if c == 1 {
        xor_slice(src, dst);
        return;
    }
    detail::gf256_mul_add_slice(c, src, dst);
}

/// Fused gather `dst[j] ^= Σᵢ factors[i] · srcs_row_i[j]` over GF(2⁸),
/// SIMD rung. `srcs` holds one contiguous row of `dst.len()` bytes per
/// factor; zero factors are skipped.
///
/// # Panics
///
/// Panics if `srcs.len() != factors.len() * dst.len()`.
pub fn gf256_mul_add_multi(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
    assert_eq!(
        srcs.len(),
        factors.len() * dst.len(),
        "srcs must hold exactly one row of dst.len() bytes per factor"
    );
    if dst.is_empty() || factors.is_empty() {
        return;
    }
    detail::gf256_mul_add_multi(factors, srcs, dst);
}

/// Blocked panel update `dsts_row_i ^= Σⱼ coefs[i·c + j] · srcs_row_j`
/// over GF(2⁸), SIMD rung — the BLAS-3 kernel behind
/// `SlabField::mul_add_block`. `coefs` holds `r · c` symbols row-major;
/// `srcs` holds `c` rows and `dsts` holds `r` rows of `row_bytes` each.
///
/// On GFNI hardware a register panel of four destination rows accumulates
/// in vector registers while the source rows stream through once, so each
/// loaded source vector is reused across all four accumulator rows; the
/// column-tile loop keeps one narrow column of every source L1-resident
/// across the whole destination panel. Below GFNI it degrades to one
/// fused gather per destination row.
///
/// # Panics
///
/// Panics if `srcs`/`dsts` are not whole rows or `coefs` is not exactly
/// `r · c` symbols (`row_bytes == 0` requires all slabs empty).
pub fn gf256_mul_add_block(coefs: &[u8], srcs: &[u8], dsts: &mut [u8], row_bytes: usize) {
    if row_bytes == 0 {
        assert!(
            coefs.is_empty() && srcs.is_empty() && dsts.is_empty(),
            "zero row_bytes requires empty panel slabs"
        );
        return;
    }
    assert!(
        srcs.len().is_multiple_of(row_bytes) && dsts.len().is_multiple_of(row_bytes),
        "panel slabs must be whole rows of {row_bytes} bytes"
    );
    let c = srcs.len() / row_bytes;
    let r = dsts.len() / row_bytes;
    assert_eq!(
        coefs.len(),
        r * c,
        "coefficient panel must be exactly r x c packed symbols"
    );
    if r == 0 || c == 0 {
        return;
    }
    detail::gf256_mul_add_block(coefs, srcs, dsts, row_bytes);
}

/// Fused scatter `dsts_row_i ^= factors[i] · src` over GF(2⁸), SIMD rung.
/// `dsts` holds one contiguous row of `src.len()` bytes per factor; zero
/// factors are skipped. Hoists the kernel dispatch and constant splat out
/// of the per-row loop — back-substitution applies one pivot row to every
/// stored coefficient row, so on short rows the per-row dispatch of a
/// plain axpy loop dominates the actual field work.
///
/// # Panics
///
/// Panics if `dsts.len() != factors.len() * src.len()`.
pub fn gf256_mul_add_scatter(factors: &[u8], src: &[u8], dsts: &mut [u8]) {
    assert_eq!(
        dsts.len(),
        factors.len() * src.len(),
        "dsts must hold exactly one row of src.len() bytes per factor"
    );
    if src.is_empty() || factors.is_empty() {
        return;
    }
    detail::gf256_mul_add_scatter(factors, src, dsts);
}

/// `dst[i] = c · dst[i]` over GF(2⁴), SIMD rung.
pub fn gf16_mul_slice(c: u8, dst: &mut [u8]) {
    if c == 1 {
        return;
    }
    if c == 0 {
        dst.fill(0);
        return;
    }
    detail::gf16_mul_slice(c, dst);
}

/// `dst[i] ^= c · src[i]` over GF(2⁴), SIMD rung.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn gf16_mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "slab operands must have equal length");
    if c == 0 {
        return;
    }
    if c == 1 {
        xor_slice(src, dst);
        return;
    }
    detail::gf16_mul_add_slice(c, src, dst);
}

#[cfg(target_arch = "x86_64")]
mod detail {
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    use crate::wide::{self, gf16_nibble_tables, gf256_nibble_tables, NibbleTables};

    /// Detected (or `AG_GF_SIMD`-forced) instruction level, best first.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub(super) enum Level {
        /// No SSSE3: delegate every call to the SWAR rung.
        None,
        Ssse3,
        Avx2,
        /// GFNI + AVX2: `GF2P8MULB` for GF(2⁸); GF(2⁴) uses the AVX2 path.
        Gfni,
        /// GFNI + AVX-512F/BW: 512-bit `GF2P8MULB` for the fused gather
        /// kernel. Single-row axpys stay on the 256-bit path, where they
        /// are already memory-bound and immune to zmm frequency effects.
        Gfni512,
    }

    fn detect() -> Level {
        let best = if is_x86_feature_detected!("gfni")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx2")
        {
            Level::Gfni512
        } else if is_x86_feature_detected!("gfni") && is_x86_feature_detected!("avx2") {
            Level::Gfni
        } else if is_x86_feature_detected!("avx2") {
            Level::Avx2
        } else if is_x86_feature_detected!("ssse3") {
            Level::Ssse3
        } else {
            Level::None
        };
        let forced =
            // ag-lint: allow(wall-clock) — AG_GF_SIMD forces a *lower*
            // SIMD level among rungs the differential suite pins as
            // bit-identical; read once per process via the level() lock.
            std::env::var("AG_GF_SIMD")
                .ok()
                .and_then(|v| match v.to_ascii_lowercase().as_str() {
                    "ssse3" => Some(Level::Ssse3),
                    "avx2" => Some(Level::Avx2),
                    "gfni" => Some(Level::Gfni),
                    "gfni512" => Some(Level::Gfni512),
                    _ => None,
                });
        match forced {
            // Only allow forcing *down*: forcing an unsupported level up
            // would execute illegal instructions.
            Some(f) if f <= best => f,
            _ => best,
        }
    }

    pub(super) fn level() -> Level {
        static LEVEL: OnceLock<Level> = OnceLock::new();
        *LEVEL.get_or_init(detect)
    }

    pub(super) fn supported() -> bool {
        level() != Level::None
    }

    pub(super) fn has_gfni() -> bool {
        level() >= Level::Gfni
    }

    pub(super) fn level_name() -> &'static str {
        match level() {
            Level::Gfni512 => "gfni512",
            Level::Gfni => "gfni",
            Level::Avx2 => "avx2",
            Level::Ssse3 => "ssse3",
            Level::None => "swar-fallback",
        }
    }

    pub(super) fn gf256_mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        match level() {
            // SAFETY: the matched level was runtime-detected (detect()
            // never reports a level the CPU lacks), so gfni+avx2 are legal.
            Level::Gfni512 | Level::Gfni => unsafe { gf256_mul_add_gfni(c, src, dst) },
            // SAFETY: this arm runs only when detect() observed avx2.
            Level::Avx2 => unsafe { mul_add_avx2::<true>(&gf256_nibble_tables(c), src, dst) },
            // SAFETY: this arm runs only when detect() observed ssse3.
            Level::Ssse3 => unsafe { mul_add_ssse3::<true>(&gf256_nibble_tables(c), src, dst) },
            Level::None => wide::gf256_mul_add_slice(c, src, dst),
        }
    }

    pub(super) fn gf256_mul_slice(c: u8, dst: &mut [u8]) {
        match level() {
            // SAFETY: level was runtime-detected, so gfni+avx2 are legal.
            Level::Gfni512 | Level::Gfni => unsafe { gf256_mul_gfni(c, dst) },
            // SAFETY: this arm runs only when detect() observed avx2.
            Level::Avx2 => unsafe { mul_avx2::<true>(&gf256_nibble_tables(c), dst) },
            // SAFETY: this arm runs only when detect() observed ssse3.
            Level::Ssse3 => unsafe { mul_ssse3::<true>(&gf256_nibble_tables(c), dst) },
            Level::None => wide::gf256_mul_slice(c, dst),
        }
    }

    pub(super) fn gf256_mul_add_multi(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
        match level() {
            // SAFETY: level was runtime-detected; Gfni512 means
            // avx512f+avx512bw+gfni were all observed.
            Level::Gfni512 => unsafe { gf256_mul_add_multi_gfni512(factors, srcs, dst) },
            // SAFETY: this arm runs only when detect() observed gfni+avx2.
            Level::Gfni => unsafe { gf256_mul_add_multi_gfni(factors, srcs, dst) },
            // Below GFNI a fused pass buys nothing: the per-coefficient
            // nibble tables must be rebuilt per source row either way.
            _ => {
                for (&f, row) in factors.iter().zip(srcs.chunks_exact(dst.len())) {
                    if f != 0 {
                        super::gf256_mul_add_slice(f, row, dst);
                    }
                }
            }
        }
    }

    pub(super) fn gf256_mul_add_block(coefs: &[u8], srcs: &[u8], dsts: &mut [u8], rb: usize) {
        match level() {
            // SAFETY: level was runtime-detected; Gfni512 means
            // avx512f+avx512bw+gfni were all observed.
            Level::Gfni512 => unsafe { gf256_mul_add_block_gfni512(coefs, srcs, dsts, rb) },
            // SAFETY: this arm runs only when detect() observed gfni+avx2.
            Level::Gfni => unsafe { gf256_mul_add_block_gfni(coefs, srcs, dsts, rb) },
            // Below GFNI the panel cannot beat one fused gather per
            // destination row: nibble tables are rebuilt per coefficient
            // either way, so there is nothing for a register panel to
            // amortize.
            _ => {
                let c = srcs.len() / rb;
                for (panel, dst) in coefs.chunks_exact(c).zip(dsts.chunks_exact_mut(rb)) {
                    super::gf256_mul_add_multi(panel, srcs, dst);
                }
            }
        }
    }

    pub(super) fn gf256_mul_add_scatter(factors: &[u8], src: &[u8], dsts: &mut [u8]) {
        match level() {
            // SAFETY: level was runtime-detected; Gfni512 means
            // avx512f+avx512bw+gfni were all observed.
            Level::Gfni512 => unsafe { gf256_mul_add_scatter_gfni512(factors, src, dsts) },
            // SAFETY: this arm runs only when detect() observed gfni+avx2.
            Level::Gfni => unsafe { gf256_mul_add_scatter_gfni(factors, src, dsts) },
            // Below GFNI each row needs its per-coefficient nibble tables
            // built anyway; the plain axpy loop is already optimal.
            _ => {
                for (&f, row) in factors.iter().zip(dsts.chunks_exact_mut(src.len())) {
                    if f != 0 {
                        super::gf256_mul_add_slice(f, src, row);
                    }
                }
            }
        }
    }

    pub(super) fn gf16_mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        match level() {
            // SAFETY: level was runtime-detected; Gfni implies AVX2.
            Level::Gfni512 | Level::Gfni | Level::Avx2 => unsafe {
                mul_add_avx2::<false>(&gf16_nibble_tables(c), src, dst)
            },
            // SAFETY: this arm runs only when detect() observed ssse3.
            Level::Ssse3 => unsafe { mul_add_ssse3::<false>(&gf16_nibble_tables(c), src, dst) },
            Level::None => wide::gf16_mul_add_slice(c, src, dst),
        }
    }

    pub(super) fn gf16_mul_slice(c: u8, dst: &mut [u8]) {
        match level() {
            // SAFETY: level was runtime-detected; Gfni implies AVX2.
            Level::Gfni512 | Level::Gfni | Level::Avx2 => unsafe {
                mul_avx2::<false>(&gf16_nibble_tables(c), dst)
            },
            // SAFETY: this arm runs only when detect() observed ssse3.
            Level::Ssse3 => unsafe { mul_ssse3::<false>(&gf16_nibble_tables(c), dst) },
            Level::None => wide::gf16_mul_slice(c, dst),
        }
    }

    /// Scalar nibble-table tail shared by the `PSHUFB` paths below.
    fn tail_mul_add(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= t.lo[(s & 0xF) as usize] ^ t.hi[(s >> 4) as usize];
        }
    }

    fn tail_mul(t: &NibbleTables, dst: &mut [u8]) {
        for d in dst.iter_mut() {
            *d = t.lo[(*d & 0xF) as usize] ^ t.hi[(*d >> 4) as usize];
        }
    }

    /// `HI` (GF(2⁸)) or low-nibble-only (GF(2⁴), canonical packing) product
    /// of one 256-bit block of source bytes.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    // SAFETY: register-only intrinsics — no memory access; the avx2
    // requirement is discharged by the caller contract above.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn product_block_avx2<const SPLIT: bool>(
        lo: __m256i,
        hi: __m256i,
        mask: __m256i,
        s: __m256i,
    ) -> __m256i {
        let p_lo = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
        if SPLIT {
            let hi_idx = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
            _mm256_xor_si256(p_lo, _mm256_shuffle_epi8(hi, hi_idx))
        } else {
            p_lo
        }
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    // SAFETY: unaligned loads/stores only. Table pointers cover the 16-byte
    // arrays in `t`; `sp`/`dp` offsets stay below `blocks * 32 <= src.len()`
    // and the public wrapper asserts `src.len() == dst.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_add_avx2<const SPLIT: bool>(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let blocks = src.len() / 32;
        for b in 0..blocks {
            let sp = src.as_ptr().add(b * 32).cast();
            let dp = dst.as_mut_ptr().add(b * 32).cast();
            let p = product_block_avx2::<SPLIT>(lo, hi, mask, _mm256_loadu_si256(sp));
            _mm256_storeu_si256(dp, _mm256_xor_si256(_mm256_loadu_si256(dp), p));
        }
        tail_mul_add(t, &src[blocks * 32..], &mut dst[blocks * 32..]);
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    // SAFETY: unaligned loads/stores only; `dp` offsets stay below
    // `blocks * 32 <= dst.len()`, in-place within the one slice.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_avx2<const SPLIT: bool>(t: &NibbleTables, dst: &mut [u8]) {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let blocks = dst.len() / 32;
        for b in 0..blocks {
            let dp = dst.as_mut_ptr().add(b * 32).cast();
            let p = product_block_avx2::<SPLIT>(lo, hi, mask, _mm256_loadu_si256(dp));
            _mm256_storeu_si256(dp, p);
        }
        tail_mul(t, &mut dst[blocks * 32..]);
    }

    /// # Safety
    ///
    /// Caller must have verified SSSE3 support.
    // SAFETY: unaligned loads/stores only; `sp`/`dp` offsets stay below
    // `blocks * 16 <= src.len()` and the public wrapper asserts
    // `src.len() == dst.len()`.
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_add_ssse3<const SPLIT: bool>(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
        let lo = _mm_loadu_si128(t.lo.as_ptr().cast());
        let hi = _mm_loadu_si128(t.hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let blocks = src.len() / 16;
        for b in 0..blocks {
            let sp = src.as_ptr().add(b * 16).cast();
            let dp = dst.as_mut_ptr().add(b * 16).cast();
            let s = _mm_loadu_si128(sp);
            let mut p = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
            if SPLIT {
                let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
                p = _mm_xor_si128(p, _mm_shuffle_epi8(hi, hi_idx));
            }
            _mm_storeu_si128(dp, _mm_xor_si128(_mm_loadu_si128(dp), p));
        }
        tail_mul_add(t, &src[blocks * 16..], &mut dst[blocks * 16..]);
    }

    /// # Safety
    ///
    /// Caller must have verified SSSE3 support.
    // SAFETY: unaligned loads/stores only; `dp` offsets stay below
    // `blocks * 16 <= dst.len()`, in-place within the one slice.
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_ssse3<const SPLIT: bool>(t: &NibbleTables, dst: &mut [u8]) {
        let lo = _mm_loadu_si128(t.lo.as_ptr().cast());
        let hi = _mm_loadu_si128(t.hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let blocks = dst.len() / 16;
        for b in 0..blocks {
            let dp: *mut __m128i = dst.as_mut_ptr().add(b * 16).cast();
            let s = _mm_loadu_si128(dp.cast_const());
            let mut p = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
            if SPLIT {
                let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
                p = _mm_xor_si128(p, _mm_shuffle_epi8(hi, hi_idx));
            }
            _mm_storeu_si128(dp, p);
        }
        tail_mul(t, &mut dst[blocks * 16..]);
    }

    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support.
    // SAFETY: unaligned loads/stores only; `sp`/`dp` offsets stay below
    // `blocks * 32 <= src.len()` and every caller passes equal-length
    // src/dst (public wrapper asserts it; internal tails re-slice both).
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_mul_add_gfni(c: u8, src: &[u8], dst: &mut [u8]) {
        let cv = _mm256_set1_epi8(c as i8);
        let blocks = src.len() / 32;
        for b in 0..blocks {
            let sp = src.as_ptr().add(b * 32).cast();
            let dp = dst.as_mut_ptr().add(b * 32).cast();
            let p = _mm256_gf2p8mul_epi8(_mm256_loadu_si256(sp), cv);
            _mm256_storeu_si256(dp, _mm256_xor_si256(_mm256_loadu_si256(dp), p));
        }
        gf256_short_mul_add(c, &src[blocks * 32..], &mut dst[blocks * 32..]);
    }

    /// Fused gather over 128-byte destination tiles: the tile lives in four
    /// ymm accumulators across *all* source rows, so `dst` is read and
    /// written once per pass instead of once per source.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support.
    // SAFETY: unaligned loads/stores only. `dp` tile offsets stay below
    // `tiles * 128 <= dst.len()`; `sp` row offsets stay inside `srcs`
    // because the public wrapper asserts `srcs.len() == factors.len() *
    // dst.len()` and `i < factors.len()`, `base + 127 < rb`.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_mul_add_multi_gfni(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
        const TILE: usize = 128;
        let rb = dst.len();
        let tiles = rb / TILE;
        for t in 0..tiles {
            let base = t * TILE;
            let dp = dst.as_mut_ptr().add(base);
            let mut acc0 = _mm256_loadu_si256(dp.cast());
            let mut acc1 = _mm256_loadu_si256(dp.add(32).cast());
            let mut acc2 = _mm256_loadu_si256(dp.add(64).cast());
            let mut acc3 = _mm256_loadu_si256(dp.add(96).cast());
            for (i, &f) in factors.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                let cv = _mm256_set1_epi8(f as i8);
                let sp = srcs.as_ptr().add(i * rb + base);
                acc0 = _mm256_xor_si256(
                    acc0,
                    _mm256_gf2p8mul_epi8(_mm256_loadu_si256(sp.cast()), cv),
                );
                acc1 = _mm256_xor_si256(
                    acc1,
                    _mm256_gf2p8mul_epi8(_mm256_loadu_si256(sp.add(32).cast()), cv),
                );
                acc2 = _mm256_xor_si256(
                    acc2,
                    _mm256_gf2p8mul_epi8(_mm256_loadu_si256(sp.add(64).cast()), cv),
                );
                acc3 = _mm256_xor_si256(
                    acc3,
                    _mm256_gf2p8mul_epi8(_mm256_loadu_si256(sp.add(96).cast()), cv),
                );
            }
            _mm256_storeu_si256(dp.cast(), acc0);
            _mm256_storeu_si256(dp.add(32).cast(), acc1);
            _mm256_storeu_si256(dp.add(64).cast(), acc2);
            _mm256_storeu_si256(dp.add(96).cast(), acc3);
        }
        gf256_multi_tail_gfni(factors, srcs, dst, tiles * TILE);
    }

    /// Fused sub-tile tail shared by both gather kernels: everything past
    /// `base` in 32-byte ymm chunks kept in an accumulator across all
    /// sources, then the last < 32 bytes through the short-row windows,
    /// also fused across sources. Without it, the sub-tile remainder would
    /// fall back to one axpy pass per source — the exact
    /// read-`dst`-per-source pattern the fused kernel exists to avoid.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support, and that `srcs`
    /// holds `factors.len()` rows of `dst.len()` bytes.
    // SAFETY: unaligned loads/stores only; the ymm loop guards
    // `base + 32 <= rb` before touching `dst[base..]` and the caller
    // contract above bounds each `sp` row pointer inside `srcs`.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_multi_tail_gfni(factors: &[u8], srcs: &[u8], dst: &mut [u8], base: usize) {
        let rb = dst.len();
        let mut base = base;
        while base + 32 <= rb {
            let dp = dst.as_mut_ptr().add(base);
            let mut acc = _mm256_loadu_si256(dp.cast());
            for (i, &f) in factors.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                let cv = _mm256_set1_epi8(f as i8);
                let sp = srcs.as_ptr().add(i * rb + base);
                acc =
                    _mm256_xor_si256(acc, _mm256_gf2p8mul_epi8(_mm256_loadu_si256(sp.cast()), cv));
            }
            _mm256_storeu_si256(dp.cast(), acc);
            base += 32;
        }
        gf256_short_multi(factors, srcs, rb, base, &mut dst[base..]);
    }

    /// As [`gf256_mul_add_multi_gfni`] with 256-byte tiles in four zmm
    /// accumulators.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI, AVX-512F, AVX-512BW and AVX2 support.
    // SAFETY: unaligned loads/stores only. Tile and sub-tile loops guard
    // `base + {256,128,64} <= rb` before touching `dst[base..]`; `sp` row
    // offsets stay inside `srcs` (wrapper asserts `srcs.len() ==
    // factors.len() * dst.len()`); `get_unchecked(i)` has `i < n`.
    #[target_feature(enable = "gfni,avx512f,avx512bw,avx2")]
    unsafe fn gf256_mul_add_multi_gfni512(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
        const TILE: usize = 256;
        let rb = dst.len();
        let tiles = rb / TILE;
        for t in 0..tiles {
            let base = t * TILE;
            let dp = dst.as_mut_ptr().add(base);
            let mut acc0 = _mm512_loadu_si512(dp.cast());
            let mut acc1 = _mm512_loadu_si512(dp.add(64).cast());
            let mut acc2 = _mm512_loadu_si512(dp.add(128).cast());
            let mut acc3 = _mm512_loadu_si512(dp.add(192).cast());
            for (i, &f) in factors.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                let cv = _mm512_set1_epi8(f as i8);
                let sp = srcs.as_ptr().add(i * rb + base);
                acc0 = _mm512_xor_si512(
                    acc0,
                    _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.cast()), cv),
                );
                acc1 = _mm512_xor_si512(
                    acc1,
                    _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.add(64).cast()), cv),
                );
                acc2 = _mm512_xor_si512(
                    acc2,
                    _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.add(128).cast()), cv),
                );
                acc3 = _mm512_xor_si512(
                    acc3,
                    _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.add(192).cast()), cv),
                );
            }
            _mm512_storeu_si512(dp.cast(), acc0);
            _mm512_storeu_si512(dp.add(64).cast(), acc1);
            _mm512_storeu_si512(dp.add(128).cast(), acc2);
            _mm512_storeu_si512(dp.add(192).cast(), acc3);
        }
        // Fused sub-tile tails. Without these, rows shorter than a full
        // tile would degrade to one axpy pass per source. The 128-byte
        // block (the whole coefficient row of a k = 128 basis) splits the
        // sources between two accumulator pairs so the xor chain is half
        // as deep as a single-accumulator loop.
        let mut base = tiles * TILE;
        while base + 128 <= rb {
            let dp = dst.as_mut_ptr().add(base);
            let mut a0 = _mm512_loadu_si512(dp.cast());
            let mut a1 = _mm512_setzero_si512();
            let mut b0 = _mm512_loadu_si512(dp.add(64).cast());
            let mut b1 = _mm512_setzero_si512();
            let n = factors.len();
            let mut i = 0;
            while i < n {
                let f = *factors.get_unchecked(i);
                if f != 0 {
                    let cv = _mm512_set1_epi8(f as i8);
                    let sp = srcs.as_ptr().add(i * rb + base);
                    a0 = _mm512_xor_si512(
                        a0,
                        _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.cast()), cv),
                    );
                    b0 = _mm512_xor_si512(
                        b0,
                        _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.add(64).cast()), cv),
                    );
                }
                i += 1;
                if i < n {
                    let f = *factors.get_unchecked(i);
                    if f != 0 {
                        let cv = _mm512_set1_epi8(f as i8);
                        let sp = srcs.as_ptr().add(i * rb + base);
                        a1 = _mm512_xor_si512(
                            a1,
                            _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.cast()), cv),
                        );
                        b1 = _mm512_xor_si512(
                            b1,
                            _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.add(64).cast()), cv),
                        );
                    }
                    i += 1;
                }
            }
            _mm512_storeu_si512(dp.cast(), _mm512_xor_si512(a0, a1));
            _mm512_storeu_si512(dp.add(64).cast(), _mm512_xor_si512(b0, b1));
            base += 128;
        }
        while base + 64 <= rb {
            let dp = dst.as_mut_ptr().add(base);
            let mut acc = _mm512_loadu_si512(dp.cast());
            for (i, &f) in factors.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                let cv = _mm512_set1_epi8(f as i8);
                let sp = srcs.as_ptr().add(i * rb + base);
                acc =
                    _mm512_xor_si512(acc, _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.cast()), cv));
            }
            _mm512_storeu_si512(dp.cast(), acc);
            base += 64;
        }
        gf256_multi_tail_gfni(factors, srcs, dst, base);
    }

    /// Register-blocked BLAS-3 panel: four destination rows × 128 payload
    /// bytes live in eight zmm accumulators while the `c` source rows
    /// stream through, so every loaded source vector feeds four
    /// multiply-accumulates before it leaves registers. The outer loop
    /// walks 128-byte column tiles — one column of all `c` sources
    /// (≤ 16 KiB at c = 128) stays L1-resident while every destination
    /// panel consumes it. Ragged columns finish with a 64-byte pass and an
    /// AVX-512BW byte-masked pass, so no scalar cleanup exists; the `r % 4`
    /// leftover destination rows fall back to one fused gather each.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI, AVX-512F, AVX-512BW and AVX2
    /// support, and that `coefs` is `r·c` bytes, `srcs` is `c` rows and
    /// `dsts` is `r` rows of `rb` bytes each (the public wrapper asserts
    /// this).
    // SAFETY: unaligned and byte-masked loads/stores only. The tile loops
    // guard `base + {128,64} <= rb` before touching column `base`, and the
    // masked pass clamps every lane at or past `rb - base` via `k0`, so no
    // access crosses a row end. Panel row indices stay `< panels * 4 <= r`
    // and source indices `j < c`, keeping `dp`/`sp`/`cp` offsets inside
    // their slabs per the caller contract above.
    #[target_feature(enable = "gfni,avx512f,avx512bw,avx2")]
    unsafe fn gf256_mul_add_block_gfni512(coefs: &[u8], srcs: &[u8], dsts: &mut [u8], rb: usize) {
        let c = srcs.len() / rb;
        let r = dsts.len() / rb;
        let panels = r / 4;
        let mut base = 0usize;
        while base + 128 <= rb {
            for p in 0..panels {
                let cp = coefs.as_ptr().add(p * 4 * c);
                let dp = dsts.as_mut_ptr().add(p * 4 * rb + base);
                let mut a0 = _mm512_loadu_si512(dp.cast());
                let mut a1 = _mm512_loadu_si512(dp.add(64).cast());
                let mut b0 = _mm512_loadu_si512(dp.add(rb).cast());
                let mut b1 = _mm512_loadu_si512(dp.add(rb + 64).cast());
                let mut c0 = _mm512_loadu_si512(dp.add(2 * rb).cast());
                let mut c1 = _mm512_loadu_si512(dp.add(2 * rb + 64).cast());
                let mut d0 = _mm512_loadu_si512(dp.add(3 * rb).cast());
                let mut d1 = _mm512_loadu_si512(dp.add(3 * rb + 64).cast());
                // Sources go two at a time so each accumulator update is a
                // single VPTERNLOGD (acc ^ ma ^ mb, imm 0x96) instead of two
                // VPXORDs: GF2P8MULB, VPXORD and VPBROADCASTB all compete
                // for the same two vector ports, so halving the xor count
                // lifts the port-bound ceiling of the whole panel.
                let mut j = 0usize;
                while j + 2 <= c {
                    let f0a = *cp.add(j);
                    let f1a = *cp.add(c + j);
                    let f2a = *cp.add(2 * c + j);
                    let f3a = *cp.add(3 * c + j);
                    let f0b = *cp.add(j + 1);
                    let f1b = *cp.add(c + j + 1);
                    let f2b = *cp.add(2 * c + j + 1);
                    let f3b = *cp.add(3 * c + j + 1);
                    if f0a | f1a | f2a | f3a | f0b | f1b | f2b | f3b == 0 {
                        j += 2;
                        continue;
                    }
                    let spa = srcs.as_ptr().add(j * rb + base);
                    let spb = srcs.as_ptr().add((j + 1) * rb + base);
                    let sa0 = _mm512_loadu_si512(spa.cast());
                    let sa1 = _mm512_loadu_si512(spa.add(64).cast());
                    let sb0 = _mm512_loadu_si512(spb.cast());
                    let sb1 = _mm512_loadu_si512(spb.add(64).cast());
                    let ca = _mm512_set1_epi8(f0a as i8);
                    let cb = _mm512_set1_epi8(f0b as i8);
                    a0 = _mm512_ternarylogic_epi64(
                        a0,
                        _mm512_gf2p8mul_epi8(sa0, ca),
                        _mm512_gf2p8mul_epi8(sb0, cb),
                        0x96,
                    );
                    a1 = _mm512_ternarylogic_epi64(
                        a1,
                        _mm512_gf2p8mul_epi8(sa1, ca),
                        _mm512_gf2p8mul_epi8(sb1, cb),
                        0x96,
                    );
                    let ca = _mm512_set1_epi8(f1a as i8);
                    let cb = _mm512_set1_epi8(f1b as i8);
                    b0 = _mm512_ternarylogic_epi64(
                        b0,
                        _mm512_gf2p8mul_epi8(sa0, ca),
                        _mm512_gf2p8mul_epi8(sb0, cb),
                        0x96,
                    );
                    b1 = _mm512_ternarylogic_epi64(
                        b1,
                        _mm512_gf2p8mul_epi8(sa1, ca),
                        _mm512_gf2p8mul_epi8(sb1, cb),
                        0x96,
                    );
                    let ca = _mm512_set1_epi8(f2a as i8);
                    let cb = _mm512_set1_epi8(f2b as i8);
                    c0 = _mm512_ternarylogic_epi64(
                        c0,
                        _mm512_gf2p8mul_epi8(sa0, ca),
                        _mm512_gf2p8mul_epi8(sb0, cb),
                        0x96,
                    );
                    c1 = _mm512_ternarylogic_epi64(
                        c1,
                        _mm512_gf2p8mul_epi8(sa1, ca),
                        _mm512_gf2p8mul_epi8(sb1, cb),
                        0x96,
                    );
                    let ca = _mm512_set1_epi8(f3a as i8);
                    let cb = _mm512_set1_epi8(f3b as i8);
                    d0 = _mm512_ternarylogic_epi64(
                        d0,
                        _mm512_gf2p8mul_epi8(sa0, ca),
                        _mm512_gf2p8mul_epi8(sb0, cb),
                        0x96,
                    );
                    d1 = _mm512_ternarylogic_epi64(
                        d1,
                        _mm512_gf2p8mul_epi8(sa1, ca),
                        _mm512_gf2p8mul_epi8(sb1, cb),
                        0x96,
                    );
                    j += 2;
                }
                if j < c {
                    let f0 = *cp.add(j);
                    let f1 = *cp.add(c + j);
                    let f2 = *cp.add(2 * c + j);
                    let f3 = *cp.add(3 * c + j);
                    if f0 | f1 | f2 | f3 != 0 {
                        let sp = srcs.as_ptr().add(j * rb + base);
                        let s0 = _mm512_loadu_si512(sp.cast());
                        let s1 = _mm512_loadu_si512(sp.add(64).cast());
                        let cv = _mm512_set1_epi8(f0 as i8);
                        a0 = _mm512_xor_si512(a0, _mm512_gf2p8mul_epi8(s0, cv));
                        a1 = _mm512_xor_si512(a1, _mm512_gf2p8mul_epi8(s1, cv));
                        let cv = _mm512_set1_epi8(f1 as i8);
                        b0 = _mm512_xor_si512(b0, _mm512_gf2p8mul_epi8(s0, cv));
                        b1 = _mm512_xor_si512(b1, _mm512_gf2p8mul_epi8(s1, cv));
                        let cv = _mm512_set1_epi8(f2 as i8);
                        c0 = _mm512_xor_si512(c0, _mm512_gf2p8mul_epi8(s0, cv));
                        c1 = _mm512_xor_si512(c1, _mm512_gf2p8mul_epi8(s1, cv));
                        let cv = _mm512_set1_epi8(f3 as i8);
                        d0 = _mm512_xor_si512(d0, _mm512_gf2p8mul_epi8(s0, cv));
                        d1 = _mm512_xor_si512(d1, _mm512_gf2p8mul_epi8(s1, cv));
                    }
                }
                _mm512_storeu_si512(dp.cast(), a0);
                _mm512_storeu_si512(dp.add(64).cast(), a1);
                _mm512_storeu_si512(dp.add(rb).cast(), b0);
                _mm512_storeu_si512(dp.add(rb + 64).cast(), b1);
                _mm512_storeu_si512(dp.add(2 * rb).cast(), c0);
                _mm512_storeu_si512(dp.add(2 * rb + 64).cast(), c1);
                _mm512_storeu_si512(dp.add(3 * rb).cast(), d0);
                _mm512_storeu_si512(dp.add(3 * rb + 64).cast(), d1);
            }
            base += 128;
        }
        if base + 64 <= rb {
            for p in 0..panels {
                let cp = coefs.as_ptr().add(p * 4 * c);
                let dp = dsts.as_mut_ptr().add(p * 4 * rb + base);
                let mut a0 = _mm512_loadu_si512(dp.cast());
                let mut b0 = _mm512_loadu_si512(dp.add(rb).cast());
                let mut c0 = _mm512_loadu_si512(dp.add(2 * rb).cast());
                let mut d0 = _mm512_loadu_si512(dp.add(3 * rb).cast());
                for j in 0..c {
                    let f0 = *cp.add(j);
                    let f1 = *cp.add(c + j);
                    let f2 = *cp.add(2 * c + j);
                    let f3 = *cp.add(3 * c + j);
                    if f0 | f1 | f2 | f3 == 0 {
                        continue;
                    }
                    let s0 = _mm512_loadu_si512(srcs.as_ptr().add(j * rb + base).cast());
                    let cv = _mm512_set1_epi8(f0 as i8);
                    a0 = _mm512_xor_si512(a0, _mm512_gf2p8mul_epi8(s0, cv));
                    let cv = _mm512_set1_epi8(f1 as i8);
                    b0 = _mm512_xor_si512(b0, _mm512_gf2p8mul_epi8(s0, cv));
                    let cv = _mm512_set1_epi8(f2 as i8);
                    c0 = _mm512_xor_si512(c0, _mm512_gf2p8mul_epi8(s0, cv));
                    let cv = _mm512_set1_epi8(f3 as i8);
                    d0 = _mm512_xor_si512(d0, _mm512_gf2p8mul_epi8(s0, cv));
                }
                _mm512_storeu_si512(dp.cast(), a0);
                _mm512_storeu_si512(dp.add(rb).cast(), b0);
                _mm512_storeu_si512(dp.add(2 * rb).cast(), c0);
                _mm512_storeu_si512(dp.add(3 * rb).cast(), d0);
            }
            base += 64;
        }
        if base < rb {
            let rem = rb - base; // 1..=63
            let k0: __mmask64 = (1u64 << rem) - 1;
            for p in 0..panels {
                let cp = coefs.as_ptr().add(p * 4 * c);
                let dp = dsts.as_mut_ptr().add(p * 4 * rb + base);
                let mut a0 = _mm512_maskz_loadu_epi8(k0, dp.cast());
                let mut b0 = _mm512_maskz_loadu_epi8(k0, dp.add(rb).cast());
                let mut c0 = _mm512_maskz_loadu_epi8(k0, dp.add(2 * rb).cast());
                let mut d0 = _mm512_maskz_loadu_epi8(k0, dp.add(3 * rb).cast());
                for j in 0..c {
                    let f0 = *cp.add(j);
                    let f1 = *cp.add(c + j);
                    let f2 = *cp.add(2 * c + j);
                    let f3 = *cp.add(3 * c + j);
                    if f0 | f1 | f2 | f3 == 0 {
                        continue;
                    }
                    let s0 = _mm512_maskz_loadu_epi8(k0, srcs.as_ptr().add(j * rb + base).cast());
                    let cv = _mm512_set1_epi8(f0 as i8);
                    a0 = _mm512_xor_si512(a0, _mm512_gf2p8mul_epi8(s0, cv));
                    let cv = _mm512_set1_epi8(f1 as i8);
                    b0 = _mm512_xor_si512(b0, _mm512_gf2p8mul_epi8(s0, cv));
                    let cv = _mm512_set1_epi8(f2 as i8);
                    c0 = _mm512_xor_si512(c0, _mm512_gf2p8mul_epi8(s0, cv));
                    let cv = _mm512_set1_epi8(f3 as i8);
                    d0 = _mm512_xor_si512(d0, _mm512_gf2p8mul_epi8(s0, cv));
                }
                _mm512_mask_storeu_epi8(dp.cast(), k0, a0);
                _mm512_mask_storeu_epi8(dp.add(rb).cast(), k0, b0);
                _mm512_mask_storeu_epi8(dp.add(2 * rb).cast(), k0, c0);
                _mm512_mask_storeu_epi8(dp.add(3 * rb).cast(), k0, d0);
            }
        }
        for i in panels * 4..r {
            gf256_mul_add_multi_gfni512(
                &coefs[i * c..(i + 1) * c],
                srcs,
                &mut dsts[i * rb..(i + 1) * rb],
            );
        }
    }

    /// As [`gf256_mul_add_block_gfni512`] with four-row × 64-byte ymm
    /// panels (eight ymm accumulators), a 32-byte column pass, and a
    /// short-row gather per panel row for the last `rb % 32` bytes.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support, and that `coefs`
    /// is `r·c` bytes, `srcs` is `c` rows and `dsts` is `r` rows of `rb`
    /// bytes each (the public wrapper asserts this).
    // SAFETY: unaligned loads/stores only. The tile loops guard
    // `base + {64,32} <= rb` before touching column `base`; the short-row
    // tail and the leftover-row gathers use checked slices. Panel row
    // indices stay `< panels * 4 <= r` and source indices `j < c`, keeping
    // `dp`/`sp`/`cp` offsets inside their slabs per the caller contract.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_mul_add_block_gfni(coefs: &[u8], srcs: &[u8], dsts: &mut [u8], rb: usize) {
        let c = srcs.len() / rb;
        let r = dsts.len() / rb;
        let panels = r / 4;
        let mut base = 0usize;
        while base + 64 <= rb {
            for p in 0..panels {
                let cp = coefs.as_ptr().add(p * 4 * c);
                let dp = dsts.as_mut_ptr().add(p * 4 * rb + base);
                let mut a0 = _mm256_loadu_si256(dp.cast());
                let mut a1 = _mm256_loadu_si256(dp.add(32).cast());
                let mut b0 = _mm256_loadu_si256(dp.add(rb).cast());
                let mut b1 = _mm256_loadu_si256(dp.add(rb + 32).cast());
                let mut c0 = _mm256_loadu_si256(dp.add(2 * rb).cast());
                let mut c1 = _mm256_loadu_si256(dp.add(2 * rb + 32).cast());
                let mut d0 = _mm256_loadu_si256(dp.add(3 * rb).cast());
                let mut d1 = _mm256_loadu_si256(dp.add(3 * rb + 32).cast());
                for j in 0..c {
                    let f0 = *cp.add(j);
                    let f1 = *cp.add(c + j);
                    let f2 = *cp.add(2 * c + j);
                    let f3 = *cp.add(3 * c + j);
                    if f0 | f1 | f2 | f3 == 0 {
                        continue;
                    }
                    let sp = srcs.as_ptr().add(j * rb + base);
                    let s0 = _mm256_loadu_si256(sp.cast());
                    let s1 = _mm256_loadu_si256(sp.add(32).cast());
                    let cv = _mm256_set1_epi8(f0 as i8);
                    a0 = _mm256_xor_si256(a0, _mm256_gf2p8mul_epi8(s0, cv));
                    a1 = _mm256_xor_si256(a1, _mm256_gf2p8mul_epi8(s1, cv));
                    let cv = _mm256_set1_epi8(f1 as i8);
                    b0 = _mm256_xor_si256(b0, _mm256_gf2p8mul_epi8(s0, cv));
                    b1 = _mm256_xor_si256(b1, _mm256_gf2p8mul_epi8(s1, cv));
                    let cv = _mm256_set1_epi8(f2 as i8);
                    c0 = _mm256_xor_si256(c0, _mm256_gf2p8mul_epi8(s0, cv));
                    c1 = _mm256_xor_si256(c1, _mm256_gf2p8mul_epi8(s1, cv));
                    let cv = _mm256_set1_epi8(f3 as i8);
                    d0 = _mm256_xor_si256(d0, _mm256_gf2p8mul_epi8(s0, cv));
                    d1 = _mm256_xor_si256(d1, _mm256_gf2p8mul_epi8(s1, cv));
                }
                _mm256_storeu_si256(dp.cast(), a0);
                _mm256_storeu_si256(dp.add(32).cast(), a1);
                _mm256_storeu_si256(dp.add(rb).cast(), b0);
                _mm256_storeu_si256(dp.add(rb + 32).cast(), b1);
                _mm256_storeu_si256(dp.add(2 * rb).cast(), c0);
                _mm256_storeu_si256(dp.add(2 * rb + 32).cast(), c1);
                _mm256_storeu_si256(dp.add(3 * rb).cast(), d0);
                _mm256_storeu_si256(dp.add(3 * rb + 32).cast(), d1);
            }
            base += 64;
        }
        if base + 32 <= rb {
            for p in 0..panels {
                let cp = coefs.as_ptr().add(p * 4 * c);
                let dp = dsts.as_mut_ptr().add(p * 4 * rb + base);
                let mut a0 = _mm256_loadu_si256(dp.cast());
                let mut b0 = _mm256_loadu_si256(dp.add(rb).cast());
                let mut c0 = _mm256_loadu_si256(dp.add(2 * rb).cast());
                let mut d0 = _mm256_loadu_si256(dp.add(3 * rb).cast());
                for j in 0..c {
                    let f0 = *cp.add(j);
                    let f1 = *cp.add(c + j);
                    let f2 = *cp.add(2 * c + j);
                    let f3 = *cp.add(3 * c + j);
                    if f0 | f1 | f2 | f3 == 0 {
                        continue;
                    }
                    let s0 = _mm256_loadu_si256(srcs.as_ptr().add(j * rb + base).cast());
                    let cv = _mm256_set1_epi8(f0 as i8);
                    a0 = _mm256_xor_si256(a0, _mm256_gf2p8mul_epi8(s0, cv));
                    let cv = _mm256_set1_epi8(f1 as i8);
                    b0 = _mm256_xor_si256(b0, _mm256_gf2p8mul_epi8(s0, cv));
                    let cv = _mm256_set1_epi8(f2 as i8);
                    c0 = _mm256_xor_si256(c0, _mm256_gf2p8mul_epi8(s0, cv));
                    let cv = _mm256_set1_epi8(f3 as i8);
                    d0 = _mm256_xor_si256(d0, _mm256_gf2p8mul_epi8(s0, cv));
                }
                _mm256_storeu_si256(dp.cast(), a0);
                _mm256_storeu_si256(dp.add(rb).cast(), b0);
                _mm256_storeu_si256(dp.add(2 * rb).cast(), c0);
                _mm256_storeu_si256(dp.add(3 * rb).cast(), d0);
            }
            base += 32;
        }
        // The last `rb % 32` bytes of each panel row: one fused short-row
        // gather across all sources.
        for i in 0..panels * 4 {
            gf256_short_multi(
                &coefs[i * c..(i + 1) * c],
                srcs,
                rb,
                base,
                &mut dsts[i * rb + base..(i + 1) * rb],
            );
        }
        for i in panels * 4..r {
            gf256_mul_add_multi_gfni(
                &coefs[i * c..(i + 1) * c],
                srcs,
                &mut dsts[i * rb..(i + 1) * rb],
            );
        }
    }

    /// Fused scatter: each destination row gets `factors[i] · src` in one
    /// pass with the dispatch and constant splat hoisted out of the row
    /// loop; `src` stays cache-hot across rows. The last `rb % 32` bytes of
    /// every row go in one short-row scatter pass that loads the source
    /// tail once.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support.
    // SAFETY: unaligned loads/stores only; `sp` stays below `blocks * 32
    // <= src.len()` and `dp` points into `row`, a checked slice of `dsts`
    // with exactly `rb = src.len()` bytes.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_mul_add_scatter_gfni(factors: &[u8], src: &[u8], dsts: &mut [u8]) {
        let rb = src.len();
        let blocks = rb / 32;
        // Rows under one block (the k-byte headers) skip straight to the
        // short-row pass rather than walking every factor for nothing.
        if blocks > 0 {
            for (i, &f) in factors.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                let cv = _mm256_set1_epi8(f as i8);
                let row = &mut dsts[i * rb..(i + 1) * rb];
                for b in 0..blocks {
                    let sp = src.as_ptr().add(b * 32).cast();
                    let dp: *mut __m256i = row.as_mut_ptr().add(b * 32).cast();
                    let p = _mm256_gf2p8mul_epi8(_mm256_loadu_si256(sp), cv);
                    _mm256_storeu_si256(
                        dp,
                        _mm256_xor_si256(_mm256_loadu_si256(dp.cast_const()), p),
                    );
                }
            }
        }
        gf256_short_scatter(factors, &src[blocks * 32..], dsts, rb, blocks * 32);
    }

    /// As [`gf256_mul_add_scatter_gfni`] with 64-byte zmm blocks and a
    /// short-row tail pass over the last `rb % 64` bytes.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI, AVX-512F, AVX-512BW and AVX2 support.
    // SAFETY: unaligned loads/stores only; `sp` stays below `blocks * 64
    // <= src.len()` and `dp` points into `row`, a checked slice of `dsts`
    // with exactly `rb = src.len()` bytes.
    #[target_feature(enable = "gfni,avx512f,avx512bw,avx2")]
    unsafe fn gf256_mul_add_scatter_gfni512(factors: &[u8], src: &[u8], dsts: &mut [u8]) {
        let rb = src.len();
        let blocks = rb / 64;
        // Rows under one block (the k-byte headers) skip straight to the
        // short-row pass rather than walking every factor for nothing.
        if blocks > 0 {
            for (i, &f) in factors.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                let cv = _mm512_set1_epi8(f as i8);
                let row = &mut dsts[i * rb..(i + 1) * rb];
                for b in 0..blocks {
                    let sp = src.as_ptr().add(b * 64).cast();
                    let dp = row.as_mut_ptr().add(b * 64);
                    let p = _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp), cv);
                    _mm512_storeu_si512(
                        dp.cast(),
                        _mm512_xor_si512(_mm512_loadu_si512(dp.cast()), p),
                    );
                }
            }
        }
        gf256_short_scatter(factors, &src[blocks * 64..], dsts, rb, blocks * 64);
    }

    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support.
    // SAFETY: unaligned loads/stores only; `dp` offsets stay below
    // `blocks * 32 <= dst.len()`, in-place within the one slice.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_mul_gfni(c: u8, dst: &mut [u8]) {
        let cv = _mm256_set1_epi8(c as i8);
        let blocks = dst.len() / 32;
        for b in 0..blocks {
            let dp: *mut __m256i = dst.as_mut_ptr().add(b * 32).cast();
            let p = _mm256_gf2p8mul_epi8(_mm256_loadu_si256(dp.cast_const()), cv);
            _mm256_storeu_si256(dp, p);
        }
        gf256_short_mul(c, &mut dst[blocks * 32..]);
    }

    /// Runs `$body` with `$S` bound to the [`Span`] class of an `$n`-byte
    /// row (`$n < 64`); rows of 1–3 bytes run `$tiny` instead.
    macro_rules! by_span {
        ($n:expr, $S:ident => $body:expr, $tiny:expr) => {
            match $n {
                0 => {}
                1..=3 => $tiny,
                4..=8 => {
                    type $S = Q4;
                    $body
                }
                9..=16 => {
                    type $S = Q8;
                    $body
                }
                17..=31 => {
                    type $S = Y16;
                    $body
                }
                32 => {
                    type $S = Y;
                    $body
                }
                _ => {
                    debug_assert!($n <= 64, "short-row windows cover at most 64 bytes");
                    type $S = Y32;
                    $body
                }
            }
        };
    }

    /// A short-row window class: a row of `n` bytes (`w ≤ n ≤ 2w` for the
    /// class's window width `w`) is covered by two `w`-byte windows at
    /// offsets `0` and `n − w` (one window when `n` is exactly 32), packed
    /// into one register value. Both windows are read before either is
    /// written and every byte of the overlap gets the same value from
    /// each, so `load` → compute → `store` is exact on any length in range
    /// and never touches a byte outside the row.
    trait Span {
        type V: Reg;
        /// Loads both windows of the `n`-byte row at `p`.
        ///
        /// # Safety
        ///
        /// GFNI and AVX2 must be available, `n` must be in the class's
        /// range and `p..p + n` readable.
        // SAFETY: declaration only; the contract is stated above.
        unsafe fn load(p: *const u8, n: usize) -> Self::V;
        /// Stores both windows of `v` to the `n`-byte row at `p`.
        ///
        /// # Safety
        ///
        /// As [`Span::load`], with `p..p + n` writable.
        // SAFETY: declaration only; the contract is stated above.
        unsafe fn store(p: *mut u8, n: usize, v: Self::V);
    }

    /// Byte-wise arithmetic on a packed short-row register value.
    trait Reg: Copy {
        /// GF(2⁸) product of every byte with `c` (the constant in every
        /// byte).
        ///
        /// # Safety
        ///
        /// GFNI and AVX2 must be available.
        // SAFETY: declaration only; the contract is stated above.
        unsafe fn mul(self, c: __m256i) -> Self;
        /// Byte-wise XOR.
        ///
        /// # Safety
        ///
        /// AVX2 must be available.
        // SAFETY: declaration only; the contract is stated above.
        unsafe fn xor(self, other: Self) -> Self;
    }

    impl Reg for __m128i {
        // SAFETY: register-only intrinsics; gfni+avx2 per the contract.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn mul(self, c: __m256i) -> Self {
            _mm_gf2p8mul_epi8(self, _mm256_castsi256_si128(c))
        }
        // SAFETY: register-only intrinsic; avx2 per the contract.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn xor(self, other: Self) -> Self {
            _mm_xor_si128(self, other)
        }
    }

    impl Reg for __m256i {
        // SAFETY: register-only intrinsic; gfni+avx2 per the contract.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn mul(self, c: __m256i) -> Self {
            _mm256_gf2p8mul_epi8(self, c)
        }
        // SAFETY: register-only intrinsic; avx2 per the contract.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn xor(self, other: Self) -> Self {
            _mm256_xor_si256(self, other)
        }
    }

    impl Reg for (__m256i, __m256i) {
        // SAFETY: register-only intrinsics; gfni+avx2 per the contract.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn mul(self, c: __m256i) -> Self {
            (self.0.mul(c), self.1.mul(c))
        }
        // SAFETY: register-only intrinsics; avx2 per the contract.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn xor(self, other: Self) -> Self {
            (self.0.xor(other.0), self.1.xor(other.1))
        }
    }

    /// Rows of 4–8 bytes: two `u32` windows in one xmm.
    struct Q4;
    /// Rows of 9–16 bytes: two `u64` windows in one xmm.
    struct Q8;
    /// Rows of 17–31 bytes: two 16-byte windows in one ymm.
    struct Y16;
    /// Rows of exactly 32 bytes: one ymm. Only the GFNI-512 scatter tail
    /// hands a helper 32 bytes (a whole k = 32 header row); there `Y32`
    /// would pay two loads and two multiplies per row.
    struct Y;
    /// Rows of 33–63 bytes: two 32-byte windows in two ymm.
    struct Y32;

    impl Span for Q4 {
        type V = __m128i;
        // SAFETY: unaligned 4-byte reads at offsets 0 and `n - 4`; the
        // caller contract (`4 <= n`, `p..p + n` readable) keeps both in
        // the row.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn load(p: *const u8, n: usize) -> __m128i {
            let lo = p.cast::<i32>().read_unaligned();
            let hi = p.add(n - 4).cast::<i32>().read_unaligned();
            _mm_insert_epi32::<1>(_mm_cvtsi32_si128(lo), hi)
        }
        // SAFETY: unaligned 4-byte writes at offsets 0 and `n - 4`; the
        // caller contract (`4 <= n`, `p..p + n` writable) keeps both in
        // the row.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn store(p: *mut u8, n: usize, v: __m128i) {
            p.add(n - 4)
                .cast::<i32>()
                .write_unaligned(_mm_extract_epi32::<1>(v));
            p.cast::<i32>().write_unaligned(_mm_cvtsi128_si32(v));
        }
    }

    impl Span for Q8 {
        type V = __m128i;
        // SAFETY: unaligned 8-byte reads at offsets 0 and `n - 8`; the
        // caller contract (`8 <= n`, `p..p + n` readable) keeps both in
        // the row.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn load(p: *const u8, n: usize) -> __m128i {
            let lo = p.cast::<i64>().read_unaligned();
            let hi = p.add(n - 8).cast::<i64>().read_unaligned();
            _mm_insert_epi64::<1>(_mm_cvtsi64_si128(lo), hi)
        }
        // SAFETY: unaligned 8-byte writes at offsets 0 and `n - 8`; the
        // caller contract (`8 <= n`, `p..p + n` writable) keeps both in
        // the row.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn store(p: *mut u8, n: usize, v: __m128i) {
            p.add(n - 8)
                .cast::<i64>()
                .write_unaligned(_mm_extract_epi64::<1>(v));
            p.cast::<i64>().write_unaligned(_mm_cvtsi128_si64(v));
        }
    }

    impl Span for Y16 {
        type V = __m256i;
        // SAFETY: unaligned 16-byte reads at offsets 0 and `n - 16`; the
        // caller contract (`16 <= n`, `p..p + n` readable) keeps both in
        // the row.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn load(p: *const u8, n: usize) -> __m256i {
            _mm256_loadu2_m128i(p.add(n - 16).cast(), p.cast())
        }
        // SAFETY: unaligned 16-byte writes at offsets 0 and `n - 16`; the
        // caller contract (`16 <= n`, `p..p + n` writable) keeps both in
        // the row.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn store(p: *mut u8, n: usize, v: __m256i) {
            _mm256_storeu2_m128i(p.add(n - 16).cast(), p.cast(), v);
        }
    }

    impl Span for Y {
        type V = __m256i;
        // SAFETY: one unaligned 32-byte read; the caller contract (`n` in
        // range, so `n == 32`, and `p..p + n` readable) keeps it in the row.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn load(p: *const u8, n: usize) -> __m256i {
            debug_assert_eq!(n, 32);
            _mm256_loadu_si256(p.cast())
        }
        // SAFETY: one unaligned 32-byte write; the caller contract (`n` in
        // range, so `n == 32`, and `p..p + n` writable) keeps it in the row.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn store(p: *mut u8, n: usize, v: __m256i) {
            debug_assert_eq!(n, 32);
            _mm256_storeu_si256(p.cast(), v);
        }
    }

    impl Span for Y32 {
        type V = (__m256i, __m256i);
        // SAFETY: unaligned 32-byte reads at offsets 0 and `n - 32`; the
        // caller contract (`32 <= n`, `p..p + n` readable) keeps both in
        // the row.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn load(p: *const u8, n: usize) -> (__m256i, __m256i) {
            (
                _mm256_loadu_si256(p.cast()),
                _mm256_loadu_si256(p.add(n - 32).cast()),
            )
        }
        // SAFETY: unaligned 32-byte writes at offsets 0 and `n - 32`; the
        // caller contract (`32 <= n`, `p..p + n` writable) keeps both in
        // the row.
        #[inline]
        #[target_feature(enable = "gfni,avx2")]
        unsafe fn store(p: *mut u8, n: usize, v: (__m256i, __m256i)) {
            _mm256_storeu_si256(p.add(n - 32).cast(), v.1);
            _mm256_storeu_si256(p.cast(), v.0);
        }
    }

    /// `dst ^= c · src` over GF(2⁸) for a row of under 64 bytes, through the
    /// short-row windows (the product table for rows of 1–3 bytes).
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support.
    // SAFETY: `src` is re-sliced to `n = dst.len()` bytes (panicking if
    // shorter), so both row pointers cover `n` valid bytes as every `Span`
    // method requires; `by_span!` picks the class whose window fits `n`.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_short_mul_add(c: u8, src: &[u8], dst: &mut [u8]) {
        let n = dst.len();
        let src = &src[..n];
        let cv = _mm256_set1_epi8(c as i8);
        by_span!(
            n,
            S => {
                let p = S::load(src.as_ptr(), n).mul(cv);
                let d = dst.as_mut_ptr();
                S::store(d, n, S::load(d, n).xor(p));
            },
            crate::reference::gf256_mul_add_slice(c, src, dst)
        );
    }

    /// `dst = c · dst` over GF(2⁸) for a row of under 64 bytes.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support.
    // SAFETY: the row pointer covers `n = dst.len()` valid bytes, as every
    // `Span` method requires; `by_span!` picks the class whose window
    // fits `n`.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_short_mul(c: u8, dst: &mut [u8]) {
        let n = dst.len();
        let cv = _mm256_set1_epi8(c as i8);
        by_span!(
            n,
            S => {
                let d = dst.as_mut_ptr();
                S::store(d, n, S::load(d, n).mul(cv));
            },
            crate::reference::gf256_mul_slice(c, dst)
        );
    }

    /// Fused gather `dst ^= Σᵢ factors[i] · srcs[i·stride + base ..][..n]`
    /// over GF(2⁸) for `n = dst.len()` under 64 bytes: `dst` stays in
    /// registers across all sources. Zero factors are skipped.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support.
    // SAFETY: the assert bounds the last source window,
    // `(factors.len() - 1) * stride + base + n <= srcs.len()`, and source
    // offsets grow with `i < factors.len()`, so every `sp` covers `n`
    // valid bytes of `srcs`; `dst` covers `n` bytes. `by_span!` picks the
    // class whose window fits `n`.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_short_multi(
        factors: &[u8],
        srcs: &[u8],
        stride: usize,
        base: usize,
        dst: &mut [u8],
    ) {
        let n = dst.len();
        if n == 0 || factors.is_empty() {
            return;
        }
        assert!(
            (factors.len() - 1) * stride + base + n <= srcs.len(),
            "short gather rows must lie inside srcs"
        );
        by_span!(
            n,
            S => {
                let d = dst.as_mut_ptr();
                let mut acc = S::load(d, n);
                for (i, &f) in factors.iter().enumerate() {
                    if f != 0 {
                        let sp = srcs.as_ptr().add(i * stride + base);
                        let p = S::load(sp, n).mul(_mm256_set1_epi8(f as i8));
                        acc = acc.xor(p);
                    }
                }
                S::store(d, n, acc);
            },
            for (i, &f) in factors.iter().enumerate() {
                let row = &srcs[i * stride + base..][..n];
                crate::reference::gf256_mul_add_slice(f, row, dst);
            }
        );
    }

    /// Fused scatter `dsts[i·stride + base ..][..n] ^= factors[i] · src`
    /// over GF(2⁸) for `n = src.len()` under 64 bytes: `src` is loaded once
    /// for all rows. Zero factors are skipped.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support.
    // SAFETY: the assert bounds the last destination window,
    // `(factors.len() - 1) * stride + base + n <= dsts.len()`, and row
    // offsets grow with `i < factors.len()`, so every `dp` covers `n`
    // valid bytes of `dsts`; `src` covers `n` bytes. `by_span!` picks the
    // class whose window fits `n`.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_short_scatter(
        factors: &[u8],
        src: &[u8],
        dsts: &mut [u8],
        stride: usize,
        base: usize,
    ) {
        let n = src.len();
        if n == 0 || factors.is_empty() {
            return;
        }
        assert!(
            (factors.len() - 1) * stride + base + n <= dsts.len(),
            "short scatter rows must lie inside dsts"
        );
        by_span!(
            n,
            S => {
                let s = S::load(src.as_ptr(), n);
                for (i, &f) in factors.iter().enumerate() {
                    if f != 0 {
                        let dp = dsts.as_mut_ptr().add(i * stride + base);
                        let p = s.mul(_mm256_set1_epi8(f as i8));
                        S::store(dp, n, S::load(dp, n).xor(p));
                    }
                }
            },
            for (i, &f) in factors.iter().enumerate() {
                let row = &mut dsts[i * stride + base..][..n];
                crate::reference::gf256_mul_add_slice(f, src, row);
            }
        );
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod detail {
    //! Non-x86-64 hosts: the SIMD rung is a transparent alias of SWAR.
    use crate::wide;

    pub(super) fn supported() -> bool {
        false
    }

    pub(super) fn level_name() -> &'static str {
        "swar-fallback"
    }

    pub(super) fn has_gfni() -> bool {
        false
    }

    pub(super) fn gf256_mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        wide::gf256_mul_add_slice(c, src, dst);
    }

    pub(super) fn gf256_mul_slice(c: u8, dst: &mut [u8]) {
        wide::gf256_mul_slice(c, dst);
    }

    pub(super) fn gf256_mul_add_multi(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
        for (&f, row) in factors.iter().zip(srcs.chunks_exact(dst.len())) {
            if f != 0 {
                wide::gf256_mul_add_slice(f, row, dst);
            }
        }
    }

    pub(super) fn gf256_mul_add_scatter(factors: &[u8], src: &[u8], dsts: &mut [u8]) {
        for (&f, row) in factors.iter().zip(dsts.chunks_exact_mut(src.len())) {
            if f != 0 {
                wide::gf256_mul_add_slice(f, src, row);
            }
        }
    }

    pub(super) fn gf256_mul_add_block(coefs: &[u8], srcs: &[u8], dsts: &mut [u8], rb: usize) {
        let c = srcs.len() / rb;
        for (panel, dst) in coefs.chunks_exact(c).zip(dsts.chunks_exact_mut(rb)) {
            gf256_mul_add_multi(panel, srcs, dst);
        }
    }

    pub(super) fn gf16_mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        wide::gf16_mul_add_slice(c, src, dst);
    }

    pub(super) fn gf16_mul_slice(c: u8, dst: &mut [u8]) {
        wide::gf16_mul_slice(c, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simd_matches_reference_across_block_boundaries() {
        let src: Vec<u8> = (0..200u8)
            .map(|b| b.wrapping_mul(101).wrapping_add(7))
            .collect();
        for c in [0u8, 1, 2, 0x57, 0x8E, 0xFF] {
            for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 47, 64, 95, 200] {
                let mut want = vec![0xC3u8; len];
                crate::reference::gf256_mul_add_slice(c, &src[..len], &mut want);
                let mut got = vec![0xC3u8; len];
                gf256_mul_add_slice(c, &src[..len], &mut got);
                assert_eq!(got, want, "gf256 axpy c={c} len={len}");

                let mut want_mul = src[..len].to_vec();
                crate::reference::gf256_mul_slice(c, &mut want_mul);
                let mut got_mul = src[..len].to_vec();
                gf256_mul_slice(c, &mut got_mul);
                assert_eq!(got_mul, want_mul, "gf256 mul c={c} len={len}");
            }
        }
    }

    #[test]
    fn simd_gf16_matches_reference_with_dirty_high_nibbles() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in 0..16u8 {
            for len in [0usize, 13, 16, 40, 256] {
                let mut want = vec![0x09u8; len];
                crate::reference::gf16_mul_add_slice(c, &src[..len], &mut want);
                let mut got = vec![0x09u8; len];
                gf16_mul_add_slice(c, &src[..len], &mut got);
                assert_eq!(got, want, "gf16 axpy c={c} len={len}");
            }
        }
    }

    #[test]
    fn fused_multi_matches_reference_loop_across_tile_boundaries() {
        // Row lengths straddle the 128-byte (AVX2) and 256-byte (AVX-512)
        // tile sizes plus the sub-32-byte scalar tail.
        let factors: Vec<u8> = vec![0x00, 0x01, 0x57, 0x8E, 0xFF, 0x02, 0x00, 0xC3];
        let srcs: Vec<u8> = (0..factors.len() * 520)
            .map(|i| (i as u8).wrapping_mul(167).wrapping_add(13))
            .collect();
        for rb in [
            0usize, 1, 31, 32, 33, 127, 128, 129, 255, 256, 257, 300, 511, 512, 520,
        ] {
            let packed: Vec<u8> = srcs
                .chunks_exact(520)
                .flat_map(|row| row[..rb].to_vec())
                .collect();
            let mut want = vec![0x5Au8; rb];
            for (f, row) in factors.iter().zip(packed.chunks_exact(rb.max(1))) {
                crate::reference::gf256_mul_add_slice(*f, row, &mut want);
            }
            let mut got = vec![0x5Au8; rb];
            gf256_mul_add_multi(&factors, &packed, &mut got);
            assert_eq!(got, want, "fused gather rb={rb}");
        }
    }

    #[test]
    fn blocked_panel_matches_reference_loop_across_tile_boundaries() {
        // Panel shapes straddle the 4-row register panel and every column
        // pass (128/64-byte zmm tiles, 64/32-byte ymm tiles, masked and
        // scalar tails).
        for (r, c) in [(1usize, 1usize), (2, 3), (4, 4), (5, 2), (7, 9), (8, 17)] {
            let coefs: Vec<u8> = (0..r * c)
                .map(|i| (i as u8).wrapping_mul(73).wrapping_add(5) % 7)
                .map(|v| if v == 3 { 0 } else { v.wrapping_mul(41) })
                .collect();
            for rb in [1usize, 31, 32, 33, 63, 64, 65, 127, 128, 129, 200, 256, 300] {
                let srcs: Vec<u8> = (0..c * rb)
                    .map(|i| (i as u8).wrapping_mul(167).wrapping_add(13))
                    .collect();
                let init: Vec<u8> = (0..r * rb).map(|i| (i as u8).wrapping_mul(29)).collect();
                let mut want = init.clone();
                for (panel, dst) in coefs.chunks_exact(c).zip(want.chunks_exact_mut(rb)) {
                    for (f, row) in panel.iter().zip(srcs.chunks_exact(rb)) {
                        crate::reference::gf256_mul_add_slice(*f, row, dst);
                    }
                }
                let mut got = init.clone();
                gf256_mul_add_block(&coefs, &srcs, &mut got, rb);
                assert_eq!(got, want, "blocked panel r={r} c={c} rb={rb}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn detection_reports_a_level() {
        // On any x86-64 made this century the rung is at least SSSE3.
        assert!(supported(), "SIMD rung unsupported: {}", level_name());
    }
}
