//! Runtime kernel selection for the bulk slab operations.
//!
//! PR 2 made the [`crate::slab`] row primitives table-driven; this module
//! makes the *implementation* of those primitives a runtime choice between
//! three rungs of a ladder, so the old path survives unchanged for
//! differential testing and benchmarking while the hot path runs as fast as
//! the hardware allows:
//!
//! | rung | module | technique |
//! |---|---|---|
//! | [`Kernel::Reference`] | [`crate::reference`] | the PR 2 byte-at-a-time product-table kernels, preserved verbatim |
//! | [`Kernel::Swar`] | [`crate::wide`] | split-nibble SWAR: per-multiplier 16-entry lo/hi nibble tables applied 8 bytes at a time through `u64` words (the scalar emulation of `PSHUFB`) |
//! | [`Kernel::Simd`] | [`crate::simd`] | the same nibble tables through real `PSHUFB` (SSSE3/AVX2) or, for GF(2⁸), the `GF2P8MULB` instruction (GFNI) — x86-64 only, runtime-detected |
//!
//! GF(2) addition/axpy is a pure `u64` XOR on every rung and is not
//! dispatched. All rungs are bit-identical by construction (multiplication
//! by a constant is GF(2)-linear, and every rung evaluates the same linear
//! map); the `proptest_kernels` suite pins them to each other and to the
//! scalar [`crate::Field`] arithmetic on every field.
//!
//! # Selection
//!
//! The active kernel is resolved once, on first use:
//!
//! 1. an explicit [`set_kernel`] call wins (benchmarks use this to time
//!    each rung in isolation),
//! 2. else the `AG_GF_KERNEL` environment variable (`reference`, `swar`,
//!    `simd`, or `auto`),
//! 3. else the best rung the CPU supports ([`Kernel::detect_best`]).
//!
//! Selection is process-global and may be changed at any time; all rungs
//! compute identical results, so switching mid-run affects throughput only.

use std::sync::atomic::{AtomicU8, Ordering};

/// One rung of the slab-kernel ladder. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The PR 2 byte-at-a-time product-table kernels ([`crate::reference`]).
    Reference,
    /// Portable SWAR split-nibble kernels over `u64` words ([`crate::wide`]).
    Swar,
    /// Runtime-detected x86-64 SIMD (`PSHUFB` / `GF2P8MULB`,
    /// [`crate::simd`]); falls back to [`Kernel::Swar`] elsewhere.
    Simd,
}

/// Rows shorter than this take the reference kernel instead of a wide
/// rung wherever that rung would build per-multiplier nibble tables: the
/// `PSHUFB` and SWAR paths pay ~30 scalar products per multiplier for
/// their 16-entry lo/hi tables, which only amortize over longer rows,
/// while the reference kernel just indexes a prebuilt 256-byte product
/// row. That holds for GF(2⁴) on every host and for GF(2⁸) on hosts
/// without GFNI. With GFNI, `GF2P8MULB` multiplies by a broadcast constant
/// with no table at all, and the GFNI kernels in [`crate::simd`] finish
/// what whole vectors leave of a row with two overlapping register
/// windows (the product table only below 4 bytes). The
/// `bench_gf_block` short-row sweep on a GFNI-512 host measured them at
/// 0.8–1.0× the product table on an 8-byte axpy, 1.3–4.8× from 16 to 63
/// bytes and 10–14× on the 18-source × 32-byte fused gather that
/// recoding and header elimination run. Every rung computes identical
/// bytes, so the routing is invisible to results.
pub const SHORT_ROW_BYTES: usize = 64;

/// GF(2⁸) rows at least this long route the [`Kernel::Swar`] rung to the
/// reference product-table kernel — and the threshold is **zero**: the
/// demotion is unconditional. The `bench_gf_block` single-row axpy sweep
/// shows split-nibble SWAR losing to the prebuilt product table at *every*
/// GF(2⁸) row length on the bench machine (swar/reference 0.52 at 64 B,
/// 0.77 at the 1 KiB decode shape, 0.73 at 4 KiB, 0.86 at 1 MiB): the
/// per-multiplier nibble-table build never amortizes against a kernel that
/// just indexes a 256-byte product row. The earlier 4096-byte cutoff —
/// tuned from an end-to-end decode number that bundled the old row-at-a-
/// time replay — left the 1 KiB bench shape on SWAR, decoding at 79.96 vs
/// 126.42 MiB/s reference. All rungs are bit-identical, so the routing is
/// invisible to results; forcing `Kernel::Swar` remains meaningful for
/// GF(2⁴), where SWAR beats reference on every measured shape (raw axpy
/// 3658 vs 2060 MiB/s), and for the proptest lanes that pin the SWAR code
/// paths directly.
pub const GF256_SWAR_LONG_ROW_BYTES: usize = 0;

/// The rung a GF(2⁸) bulk operation over `row_bytes` actually executes
/// when `active` is the selected kernel and `gfni` says whether the SIMD
/// rung has `GF2P8MULB` ([`crate::simd::has_gfni`]). This is the single
/// routing decision both [`crate::Gf256`] slab ops and the pinning tests
/// consult, a pure function of its inputs: rows shorter than
/// [`SHORT_ROW_BYTES`] take reference unless the SIMD rung runs them
/// through GFNI, and every [`Kernel::Swar`] row demotes to reference per
/// [`GF256_SWAR_LONG_ROW_BYTES`].
#[must_use]
pub fn gf256_effective_kernel(active: Kernel, row_bytes: usize, gfni: bool) -> Kernel {
    let short = row_bytes < SHORT_ROW_BYTES && !(active == Kernel::Simd && gfni);
    // With the threshold at zero every SWAR row demotes; written as a
    // saturating comparison so a re-tuned nonzero cutoff needs no code
    // change here.
    let swar_demoted =
        active == Kernel::Swar && row_bytes.saturating_add(1) > GF256_SWAR_LONG_ROW_BYTES;
    if short || swar_demoted {
        Kernel::Reference
    } else {
        active
    }
}

/// `ACTIVE` sentinel: not yet resolved.
const UNSET: u8 = u8::MAX;

/// The resolved kernel, or [`UNSET`].
static ACTIVE: AtomicU8 = AtomicU8::new(UNSET);

impl Kernel {
    /// All rungs, slowest first — the order benchmark ladders report.
    pub const LADDER: [Kernel; 3] = [Kernel::Reference, Kernel::Swar, Kernel::Simd];

    /// The kernel every [`crate::SlabField`] bulk operation currently
    /// dispatches to.
    #[must_use]
    pub fn active() -> Kernel {
        match ACTIVE.load(Ordering::Relaxed) {
            UNSET => {
                let k = Self::resolve();
                ACTIVE.store(k as u8, Ordering::Relaxed);
                k
            }
            v => Self::from_u8(v),
        }
    }

    /// The fastest rung this CPU supports: [`Kernel::Simd`] when the
    /// required instruction sets are present, else [`Kernel::Swar`].
    #[must_use]
    pub fn detect_best() -> Kernel {
        if Kernel::Simd.is_supported() {
            Kernel::Simd
        } else {
            Kernel::Swar
        }
    }

    /// Can this rung run on the current CPU? `Reference` and `Swar` are
    /// portable; `Simd` needs x86-64 with at least SSSE3.
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            Kernel::Reference | Kernel::Swar => true,
            Kernel::Simd => crate::simd::supported(),
        }
    }

    /// The rung's lower-case name (`reference` / `swar` / `simd`), as
    /// accepted by the `AG_GF_KERNEL` environment variable.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Reference => "reference",
            Kernel::Swar => "swar",
            Kernel::Simd => "simd",
        }
    }

    /// Parses a rung name; `None` for anything unknown (including `auto`,
    /// which callers map to [`Kernel::detect_best`]).
    #[must_use]
    pub fn from_name(s: &str) -> Option<Kernel> {
        match s.to_ascii_lowercase().as_str() {
            "reference" => Some(Kernel::Reference),
            "swar" => Some(Kernel::Swar),
            "simd" => Some(Kernel::Simd),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Kernel {
        match v {
            0 => Kernel::Reference,
            1 => Kernel::Swar,
            _ => Kernel::Simd,
        }
    }

    /// First-use resolution: environment override, else detection. An
    /// unsupported or unknown `AG_GF_KERNEL` value falls back to detection
    /// rather than erroring — a simulation should not abort over a typo'd
    /// tuning knob — but an unknown value is reported once on stderr so it
    /// does not silently benchmark the wrong rung.
    fn resolve() -> Kernel {
        // ag-lint: allow(wall-clock) — AG_GF_KERNEL picks which proven-
        // bit-identical rung runs; resolved once per process at first use,
        // so the choice cannot vary mid-simulation.
        if let Ok(v) = std::env::var("AG_GF_KERNEL") {
            let (forced, warning) = classify_env_value(&v);
            if let Some(w) = warning {
                WARN_UNKNOWN_ENV.call_once(|| eprintln!("{w}"));
            }
            if let Some(k) = forced {
                if k.is_supported() {
                    return k;
                }
            }
        }
        Self::detect_best()
    }
}

/// Emits the unknown-`AG_GF_KERNEL` warning at most once per process.
static WARN_UNKNOWN_ENV: std::sync::Once = std::sync::Once::new();

/// Classifies an `AG_GF_KERNEL` value for first-use resolution: the
/// forced rung (`None` = fall through to detection) plus a warning line
/// for stderr when the value is unknown. `auto` is a sanctioned spelling
/// of "detect", never a typo. Split from the resolver so the warning
/// path is testable without mutating the process environment.
#[must_use]
pub fn classify_env_value(v: &str) -> (Option<Kernel>, Option<String>) {
    match Kernel::from_name(v) {
        Some(k) => (Some(k), None),
        None if v.eq_ignore_ascii_case("auto") => (None, None),
        None => (
            None,
            Some(format!(
                "ag-gf: unknown AG_GF_KERNEL value `{v}` \
                 (expected reference/swar/simd/auto); falling back to detection"
            )),
        ),
    }
}

/// Forces the active kernel for the whole process (used by the benchmark
/// bins to time each rung in isolation). Unsupported rungs are clamped to
/// [`Kernel::detect_best`]. Returns the kernel actually installed.
pub fn set_kernel(kernel: Kernel) -> Kernel {
    let k = if kernel.is_supported() {
        kernel
    } else {
        Kernel::detect_best()
    };
    ACTIVE.store(k as u8, Ordering::Relaxed);
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in Kernel::LADDER {
            assert_eq!(Kernel::from_name(k.name()), Some(k));
        }
        assert_eq!(Kernel::from_name("REFERENCE"), Some(Kernel::Reference));
        assert_eq!(Kernel::from_name("auto"), None);
        assert_eq!(Kernel::from_name("nonsense"), None);
    }

    #[test]
    fn env_classification_warns_on_typos_but_not_auto() {
        for k in Kernel::LADDER {
            assert_eq!(classify_env_value(k.name()), (Some(k), None));
        }
        assert_eq!(
            classify_env_value("AUTO"),
            (None, None),
            "auto means detect, never a typo"
        );
        let (forced, warning) = classify_env_value("svar");
        assert_eq!(forced, None, "typos fall back to detection");
        let warning = warning.expect("unknown values must warn");
        assert!(warning.contains("AG_GF_KERNEL"), "{warning}");
        assert!(warning.contains("`svar`"), "{warning}");
    }

    #[test]
    fn portable_rungs_always_supported() {
        assert!(Kernel::Reference.is_supported());
        assert!(Kernel::Swar.is_supported());
    }

    #[test]
    fn detect_best_is_supported() {
        assert!(Kernel::detect_best().is_supported());
    }

    #[test]
    fn active_resolves_to_a_supported_kernel() {
        assert!(Kernel::active().is_supported());
    }

    #[test]
    fn gf256_swar_is_demoted_at_every_row_length() {
        // The bench_gf_block axpy sweep shows SWAR losing to the reference
        // product table at every GF(2⁸) row length (64 B through 1 MiB),
        // so the demotion is unconditional: no bulk GF(2⁸) op ever runs
        // the SWAR rung, under an explicit Swar selection and a fortiori
        // under auto-detect, with or without GFNI. This pins the boundary
        // at zero — the decode bench shape (1 KiB rows) regressed under
        // the old 4096-byte cutoff (79.96 vs 126.42 MiB/s).
        assert_eq!(
            GF256_SWAR_LONG_ROW_BYTES, 0,
            "demotion must be unconditional"
        );
        for gfni in [false, true] {
            for row_bytes in [
                1usize,
                SHORT_ROW_BYTES - 1,
                SHORT_ROW_BYTES,
                1024,
                1152,
                4096,
                1 << 20,
            ] {
                assert_eq!(
                    gf256_effective_kernel(Kernel::Swar, row_bytes, gfni),
                    Kernel::Reference,
                    "gf256 rows of {row_bytes} bytes must not run SWAR (gfni={gfni})"
                );
                assert_eq!(
                    gf256_effective_kernel(Kernel::Reference, row_bytes, gfni),
                    Kernel::Reference
                );
            }
            // Long rows stay on the SIMD rung either way.
            for row_bytes in [SHORT_ROW_BYTES, 1024, 1 << 20] {
                assert_eq!(
                    gf256_effective_kernel(Kernel::Simd, row_bytes, gfni),
                    Kernel::Simd
                );
            }
        }
    }

    #[test]
    fn gf256_short_rows_take_simd_only_with_gfni() {
        for row_bytes in [0usize, 1, 3, 4, 8, 31, 32, 33, SHORT_ROW_BYTES - 1] {
            // Without GFNI the SIMD rung would build nibble tables per
            // multiplier: short rows keep the reference product table.
            assert_eq!(
                gf256_effective_kernel(Kernel::Simd, row_bytes, false),
                Kernel::Reference,
                "non-GFNI short row of {row_bytes} bytes"
            );
            // GF2P8MULB needs no table: short rows run the SIMD rung.
            assert_eq!(
                gf256_effective_kernel(Kernel::Simd, row_bytes, true),
                Kernel::Simd,
                "GFNI short row of {row_bytes} bytes"
            );
        }
    }
}
