//! Radix-2 complex FFT — the "external FFT library" the texture filters
//! spend ~20 s per filter in (§3.3). This is real computation: the
//! texture features that drive segmentation are produced by these
//! transforms, so heap bit-flips in the image propagate through genuine
//! arithmetic to the application's output (Table 10).
//!
//! # Plans
//!
//! The per-stage `cos`/`sin` calls and the per-butterfly `w = w * wlen`
//! recurrence of the naive transform were high on the profile of the
//! science kernels (see `docs/bench/PR-4.md`). An [`FftPlan`]
//! precomputes, once per transform size:
//!
//! * the **bit-reversal permutation** (a table lookup instead of
//!   `reverse_bits` + shift per element), and
//! * the **twiddle factors** of every butterfly stage, forward and
//!   inverse, each evaluated directly as `exp(±2πik/len)` — slightly
//!   *more* accurate than the recurrence, which accumulates rounding
//!   with every multiplication.
//!
//! Plans are cached in a per-thread registry ([`FftPlan::for_size`]), so
//! the campaign's millions of 8×8 tile transforms share one 8-point
//! plan; [`fft`] fetches from the registry transparently and existing
//! callers keep their signature.
//!
//! ```
//! use ree_apps::fft::{fft, fft_unplanned, FftPlan};
//!
//! let signal: Vec<(f64, f64)> = (0..16).map(|i| (i as f64, 0.0)).collect();
//! let mut planned = signal.clone();
//! let mut naive = signal.clone();
//! fft(&mut planned, false); // plan fetched from the registry
//! fft_unplanned(&mut naive, false); // reference recurrence kernel
//! for (p, n) in planned.iter().zip(&naive) {
//!     assert!((p.0 - n.0).abs() < 1e-9 && (p.1 - n.1).abs() < 1e-9);
//! }
//! // The same plan instance can also be held and driven directly:
//! let plan = FftPlan::for_size(16);
//! let mut data = signal.clone();
//! plan.process(&mut data, false);
//! plan.process(&mut data, true); // round-trips back to the signal
//! assert!((data[3].0 - 3.0).abs() < 1e-9);
//! ```

use std::cell::RefCell;
use std::sync::Arc;

/// A complex number as a `(re, im)` pair.
pub type Complex = (f64, f64);

fn cmul(a: Complex, b: Complex) -> Complex {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

fn cadd(a: Complex, b: Complex) -> Complex {
    (a.0 + b.0, a.1 + b.1)
}

fn csub(a: Complex, b: Complex) -> Complex {
    (a.0 - b.0, a.1 - b.1)
}

/// A precomputed radix-2 FFT plan for one transform size.
///
/// Holds the bit-reversal permutation and per-stage twiddle factors
/// (forward and inverse), so [`FftPlan::process`] performs no
/// trigonometry and no twiddle recurrence. Build directly with
/// [`FftPlan::new`] or fetch a cached instance with
/// [`FftPlan::for_size`].
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversal permutation as explicit swap pairs `(i, j)` with
    /// `i < j` — only the elements that actually move, so the permutation
    /// loop runs `n/2 - ~√n` iterations with no branch, instead of `n`
    /// iterations testing `i < bitrev[i]`.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles, all stages flattened: the stage with butterfly
    /// span `len` (half `h = len/2`) occupies `fwd[h - 1 .. 2 * h - 1]`,
    /// entry `k` holding `exp(-2πik/len)`.
    fwd: Vec<Complex>,
    /// Inverse twiddles, same layout, `exp(+2πik/len)`.
    inv: Vec<Complex>,
}

/// Butterfly lane width for [`FftPlan::process`]: stages with at least
/// this many butterflies per chunk run in fixed-trip-count blocks that
/// the compiler unrolls and vectorises. 4 complex values = one 512-bit
/// lane pair on AVX2 (4×2 f64 registers).
const LANES: usize = 4;

impl FftPlan {
    /// Precomputes a plan for `n`-point transforms.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> FftPlan {
        assert!(n.is_power_of_two(), "fft length {n} is not a power of two");
        let bits = n.trailing_zeros();
        let swaps: Vec<(u32, u32)> = (0..n)
            .filter_map(|i| {
                if n <= 1 {
                    return None;
                }
                let j = (i as u32).reverse_bits() >> (32 - bits);
                ((i as u32) < j).then_some((i as u32, j))
            })
            .collect();
        // One twiddle per butterfly across all stages: 1 + 2 + … + n/2 = n - 1.
        let mut fwd = Vec::with_capacity(n.saturating_sub(1));
        let mut inv = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            for k in 0..half {
                let ang = 2.0 * std::f64::consts::PI * k as f64 / len as f64;
                fwd.push((ang.cos(), -ang.sin()));
                inv.push((ang.cos(), ang.sin()));
            }
            len <<= 1;
        }
        FftPlan { n, swaps, fwd, inv }
    }

    /// The transform size this plan serves.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Fetches (building on first use) the cached plan for `n`-point
    /// transforms from the per-thread registry.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn for_size(n: usize) -> Arc<FftPlan> {
        thread_local! {
            /// Sorted `(size, plan)` registry; a campaign touches only a
            /// couple of sizes, so a small sorted vec beats hashing.
            static REGISTRY: RefCell<Vec<(usize, Arc<FftPlan>)>> = const { RefCell::new(Vec::new()) };
        }
        REGISTRY.with(|cell| {
            let mut reg = cell.borrow_mut();
            match reg.binary_search_by_key(&n, |(size, _)| *size) {
                Ok(i) => Arc::clone(&reg[i].1),
                Err(i) => {
                    let plan = Arc::new(FftPlan::new(n));
                    reg.insert(i, (n, Arc::clone(&plan)));
                    plan
                }
            }
        })
    }

    /// In-place transform of `data` with this plan.
    ///
    /// `inverse` selects the inverse transform (scaled by `1/n`).
    ///
    /// Every output element is produced by exactly the same sequence of
    /// floating-point operations as the straightforward scalar loop
    /// (`process_generic`), so results are bit-identical across the
    /// unrolled 8-point path, the lane-blocked path, and the scalar
    /// path — including on non-finite inputs, which injected bit flips
    /// produce. In particular no twiddle multiply is ever algebraically
    /// simplified: `cmul(x, (1.0, -0.0))` differs from `x` when `x` is
    /// infinite or NaN.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.size()`.
    pub fn process(&self, data: &mut [Complex], inverse: bool) {
        if self.n == 8 {
            // The texture filters transform millions of 8-point rows per
            // campaign; a straight-line kernel keeps them in registers.
            self.process8(data, inverse);
        } else {
            self.process_generic(data, inverse);
        }
    }

    /// The structured (non-unrolled) kernel every size runs through,
    /// except the sizes with dedicated straight-line paths. Public to the
    /// crate's tests so bit-equivalence with the specialised paths can be
    /// asserted directly.
    #[doc(hidden)]
    fn process_generic(&self, data: &mut [Complex], inverse: bool) {
        let n = self.n;
        assert_eq!(data.len(), n, "plan is for {n}-point transforms");
        if n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        let twiddles = if inverse { &self.inv } else { &self.fwd };
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stage = &twiddles[half - 1..2 * half - 1];
            if half < LANES {
                for chunk in data.chunks_exact_mut(len) {
                    let (lo, hi) = chunk.split_at_mut(half);
                    for i in 0..half {
                        let u = lo[i];
                        let v = cmul(hi[i], stage[i]);
                        lo[i] = cadd(u, v);
                        hi[i] = csub(u, v);
                    }
                }
            } else {
                // `half` is a power of two ≥ LANES, so the lane blocks
                // tile the stage exactly (no remainder loop). The fixed
                // trip count and bounds-check-free fixed-size blocks are
                // what lets the compiler emit SIMD here.
                for chunk in data.chunks_exact_mut(len) {
                    let (lo, hi) = chunk.split_at_mut(half);
                    for ((lo_b, hi_b), w_b) in lo
                        .chunks_exact_mut(LANES)
                        .zip(hi.chunks_exact_mut(LANES))
                        .zip(stage.chunks_exact(LANES))
                    {
                        for l in 0..LANES {
                            let u = lo_b[l];
                            let v = cmul(hi_b[l], w_b[l]);
                            lo_b[l] = cadd(u, v);
                            hi_b[l] = csub(u, v);
                        }
                    }
                }
            }
            len <<= 1;
        }
        if inverse {
            let scale = 1.0 / n as f64;
            for x in data.iter_mut() {
                x.0 *= scale;
                x.1 *= scale;
            }
        }
    }

    /// Fully unrolled 8-point transform: the same swaps and butterflies
    /// as `process_generic`, in the same order, as straight-line code.
    fn process8(&self, data: &mut [Complex], inverse: bool) {
        assert_eq!(data.len(), 8, "plan is for 8-point transforms");
        #[inline(always)]
        fn bf(data: &mut [Complex], a: usize, b: usize, w: Complex) {
            let u = data[a];
            let v = cmul(data[b], w);
            data[a] = cadd(u, v);
            data[b] = csub(u, v);
        }
        // Bit-reversal of 0..8 moves exactly two pairs.
        data.swap(1, 4);
        data.swap(3, 6);
        let tw = if inverse { &self.inv } else { &self.fwd };
        // Stage len=2 (twiddle tw[0]), then len=4 (tw[1..3]), then
        // len=8 (tw[3..7]) — the flattened `h-1..2h-1` layout.
        bf(data, 0, 1, tw[0]);
        bf(data, 2, 3, tw[0]);
        bf(data, 4, 5, tw[0]);
        bf(data, 6, 7, tw[0]);
        bf(data, 0, 2, tw[1]);
        bf(data, 1, 3, tw[2]);
        bf(data, 4, 6, tw[1]);
        bf(data, 5, 7, tw[2]);
        bf(data, 0, 4, tw[3]);
        bf(data, 1, 5, tw[4]);
        bf(data, 2, 6, tw[5]);
        bf(data, 3, 7, tw[6]);
        if inverse {
            let scale = 1.0 / 8.0;
            for x in data.iter_mut() {
                x.0 *= scale;
                x.1 *= scale;
            }
        }
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT, using the cached
/// [`FftPlan`] for `data.len()`.
///
/// `inverse` selects the inverse transform (scaled by `1/n`).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft(data: &mut [Complex], inverse: bool) {
    FftPlan::for_size(data.len()).process(data, inverse);
}

/// The original plan-free FFT: per-stage `cos`/`sin` plus the
/// per-butterfly `w = w * wlen` recurrence. Kept as the independent
/// reference implementation the [`FftPlan`] equivalence tests compare
/// against (`crates/apps/tests/fft_plan.rs`).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_unplanned(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "fft length {n} is not a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = (ang.cos(), ang.sin());
        for chunk in data.chunks_mut(len) {
            let mut w = (1.0, 0.0);
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = cmul(chunk[i + half], w);
                chunk[i] = cadd(u, v);
                chunk[i + half] = csub(u, v);
                w = cmul(w, wlen);
            }
        }
        len <<= 1;
    }
    if inverse {
        let scale = 1.0 / n as f64;
        for x in data.iter_mut() {
            x.0 *= scale;
            x.1 *= scale;
        }
    }
}

/// Transpose block side: 8 complex values per row = 128 bytes = two
/// cache lines, so a block pair stays resident while it is exchanged.
const TRANSPOSE_BLOCK: usize = 8;

/// In-place transpose of a row-major `size`×`size` matrix, walked in
/// cache-sized blocks.
fn transpose(data: &mut [Complex], size: usize) {
    let b = TRANSPOSE_BLOCK;
    let mut rb = 0;
    while rb < size {
        let r_end = (rb + b).min(size);
        // Diagonal block: swap its strict upper triangle.
        for r in rb..r_end {
            for c in (r + 1)..r_end {
                data.swap(r * size + c, c * size + r);
            }
        }
        // Off-diagonal block pairs.
        let mut cb = rb + b;
        while cb < size {
            let c_end = (cb + b).min(size);
            for r in rb..r_end {
                for c in cb..c_end {
                    data.swap(r * size + c, c * size + r);
                }
            }
            cb += b;
        }
        rb += b;
    }
}

/// 2-D FFT of a row-major `size`×`size` image (in place, rows then
/// columns) driven by a caller-held plan — the allocation-free form the
/// tiled filter pipeline uses.
///
/// The column pass runs as transpose → contiguous row transforms →
/// transpose back, instead of gathering each column through a strided
/// scratch buffer: the transforms then stream cache lines linearly, and
/// the blocked transpose touches each line once. Each column still
/// receives the identical 1-D transform on identical values, so the
/// result is bit-exact with the gather/scatter formulation (asserted in
/// `crates/apps/tests/fft_plan.rs`).
///
/// # Panics
///
/// Panics if `data.len() != plan.size()²`.
pub fn fft2d_with(plan: &FftPlan, data: &mut [Complex], inverse: bool) {
    let size = plan.size();
    assert_eq!(data.len(), size * size, "image must be size*size");
    // Rows.
    for row in data.chunks_mut(size) {
        plan.process(row, inverse);
    }
    // Columns, as rows of the transpose.
    transpose(data, size);
    for row in data.chunks_mut(size) {
        plan.process(row, inverse);
    }
    transpose(data, size);
}

/// Power (squared magnitude) of a spectrum element.
pub(crate) fn power(c: Complex) -> f64 {
    c.0 * c.0 + c.1 * c.1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forward FFT of a real signal; returns complex spectrum.
    fn fft_real(signal: &[f64]) -> Vec<Complex> {
        let mut data: Vec<Complex> = signal.iter().map(|&x| (x, 0.0)).collect();
        fft(&mut data, false);
        data
    }

    /// [`fft2d_with`] on a fresh plan.
    fn fft2d(data: &mut [Complex], size: usize, inverse: bool) {
        fft2d_with(&FftPlan::for_size(size), data, inverse);
    }

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} vs {b}");
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut signal = vec![0.0; 16];
        signal[0] = 1.0;
        let spec = fft_real(&signal);
        for c in spec {
            assert_close(c.0, 1.0, 1e-12);
            assert_close(c.1, 0.0, 1e-12);
        }
    }

    #[test]
    fn single_tone_peaks_at_its_bin() {
        let n = 64;
        let k = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&signal);
        let powers: Vec<f64> = spec.iter().map(|&c| power(c)).collect();
        let max_bin = powers
            .iter()
            .take(n / 2)
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max_bin, k);
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let signal: Vec<f64> = (0..128).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let mut data: Vec<Complex> = signal.iter().map(|&x| (x, 0.0)).collect();
        fft(&mut data, false);
        fft(&mut data, true);
        for (orig, got) in signal.iter().zip(&data) {
            assert_close(got.0, *orig, 1e-9);
            assert_close(got.1, 0.0, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let signal: Vec<f64> = (0..64).map(|i| (i as f64 * 0.7).sin()).collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spec = fft_real(&signal);
        let freq_energy: f64 = spec.iter().map(|&c| power(c)).sum::<f64>() / 64.0;
        assert_close(time_energy, freq_energy, 1e-9);
    }

    #[test]
    fn fft2d_roundtrip() {
        let size = 16;
        let img: Vec<f64> = (0..size * size).map(|i| ((i * 13) % 7) as f64).collect();
        let mut data: Vec<Complex> = img.iter().map(|&x| (x, 0.0)).collect();
        fft2d(&mut data, size, false);
        fft2d(&mut data, size, true);
        for (orig, got) in img.iter().zip(&data) {
            assert_close(got.0, *orig, 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut d = vec![(0.0, 0.0); 12];
        fft(&mut d, false);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn unplanned_non_power_of_two_panics() {
        let mut d = vec![(0.0, 0.0); 12];
        fft_unplanned(&mut d, false);
    }

    #[test]
    fn registry_returns_the_same_plan_instance() {
        let a = FftPlan::for_size(32);
        let b = FftPlan::for_size(32);
        assert!(Arc::ptr_eq(&a, &b), "plans must be cached per size");
        assert_eq!(a.size(), 32);
    }

    #[test]
    fn trivial_sizes_are_identity() {
        let mut one = vec![(3.5, -1.0)];
        fft(&mut one, false);
        assert_eq!(one, vec![(3.5, -1.0)]);
    }

    /// Deterministic pseudo-random doubles for bit-exactness checks.
    fn lcg_signal(n: usize, mut state: u64) -> Vec<Complex> {
        (0..n)
            .map(|_| {
                let mut next = || {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 11) as f64 / (1u64 << 53) as f64) * 100.0 - 50.0
                };
                (next(), next())
            })
            .collect()
    }

    #[test]
    fn unrolled_8_point_is_bit_exact_with_generic() {
        let plan = FftPlan::new(8);
        for seed in 0..64u64 {
            for inverse in [false, true] {
                let signal = lcg_signal(8, seed + 1);
                let mut unrolled = signal.clone();
                let mut generic = signal;
                plan.process8(&mut unrolled, inverse);
                plan.process_generic(&mut generic, inverse);
                assert_eq!(unrolled, generic, "seed {seed} inverse {inverse}");
            }
        }
    }

    #[test]
    fn unrolled_8_point_matches_generic_on_non_finite_inputs() {
        // Injected bit flips can produce ±∞/NaN mid-tile; the specialised
        // path must propagate them through the identical FP expressions.
        let plan = FftPlan::new(8);
        for (poison_idx, poison) in
            [(0, f64::INFINITY), (3, f64::NEG_INFINITY), (5, f64::NAN), (7, f64::MAX)]
        {
            for inverse in [false, true] {
                let mut signal = lcg_signal(8, 99);
                signal[poison_idx].0 = poison;
                let mut unrolled = signal.clone();
                let mut generic = signal;
                plan.process8(&mut unrolled, inverse);
                plan.process_generic(&mut generic, inverse);
                // Compare bit patterns so NaN positions must agree too.
                let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
                    v.iter().map(|c| (c.0.to_bits(), c.1.to_bits())).collect()
                };
                assert_eq!(bits(&unrolled), bits(&generic), "poison at {poison_idx}");
            }
        }
    }

    #[test]
    fn transpose_involution_and_layout() {
        for size in [1usize, 2, 4, 8, 16, 32] {
            let original: Vec<Complex> =
                (0..size * size).map(|i| (i as f64, -(i as f64))).collect();
            let mut data = original.clone();
            transpose(&mut data, size);
            for r in 0..size {
                for c in 0..size {
                    assert_eq!(data[c * size + r], original[r * size + c]);
                }
            }
            transpose(&mut data, size);
            assert_eq!(data, original);
        }
    }
}
