//! `FftPlan` correctness: the precomputed-twiddle kernel must be
//! numerically interchangeable with the original recurrence-based FFT
//! (`fft_unplanned`), invertible, and correct for every power-of-two
//! size — the plan registry serves all of them from one cache.

use proptest::prelude::*;
use ree_apps::fft::{fft, fft2d_with, fft_unplanned, Complex, FftPlan};
use ree_sim::SimRng;

/// Tolerance for planned-vs-unplanned agreement. The two kernels differ
/// only in how twiddles are produced (direct evaluation vs recurrence),
/// so they agree to fine precision at these sizes.
const TOL: f64 = 1e-9;

fn random_signal(n: usize, seed: u64) -> Vec<Complex> {
    let mut rng = SimRng::new(seed);
    let mut draw = || rng.f64() * 40.0 - 20.0;
    (0..n).map(|_| (draw(), draw())).collect()
}

fn max_abs_diff(a: &[Complex], b: &[Complex]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x.0 - y.0).abs().max((x.1 - y.1).abs())).fold(0.0, f64::max)
}

#[test]
fn planned_matches_unplanned_on_random_inputs() {
    for (i, size) in [1usize, 2, 4, 8, 16, 64, 256, 1024].into_iter().enumerate() {
        for rep in 0..4u64 {
            let signal = random_signal(size, 1000 + 17 * i as u64 + rep);
            for inverse in [false, true] {
                let mut planned = signal.clone();
                let mut naive = signal.clone();
                fft(&mut planned, inverse);
                fft_unplanned(&mut naive, inverse);
                let diff = max_abs_diff(&planned, &naive);
                assert!(diff < TOL, "size {size} inverse {inverse}: diff {diff}");
            }
        }
    }
}

#[test]
fn inverse_round_trips_to_the_original_signal() {
    for size in [2usize, 8, 32, 128, 512] {
        let signal = random_signal(size, 7 + size as u64);
        let mut data = signal.clone();
        let plan = FftPlan::for_size(size);
        plan.process(&mut data, false);
        plan.process(&mut data, true);
        let diff = max_abs_diff(&data, &signal);
        assert!(diff < TOL, "size {size}: round-trip diff {diff}");
    }
}

#[test]
fn plan_can_be_built_directly_without_the_registry() {
    let plan = FftPlan::new(64);
    assert_eq!(plan.size(), 64);
    let signal = random_signal(64, 99);
    let mut a = signal.clone();
    let mut b = signal.clone();
    plan.process(&mut a, false);
    fft(&mut b, false);
    assert!(max_abs_diff(&a, &b) < TOL);
}

/// Reference 2-D transform built purely from `fft_unplanned`: per-row
/// passes, then each column gathered into a scratch vector, transformed,
/// and scattered back — the strided layout the transpose-blocked kernel
/// replaced.
fn fft2d_reference(data: &mut [Complex], size: usize, inverse: bool) {
    for row in data.chunks_exact_mut(size) {
        fft_unplanned(row, inverse);
    }
    let mut col = vec![(0.0, 0.0); size];
    for c in 0..size {
        for r in 0..size {
            col[r] = data[r * size + c];
        }
        fft_unplanned(&mut col, inverse);
        for r in 0..size {
            data[r * size + c] = col[r];
        }
    }
}

proptest! {
    /// For every power-of-two size up to 2¹⁰ and any seed, the planned
    /// kernel agrees with the recurrence kernel and the inverse
    /// transform returns the input.
    #[test]
    fn plan_equivalence_over_power_of_two_sizes(exp in 0u32..=10, seed in any::<u64>()) {
        let size = 1usize << exp;
        let signal = random_signal(size, seed);

        let mut planned = signal.clone();
        let mut naive = signal.clone();
        fft(&mut planned, false);
        fft_unplanned(&mut naive, false);
        prop_assert!(max_abs_diff(&planned, &naive) < TOL);

        fft(&mut planned, true);
        prop_assert!(max_abs_diff(&planned, &signal) < TOL);
    }

    /// The transpose-blocked 2-D kernel agrees with the strided
    /// `fft_unplanned` reference for every supported tile size — both
    /// directions — and the inverse round-trips the forward transform.
    /// Covers tiles below, at, and above the transpose block width.
    #[test]
    fn tiled_fft2d_matches_unplanned_over_all_tile_sizes(exp in 0u32..=6, seed in any::<u64>()) {
        let size = 1usize << exp;
        let signal = random_signal(size * size, seed);
        let plan = FftPlan::for_size(size);

        for inverse in [false, true] {
            let mut tiled = signal.clone();
            let mut reference = signal.clone();
            fft2d_with(&plan, &mut tiled, inverse);
            fft2d_reference(&mut reference, size, inverse);
            let diff = max_abs_diff(&tiled, &reference);
            prop_assert!(diff < TOL, "size {size} inverse {inverse}: diff {diff}");
        }

        let mut data = signal.clone();
        fft2d_with(&plan, &mut data, false);
        fft2d_with(&plan, &mut data, true);
        let diff = max_abs_diff(&data, &signal);
        prop_assert!(diff < TOL, "size {size}: 2-D round-trip diff {diff}");
    }
}
