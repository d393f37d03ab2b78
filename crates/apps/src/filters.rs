//! Directional texture filters (§2): "three filters are used to extract
//! vectors that describe image features along each of its three axes."
//!
//! Each filter measures, per image tile, the spectral energy in one
//! orientation band (horizontal, vertical, diagonal) of the tile's 2-D
//! FFT. The per-tile energies across the three filters form the feature
//! vectors that k-means segments.
//!
//! # Fast path
//!
//! Band membership depends only on `(tile size, filter)`, so it is
//! precomputed once into a **band mask** — span-encoded for branch-free
//! energy sums — and cached per thread; the tile buffer lives in a
//! scratch pool ([`FilterScratch`]) reused across every tile of a call
//! (and across calls, for callers that hold a scratch).
//!
//! Negative result: masks used to be built with a polynomial `atan2`
//! behind an `exact-trig` feature. Masks are built once per thread, so
//! it saved about 1 µs per thread against ~10 ms campaign cells; both
//! classified every bin identically, and libm `atan2` is now the only
//! build (`docs/bench/PR-4.md`, "Determinism decisions").

use crate::fft::{fft2d_with, power, Complex, FftPlan};
use crate::synth::Image;
use std::cell::RefCell;
use std::sync::Arc;

/// Number of directional filters (the image's "three axes").
pub const NUM_FILTERS: usize = 3;

/// Largest supported tile side: a plain input bound
/// ([`FilterScratch::new`] rejects anything larger).
const MAX_TILE_PX: usize = 256;

/// True if spectrum bin `(fu, fv)` (signed frequencies) belongs to
/// `filter`'s orientation band.
fn bin_in_band(fu: f64, fv: f64, filter: usize) -> bool {
    let mag = (fu * fu + fv * fv).sqrt();
    if mag < 1e-9 {
        return false;
    }
    // Orientation of this frequency component, folded to 0..pi.
    let ang = fv.atan2(fu).abs();
    match filter {
        0 => !(std::f64::consts::FRAC_PI_8..=std::f64::consts::PI - std::f64::consts::FRAC_PI_8)
            .contains(&ang),
        1 => (ang - std::f64::consts::FRAC_PI_2).abs() < std::f64::consts::FRAC_PI_8,
        _ => {
            (ang - std::f64::consts::FRAC_PI_4).abs() < std::f64::consts::FRAC_PI_8
                || (ang - 3.0 * std::f64::consts::FRAC_PI_4).abs() < std::f64::consts::FRAC_PI_8
        }
    }
}

/// Builds the band-membership mask for one `(size, filter)` pair: entry
/// `v * size + u` is true when that spectrum bin contributes to the
/// filter's oriented energy. The DC term is always excluded (it carries
/// brightness, not texture).
fn build_band_mask(size: usize, filter: usize) -> Vec<bool> {
    let half = size / 2;
    let mut mask = vec![false; size * size];
    for v in 0..size {
        for u in 0..size {
            if u == 0 && v == 0 {
                continue;
            }
            // Signed frequencies in [-half, half).
            let fu = if u <= half { u as f64 } else { u as f64 - size as f64 };
            let fv = if v <= half { v as f64 } else { v as f64 - size as f64 };
            mask[v * size + u] = bin_in_band(fu, fv, filter);
        }
    }
    mask
}

/// A band mask run-length encoded as contiguous `[start, end)` index
/// spans over the row-major spectrum. The energy accumulation iterates
/// spans of contiguous bins instead of testing a boolean per bin, which
/// drops the per-bin branch and mask load from the hot loop; summation
/// still proceeds in ascending bin order, so the total is bit-identical
/// to the masked form (asserted by `span_energy_is_bit_exact`).
#[derive(Debug)]
struct BandMask {
    spans: Vec<(u32, u32)>,
}

impl BandMask {
    fn from_bins(bins: &[bool]) -> BandMask {
        let mut spans = Vec::new();
        let mut start = None;
        for (i, &in_band) in bins.iter().enumerate() {
            match (in_band, start) {
                (true, None) => start = Some(i as u32),
                (false, Some(s)) => {
                    spans.push((s, i as u32));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            spans.push((s, bins.len() as u32));
        }
        BandMask { spans }
    }
}

/// Sorted `((size, filter), mask)` registry entries.
type MaskRegistry = Vec<((usize, usize), Arc<BandMask>)>;

/// Fetches (building on first use) the cached orientation mask for one
/// `(size, filter)` pair.
fn band_mask(size: usize, filter: usize) -> Arc<BandMask> {
    thread_local! {
        /// Sorted mask registry — at most a handful of entries per
        /// campaign.
        static MASKS: RefCell<MaskRegistry> = const { RefCell::new(Vec::new()) };
    }
    MASKS.with(|cell| {
        let mut reg = cell.borrow_mut();
        match reg.binary_search_by_key(&(size, filter), |(key, _)| *key) {
            Ok(i) => Arc::clone(&reg[i].1),
            Err(i) => {
                let bins = build_band_mask(size, filter);
                let mask = Arc::new(BandMask::from_bins(&bins));
                reg.insert(i, ((size, filter), Arc::clone(&mask)));
                mask
            }
        }
    })
}

/// Reusable per-tile working state: the FFT plan for the tile size and
/// the tile spectrum buffer — everything `filter_tiles` needs, allocated
/// once and reused for every tile. (The 2-D FFT's column pass runs via
/// in-place transposes, so no column scratch is needed.)
#[derive(Clone, Debug)]
pub struct FilterScratch {
    plan: Arc<FftPlan>,
    buf: Vec<Complex>,
}

impl FilterScratch {
    /// Builds scratch state for `tile_px`×`tile_px` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `tile_px` is not a power of two or exceeds
    /// `MAX_TILE_PX`.
    pub fn new(tile_px: usize) -> FilterScratch {
        assert!(tile_px.is_power_of_two(), "tile size must be a power of two");
        assert!(tile_px <= MAX_TILE_PX, "tile size {tile_px} exceeds MAX_TILE_PX {MAX_TILE_PX}");
        FilterScratch { plan: FftPlan::for_size(tile_px), buf: vec![(0.0, 0.0); tile_px * tile_px] }
    }

    /// Tile side length this scratch serves.
    pub(crate) fn tile_px(&self) -> usize {
        self.plan.size()
    }
}

/// Computes filter `filter`'s feature value for every tile whose index is
/// in `tiles` (tiles are numbered row-major over the `tiles_per_side`²
/// grid). Returns `(tile_index, energy)` pairs.
///
/// # Panics
///
/// Panics if `filter >= NUM_FILTERS` or the tile size is not a power of
/// two.
pub fn filter_tiles(
    image: &Image,
    filter: usize,
    tiles: std::ops::Range<usize>,
    tile_px: usize,
) -> Vec<(usize, f64)> {
    let mut scratch = FilterScratch::new(tile_px);
    filter_tiles_px(image.size, &image.pixels, filter, tiles, &mut scratch)
}

/// [`filter_tiles`] over raw row-major pixels with caller-held scratch —
/// the form the texture application drives directly against its science
/// heap (no image clone, no per-call allocations).
///
/// # Panics
///
/// Panics if `filter >= NUM_FILTERS` or `pixels.len() != size * size`.
pub fn filter_tiles_px(
    size: usize,
    pixels: &[f64],
    filter: usize,
    tiles: std::ops::Range<usize>,
    scratch: &mut FilterScratch,
) -> Vec<(usize, f64)> {
    assert!(filter < NUM_FILTERS, "unknown filter {filter}");
    assert_eq!(pixels.len(), size * size, "image must be size*size");
    let tile_px = scratch.tile_px();
    let mask = band_mask(tile_px, filter);
    let per_side = size / tile_px;
    let mut out = Vec::with_capacity(tiles.len());
    for tile in tiles {
        if tile >= per_side * per_side {
            break;
        }
        let tr = (tile / per_side) * tile_px;
        let tc = (tile % per_side) * tile_px;
        for r in 0..tile_px {
            let row = &pixels[(tr + r) * size + tc..(tr + r) * size + tc + tile_px];
            for (dst, &px) in scratch.buf[r * tile_px..(r + 1) * tile_px].iter_mut().zip(row) {
                *dst = (px, 0.0);
            }
        }
        fft2d_with(&scratch.plan, &mut scratch.buf, false);
        out.push((tile, oriented_energy(&scratch.buf, &mask)));
    }
    out
}

/// Sums spectral power over the filter's precomputed orientation band
/// (the DC term is excluded by the mask) and compresses with `ln(1+x)`.
/// Accumulates span by span in ascending bin order — the identical
/// addition sequence as a per-bin masked loop, without the per-bin
/// branch.
fn oriented_energy(spectrum: &[Complex], mask: &BandMask) -> f64 {
    let mut total = 0.0;
    for &(start, end) in &mask.spans {
        for c in &spectrum[start as usize..end as usize] {
            total += power(*c);
        }
    }
    (1.0 + total).ln()
}

/// Assembles the `tiles × NUM_FILTERS` feature matrix from per-filter
/// tile energies.
pub fn assemble_features(per_filter: &[Vec<(usize, f64)>], n_tiles: usize) -> Vec<f64> {
    let mut features = vec![0.0; n_tiles * NUM_FILTERS];
    for (f, tiles) in per_filter.iter().enumerate() {
        for (tile, energy) in tiles {
            if *tile < n_tiles {
                features[tile * NUM_FILTERS + f] = *energy;
            }
        }
    }
    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::mars_surface;
    use ree_sim::Fnv64;
    use std::hash::Hasher;

    #[test]
    fn horizontal_texture_excites_filter_zero() {
        // A pure horizontal grating: intensity varies along x.
        let size = 32;
        let pixels: Vec<f64> = (0..size * size).map(|i| ((i % size) as f64 * 1.2).sin()).collect();
        let img = Image { size, pixels };
        let f0 = filter_tiles(&img, 0, 0..16, 8);
        let f1 = filter_tiles(&img, 1, 0..16, 8);
        let e0: f64 = f0.iter().map(|(_, e)| e).sum();
        let e1: f64 = f1.iter().map(|(_, e)| e).sum();
        assert!(e0 > e1 * 1.5, "horizontal filter {e0} should beat vertical {e1}");
    }

    #[test]
    fn vertical_texture_excites_filter_one() {
        let size = 32;
        let pixels: Vec<f64> = (0..size * size).map(|i| ((i / size) as f64 * 1.2).sin()).collect();
        let img = Image { size, pixels };
        let e0: f64 = filter_tiles(&img, 0, 0..16, 8).iter().map(|(_, e)| e).sum();
        let e1: f64 = filter_tiles(&img, 1, 0..16, 8).iter().map(|(_, e)| e).sum();
        assert!(e1 > e0 * 1.5, "vertical filter {e1} should beat horizontal {e0}");
    }

    #[test]
    fn tile_ranges_partition_cleanly() {
        let img = mars_surface(64, 3);
        let all = filter_tiles(&img, 2, 0..64, 8);
        let first = filter_tiles(&img, 2, 0..32, 8);
        let second = filter_tiles(&img, 2, 32..64, 8);
        let glued: Vec<_> = first.into_iter().chain(second).collect();
        assert_eq!(all, glued);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let img = mars_surface(64, 9);
        let mut scratch = FilterScratch::new(8);
        for filter in 0..NUM_FILTERS {
            let pooled = filter_tiles_px(img.size, &img.pixels, filter, 0..64, &mut scratch);
            let fresh = filter_tiles(&img, filter, 0..64, 8);
            assert_eq!(pooled, fresh, "filter {filter}");
        }
    }

    #[test]
    fn assemble_orders_features_by_tile_then_filter() {
        let per_filter =
            vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 3.0), (1, 4.0)], vec![(0, 5.0), (1, 6.0)]];
        let f = assemble_features(&per_filter, 2);
        assert_eq!(f, vec![1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
    }

    const PINNED_8_0: &[(u32, u32)] = &[(1, 8), (11, 14), (59, 62)];
    const PINNED_8_1: &[(u32, u32)] =
        &[(8, 9), (16, 17), (24, 26), (31, 34), (39, 42), (47, 49), (56, 57)];
    const PINNED_8_2: &[(u32, u32)] =
        &[(9, 11), (14, 16), (17, 24), (26, 31), (34, 39), (42, 47), (49, 56), (57, 59), (62, 64)];
    /// `(span count, FNV-1a-64 of the span bounds)` per filter at size 64.
    const PINNED_64: [(usize, u64); NUM_FILTERS] =
        [(27, 0x85c5_f821_2090_0208), (63, 0xd4c7_8dbf_c736_2429), (89, 0x5d19_89e1_3089_2a05)];

    #[test]
    fn band_masks_are_pinned() {
        // Masks come from libm `atan2`; a libm whose rounding moved a bin
        // across a band edge would change every texture feature. Size 8
        // is pinned span by span, size 64 by span count and FNV-1a-64.
        let spans = |size, filter| BandMask::from_bins(&build_band_mask(size, filter)).spans;
        assert_eq!(spans(8, 0), PINNED_8_0);
        assert_eq!(spans(8, 1), PINNED_8_1);
        assert_eq!(spans(8, 2), PINNED_8_2);
        for (filter, pinned) in PINNED_64.into_iter().enumerate() {
            let got = spans(64, filter);
            let mut h = Fnv64::default();
            for word in got.iter().flat_map(|&(s, e)| [s, e]) {
                h.write(&word.to_le_bytes());
            }
            assert_eq!((got.len(), h.finish()), pinned, "size 64 filter {filter}");
        }
    }

    #[test]
    fn span_energy_is_bit_exact() {
        // The span encoding must reproduce the per-bin masked sum
        // bit-for-bit for every supported (size, filter) pair.
        let sizes = (1..).map(|e| 1usize << e).take_while(|&s| s <= 64);
        for size in sizes {
            for filter in 0..NUM_FILTERS {
                let bins = build_band_mask(size, filter);
                let mask = BandMask::from_bins(&bins);
                let spectrum: Vec<Complex> = (0..size * size)
                    .map(|i| ((i as f64 * 0.7).sin() * 9.0, (i as f64 * 1.3).cos() * 4.0))
                    .collect();
                let mut reference = 0.0;
                for (c, &in_band) in spectrum.iter().zip(&bins) {
                    if in_band {
                        reference += power(*c);
                    }
                }
                let reference = (1.0 + reference).ln();
                let got = oriented_energy(&spectrum, &mask);
                assert_eq!(got.to_bits(), reference.to_bits(), "size {size} filter {filter}");
            }
        }
    }

    #[test]
    fn masks_partition_most_bins_between_filters() {
        // Every non-DC bin belongs to at least one of the three bands
        // except bins sitting in the dead zones between band edges; the
        // three bands must not overlap.
        let size = 16;
        let m: Vec<Vec<bool>> = (0..NUM_FILTERS).map(|f| build_band_mask(size, f)).collect();
        for i in 0..size * size {
            let members = m.iter().filter(|mask| mask[i]).count();
            assert!(members <= 1, "bin {i} in {members} bands");
        }
        assert!(!m[0][0] && !m[1][0] && !m[2][0], "DC excluded everywhere");
    }

    #[test]
    fn features_separate_mars_quadrants() {
        // End-to-end sanity: features + kmeans recover the synthetic
        // ground truth reasonably well.
        let img = mars_surface(64, 11);
        let per_side = 64 / 8;
        let n_tiles = per_side * per_side;
        let per_filter: Vec<Vec<(usize, f64)>> =
            (0..NUM_FILTERS).map(|f| filter_tiles(&img, f, 0..n_tiles, 8)).collect();
        let features = assemble_features(&per_filter, n_tiles);
        let clustering = crate::kmeans::kmeans(&features, NUM_FILTERS, 4, 50);
        // Tiles inside one quadrant should mostly share a label.
        let quad_of_tile = |t: usize| {
            let row = (t / per_side) * 8;
            let col = (t % per_side) * 8;
            crate::synth::mars_region_of(64, row, col)
        };
        let mut agree = 0;
        let mut total = 0;
        for a in 0..n_tiles {
            for b in (a + 1)..n_tiles {
                let same_truth = quad_of_tile(a) == quad_of_tile(b);
                let same_label = clustering.labels[a] == clustering.labels[b];
                if same_truth == same_label {
                    agree += 1;
                }
                total += 1;
            }
        }
        let rand_index = agree as f64 / total as f64;
        assert!(rand_index > 0.75, "rand index {rand_index} too low");
    }
}
