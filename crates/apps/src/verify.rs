//! Output verification — the paper's "external application-provided
//! verification program" that decides whether a run "produced output that
//! falls outside acceptable tolerance limits" (§4.2).
//!
//! Verification recomputes the fault-free reference locally (inputs are
//! deterministic; the texture reference is computed once per process, in
//! `TextureTable`) and compares:
//!
//! * **texture**: segmentation agreement via the Rand index (label
//!   permutations do not matter) with a tolerance for single-tile noise;
//! * **OTIS**: products must decompress losslessly and the retrieved
//!   temperatures must match the reference within quantisation error.

use crate::compress::{decompress, dequantize};
use crate::filters::{assemble_features, filter_tiles, NUM_FILTERS};
use crate::kmeans::kmeans;
use crate::otis::{otis_frame_seed, split_window_retrieve};
use crate::pipeline::{pipeline_frame_seed, radiometric_calibrate};
use crate::synth::{mars_surface_shared, thermal_frame_shared, SharedCache};
use crate::texture::texture_image_seed;
use ree_os::RemoteFs;
use std::sync::Arc;

/// Verdict of the verification program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Output present and within tolerance.
    Correct,
    /// Output present but outside tolerance limits.
    Incorrect,
    /// Output missing (the application did not complete).
    Missing,
}

/// Computes the Rand index between two labelings (pair-counting
/// agreement; invariant to label permutation).
pub fn rand_index(a: &[u8], b: &[u8]) -> f64 {
    assert_eq!(a.len(), b.len(), "labelings must have equal length");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut agree = 0u64;
    let mut total = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            let same_a = a[i] == a[j];
            let same_b = b[i] == b[j];
            if same_a == same_b {
                agree += 1;
            }
            total += 1;
        }
    }
    agree as f64 / total as f64
}

/// The fault-free texture pipeline over one input image, computed once
/// per process: the only place that pipeline runs unperturbed.
///
/// It is a pure function of `(image seed, image_px, tile_px, clusters)`
/// — the app name/slot/image triple only feeds the seed — and every run
/// of a campaign analyses the same image, so `texture_table` memoizes
/// it process-wide. The verifier reads its labels. A texture rank takes
/// from it each tile energy, and the labels, whose inputs are bit for
/// bit the pristine ones, and runs the kernels only where a flip changed
/// an input (`texture.rs`).
pub(crate) struct TextureTable {
    /// The pristine image's pixels. A rank's science heap shares them
    /// until a flip unshares its copy.
    pub(crate) pixels: Arc<Vec<f64>>,
    /// The image's stable-storage encoding (`Image::to_bytes`); every run
    /// stores this one buffer.
    pub(crate) encoded: Arc<Vec<u8>>,
    /// `energies[filter][tile]`: each filter's energy of every tile.
    pub(crate) energies: Vec<Vec<f64>>,
    /// The `tiles × NUM_FILTERS` feature matrix k-means segments.
    pub(crate) features: Vec<f64>,
    /// The reference segmentation, one label per tile.
    pub(crate) labels: Arc<Vec<u8>>,
}

/// The [`TextureTable`] of one texture input, from the process-wide memo.
///
/// # Panics
///
/// Panics where the pipeline does: a `tile_px` that is not a power of
/// two, or fewer tiles than `clusters`.
pub(crate) fn texture_table(
    seed: u64,
    image_px: usize,
    tile_px: usize,
    clusters: usize,
) -> Arc<TextureTable> {
    type Key = (u64, usize, usize, usize);
    static CACHE: SharedCache<Key, TextureTable> = SharedCache::new();
    CACHE.get_or_insert_with((seed, image_px, tile_px, clusters), || {
        let image = mars_surface_shared(image_px, seed);
        let per_side = image_px / tile_px;
        let n_tiles = per_side * per_side;
        let per_filter: Vec<Vec<(usize, f64)>> =
            (0..NUM_FILTERS).map(|f| filter_tiles(&image, f, 0..n_tiles, tile_px)).collect();
        let features = assemble_features(&per_filter, n_tiles);
        let clustering = kmeans(&features, NUM_FILTERS, clusters, 50);
        Arc::new(TextureTable {
            pixels: Arc::new(image.pixels.clone()),
            encoded: Arc::new(image.to_bytes()),
            energies: per_filter
                .into_iter()
                .map(|tiles| tiles.into_iter().map(|(_, energy)| energy).collect())
                .collect(),
            features,
            labels: Arc::new(clustering.labels.iter().map(|&l| l as u8).collect()),
        })
    })
}

/// Verifies one texture image's output against the reference.
///
/// Tolerance: Rand index ≥ 0.98 (a single stray tile passes; systematic
/// mis-segmentation fails).
pub fn verify_texture(
    fs: &RemoteFs,
    app: &str,
    slot: u32,
    image: u32,
    image_px: usize,
    tile_px: usize,
    clusters: usize,
) -> Verdict {
    let path = format!("output/{app}/s{slot}/img{image}");
    let Some(labels) = fs.peek(&path) else { return Verdict::Missing };
    let table = texture_table(texture_image_seed(app, slot, image), image_px, tile_px, clusters);
    let reference = table.labels.as_slice();
    if labels.len() != reference.len() {
        return Verdict::Incorrect;
    }
    if rand_index(labels, reference) >= 0.98 {
        Verdict::Correct
    } else {
        Verdict::Incorrect
    }
}

/// Verifies one OTIS frame product: lossless decode plus temperature
/// accuracy within quantisation resolution.
pub(crate) fn verify_otis(
    fs: &RemoteFs,
    app: &str,
    slot: u32,
    frame: u32,
    frame_px: usize,
) -> Verdict {
    let reference = thermal_frame_shared(frame_px, otis_frame_seed(app, slot), frame);
    let expect = reference
        .band11
        .iter()
        .zip(&reference.band12)
        .map(|(&b11, &b12)| split_window_retrieve(b11, b12));
    verify_product(fs, &format!("output/{app}/s{slot}/frame{frame}"), expect)
}

/// Verifies one pipeline frame product: lossless decode plus calibrated
/// radiance within quantisation resolution of the fault-free pipeline
/// (`radiometric_calibrate` over the reference frame).
pub fn verify_pipeline(
    fs: &RemoteFs,
    app: &str,
    slot: u32,
    frame: u32,
    frame_px: usize,
) -> Verdict {
    let reference = thermal_frame_shared(frame_px, pipeline_frame_seed(app, slot), frame);
    let expect = radiometric_calibrate(&reference.band11).into_iter();
    verify_product(fs, &format!("output/{app}/s{slot}/pframe{frame}"), expect)
}

/// A compressed product decodes losslessly and matches `expect` value
/// for value. Quantisation is centi-unit (centi-Kelvin for OTIS); 0.02
/// slack is allowed.
fn verify_product(
    fs: &RemoteFs,
    path: &str,
    expect: impl ExactSizeIterator<Item = f64>,
) -> Verdict {
    let Some(product) = fs.peek(path) else { return Verdict::Missing };
    let Ok(quantised) = decompress(product) else { return Verdict::Incorrect };
    let values = dequantize(&quantised);
    if values.len() != expect.len() {
        return Verdict::Incorrect;
    }
    let worst = values.iter().zip(expect).fold(0.0f64, |worst, (v, e)| worst.max((v - e).abs()));
    if worst <= 0.02 {
        Verdict::Correct
    } else {
        Verdict::Incorrect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::thermal_frame;

    /// The reference segmentation of one texture image.
    fn texture_reference(
        app: &str,
        slot: u32,
        image: u32,
        image_px: usize,
        tile_px: usize,
        clusters: usize,
    ) -> Vec<u8> {
        let seed = texture_image_seed(app, slot, image);
        texture_table(seed, image_px, tile_px, clusters).labels.to_vec()
    }

    #[test]
    fn rand_index_of_identical_labelings_is_one() {
        let a = vec![0, 0, 1, 1, 2];
        assert_eq!(rand_index(&a, &a), 1.0);
    }

    #[test]
    fn rand_index_is_permutation_invariant() {
        let a = vec![0, 0, 1, 1, 2, 2];
        let b = vec![2, 2, 0, 0, 1, 1];
        assert_eq!(rand_index(&a, &b), 1.0);
    }

    #[test]
    fn rand_index_penalises_disagreement() {
        let a = vec![0, 0, 0, 0];
        let b = vec![0, 0, 1, 1];
        assert!(rand_index(&a, &b) < 0.8);
    }

    #[test]
    fn texture_reference_is_deterministic() {
        let a = texture_reference("texture", 0, 0, 32, 8, 4);
        let b = texture_reference("texture", 0, 0, 32, 8, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn missing_output_is_reported() {
        let fs = RemoteFs::new();
        assert_eq!(verify_texture(&fs, "texture", 0, 0, 32, 8, 4), Verdict::Missing);
        assert_eq!(verify_otis(&fs, "otis", 0, 0, 16), Verdict::Missing);
    }

    #[test]
    fn correct_texture_output_passes() {
        let mut fs = RemoteFs::new();
        let reference = texture_reference("texture", 0, 0, 32, 8, 4);
        fs.write("output/texture/s0/img0", reference);
        assert_eq!(verify_texture(&fs, "texture", 0, 0, 32, 8, 4), Verdict::Correct);
    }

    #[test]
    fn corrupted_texture_output_fails() {
        let mut fs = RemoteFs::new();
        let mut labels = texture_reference("texture", 0, 0, 32, 8, 4);
        // Scramble half the labels.
        for l in labels.iter_mut().take(8) {
            *l = (*l + 1) % 4;
        }
        fs.write("output/texture/s0/img0", labels);
        assert_eq!(verify_texture(&fs, "texture", 0, 0, 32, 8, 4), Verdict::Incorrect);
    }

    #[test]
    fn correct_otis_product_passes() {
        use crate::compress::{compress, quantize};
        let mut fs = RemoteFs::new();
        let frame = thermal_frame(16, otis_frame_seed("otis", 0), 3);
        let temps: Vec<f64> = frame
            .band11
            .iter()
            .zip(&frame.band12)
            .map(|(&a, &b)| split_window_retrieve(a, b))
            .collect();
        fs.write("output/otis/s0/frame3", compress(&quantize(&temps)));
        assert_eq!(verify_otis(&fs, "otis", 0, 3, 16), Verdict::Correct);
    }

    #[test]
    fn correct_pipeline_product_passes() {
        use crate::compress::{compress, quantize};
        let mut fs = RemoteFs::new();
        let frame = thermal_frame(16, pipeline_frame_seed("imgpipe", 0), 2);
        let calibrated = radiometric_calibrate(&frame.band11);
        fs.write("output/imgpipe/s0/pframe2", compress(&quantize(&calibrated)));
        assert_eq!(verify_pipeline(&fs, "imgpipe", 0, 2, 16), Verdict::Correct);
    }

    #[test]
    fn corrupted_pipeline_product_fails() {
        use crate::compress::{compress, quantize};
        let mut fs = RemoteFs::new();
        let frame = thermal_frame(16, pipeline_frame_seed("imgpipe", 0), 0);
        let mut calibrated = radiometric_calibrate(&frame.band11);
        calibrated[7] += 40.0;
        fs.write("output/imgpipe/s0/pframe0", compress(&quantize(&calibrated)));
        assert_eq!(verify_pipeline(&fs, "imgpipe", 0, 0, 16), Verdict::Incorrect);
        assert_eq!(verify_pipeline(&fs, "imgpipe", 0, 1, 16), Verdict::Missing);
    }

    #[test]
    fn garbled_otis_product_fails() {
        let mut fs = RemoteFs::new();
        fs.write("output/otis/s0/frame0", vec![0xFF, 0x12, 0x55]);
        assert_eq!(verify_otis(&fs, "otis", 0, 0, 16), Verdict::Incorrect);
    }
}
