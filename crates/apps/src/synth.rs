//! Synthetic instrument data.
//!
//! The real missions' data (Mars Rover camera frames, OTIS thermal
//! imagery) are unavailable; per the substitution rule we generate
//! deterministic synthetic equivalents that exercise the same code paths:
//! Mars surface images are piecewise-textured (distinct orientation and
//! frequency per region, so directional texture filters genuinely
//! separate them), and thermal frames have smooth temperature fields with
//! atmospheric attenuation applied per split-window band.
//!
//! # Campaign-shared inputs
//!
//! Input generation is a pure function of its parameters, and a campaign
//! re-runs the same scenario thousands of times — so the synthetic
//! inputs are identical across every run of a campaign (the per-run seed
//! perturbs fault injection and timing, **not** the instrument data).
//! [`mars_surface_shared`] and [`thermal_frame_shared`] memoize the
//! generated data process-wide behind `Arc`s keyed by the generation
//! parameters. Fault injection never mutates shared data:
//!
//! * **Share until flip** (texture): a rank's science heap holds the
//!   pristine pixels of the fault-free texture pipeline (the verifier's
//!   table, `verify::TextureTable`) as the same `Arc`, and `SciHeap::flip`
//!   unshares them with `Arc::make_mut` — the first flip into the image
//!   gives that rank its own copy, and the flip lands there. A rank whose
//!   image is still shared takes the table's results; the
//!   `a_flip_unshares_only_the_flipped_forks_image` test holds the promise.
//! * **Copy at load** (OTIS, the pipeline app): ranks clone the bands out
//!   of the shared frame into their heap.
//!
//! `Scenario::warm_inputs` pre-populates the caches (and the texture
//! table) before a campaign fans out across worker threads.

use ree_sim::SimRng;
use std::sync::{Arc, Mutex};

/// Bound on each shared-input cache (entries, not bytes). Campaigns use
/// a handful of inputs; the bound only matters for long-lived processes
/// sweeping many configurations.
const SHARED_CACHE_CAP: usize = 64;

/// A process-wide memo table: a mutex-guarded sorted small-vec from key
/// to `Arc`'d value. Lookup is a binary search; the lock is held only
/// for the lookup/insert (generation happens outside it, so two threads
/// may race to generate the same entry once — both get identical data).
/// Also backs the memoized verification reference in [`crate::verify`].
pub(crate) struct SharedCache<K, V: ?Sized> {
    entries: Mutex<Vec<(K, Arc<V>)>>,
}

impl<K: Ord + Copy, V: ?Sized> SharedCache<K, V> {
    pub(crate) const fn new() -> Self {
        SharedCache { entries: Mutex::new(Vec::new()) }
    }

    pub(crate) fn get_or_insert_with(&self, key: K, generate: impl FnOnce() -> Arc<V>) -> Arc<V> {
        {
            let entries = self.entries.lock().expect("shared-input cache poisoned");
            if let Ok(i) = entries.binary_search_by_key(&key, |(k, _)| *k) {
                return Arc::clone(&entries[i].1);
            }
        }
        let value = generate();
        let mut entries = self.entries.lock().expect("shared-input cache poisoned");
        match entries.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => Arc::clone(&entries[i].1), // lost the race; share the winner
            Err(_) => {
                if entries.len() >= SHARED_CACHE_CAP {
                    // Evict the smallest key — campaigns revisit a tiny
                    // working set, so any eviction policy is fine.
                    entries.remove(0);
                }
                let i = entries
                    .binary_search_by_key(&key, |(k, _)| *k)
                    .expect_err("key absent after miss");
                entries.insert(i, (key, Arc::clone(&value)));
                value
            }
        }
    }
}

/// A row-major square grayscale image.
#[derive(Clone, Debug, PartialEq)]
pub struct Image {
    /// Side length in pixels (power of two).
    pub size: usize,
    /// Pixel values.
    pub pixels: Vec<f64>,
}

impl Image {
    /// Serialises to little-endian bytes (stable-storage format).
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.pixels.len() * 8);
        out.extend_from_slice(&(self.size as u64).to_le_bytes());
        for p in &self.pixels {
            out.extend_from_slice(&p.to_le_bytes());
        }
        out
    }

    /// Parses the stable-storage format.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Option<Image> {
        if bytes.len() < 8 {
            return None;
        }
        let size = u64::from_le_bytes(bytes[..8].try_into().ok()?) as usize;
        if size == 0 || size > 4096 {
            return None;
        }
        let need = 8 + size * size * 8;
        if bytes.len() != need {
            return None;
        }
        let pixels = bytes[8..]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        Some(Image { size, pixels })
    }
}

/// Ground-truth region layout of a synthetic Mars image: quadrants with
/// distinct textures (the texture program's job is to recover this
/// segmentation).
pub fn mars_region_of(size: usize, row: usize, col: usize) -> usize {
    let half = size / 2;
    match (row < half, col < half) {
        (true, true) => 0,   // fine-grained rock, horizontal grain
        (true, false) => 1,  // coarse boulders, vertical grain
        (false, true) => 2,  // wind-rippled sand, diagonal grain
        (false, false) => 3, // smooth dust plain
    }
}

/// Generates a synthetic Mars surface image: four textured quadrants
/// (orientation/frequency differ per region) plus correlated noise.
pub fn mars_surface(size: usize, seed: u64) -> Image {
    assert!(size.is_power_of_two(), "image size must be a power of two");
    let mut rng = SimRng::new(seed ^ 0x4d41_5253); // "MARS"
    let mut pixels = vec![0.0; size * size];
    for row in 0..size {
        for col in 0..size {
            let (fx, fy, amp, base) = match mars_region_of(size, row, col) {
                0 => (0.9, 0.05, 1.0, 0.3),
                1 => (0.05, 0.45, 1.2, 0.5),
                2 => (0.35, 0.35, 0.8, 0.4),
                _ => (0.02, 0.02, 0.15, 0.6),
            };
            let x = col as f64;
            let y = row as f64;
            let texture = (fx * x).sin() * (fy * y).cos() * amp;
            let noise = (rng.f64() - 0.5) * 0.2;
            pixels[row * size + col] = base + texture + noise;
        }
    }
    Image { size, pixels }
}

/// [`mars_surface`] through the campaign-shared input cache: the image
/// for a given `(size, seed)` is generated once per process and every
/// caller receives the same `Arc`. Nothing mutates it: the texture
/// table copies the pixels once per process, and science heaps share
/// that copy until a flip unshares it (module docs).
///
/// ```
/// use ree_apps::synth::{mars_surface, mars_surface_shared};
/// let a = mars_surface_shared(32, 7);
/// let b = mars_surface_shared(32, 7);
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(*a, mars_surface(32, 7));
/// ```
pub fn mars_surface_shared(size: usize, seed: u64) -> std::sync::Arc<Image> {
    static CACHE: SharedCache<(usize, u64), Image> = SharedCache::new();
    CACHE.get_or_insert_with((size, seed), || Arc::new(mars_surface(size, seed)))
}

/// One OTIS thermal frame: two split-window band radiances plus the
/// ground-truth surface temperature field used by verification.
#[derive(Clone, Debug)]
pub struct ThermalFrame {
    /// Side length in pixels.
    pub size: usize,
    /// Band-11 µm radiance-equivalent brightness temperatures (K).
    pub band11: Vec<f64>,
    /// Band-12 µm radiance-equivalent brightness temperatures (K).
    pub band12: Vec<f64>,
    /// True surface temperature (K) — synthetic ground truth.
    pub truth: Vec<f64>,
}

/// Generates a synthetic thermal frame with a smooth temperature field
/// and band-dependent atmospheric attenuation (water-vapour path).
pub fn thermal_frame(size: usize, seed: u64, frame_index: u32) -> ThermalFrame {
    let mut rng = SimRng::new(seed ^ 0x4f54_4953 ^ (frame_index as u64) << 32); // "OTIS"
    let n = size * size;
    let mut truth = vec![0.0; n];
    let mut band11 = vec![0.0; n];
    let mut band12 = vec![0.0; n];
    // Smooth temperature field: blobs + gradient.
    let cx = size as f64 * (0.3 + 0.4 * rng.f64());
    let cy = size as f64 * (0.3 + 0.4 * rng.f64());
    let wv = 1.0 + 2.0 * rng.f64(); // water-vapour burden (g/cm^2)
    for row in 0..size {
        for col in 0..size {
            let x = col as f64;
            let y = row as f64;
            let d2 = ((x - cx).powi(2) + (y - cy).powi(2)) / (size as f64).powi(2);
            let t = 285.0 + 18.0 * (-6.0 * d2).exp() + 0.02 * y + (rng.f64() - 0.5);
            truth[row * size + col] = t;
            // Split-window physics (simplified): band-dependent
            // attenuation proportional to water vapour; band 12 is
            // attenuated more than band 11.
            band11[row * size + col] = t - 1.2 * wv - 0.4;
            band12[row * size + col] = t - 2.1 * wv - 0.6;
        }
    }
    ThermalFrame { size, band11, band12, truth }
}

/// [`thermal_frame`] through the campaign-shared input cache (see
/// [`mars_surface_shared`]). The OTIS ranks clone band vectors out of
/// the shared frame into their mutable science heap; the verifier reads
/// the shared frame directly.
pub fn thermal_frame_shared(size: usize, seed: u64, frame_index: u32) -> Arc<ThermalFrame> {
    static CACHE: SharedCache<(usize, u64, u32), ThermalFrame> = SharedCache::new();
    CACHE.get_or_insert_with((size, seed, frame_index), || {
        Arc::new(thermal_frame(size, seed, frame_index))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Image {
        /// Pixel accessor.
        fn at(&self, row: usize, col: usize) -> f64 {
            self.pixels[row * self.size + col]
        }
    }

    #[test]
    fn mars_image_is_deterministic() {
        let a = mars_surface(32, 7);
        let b = mars_surface(32, 7);
        assert_eq!(a, b);
        let c = mars_surface(32, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn mars_regions_cover_quadrants() {
        assert_eq!(mars_region_of(64, 0, 0), 0);
        assert_eq!(mars_region_of(64, 0, 63), 1);
        assert_eq!(mars_region_of(64, 63, 0), 2);
        assert_eq!(mars_region_of(64, 63, 63), 3);
    }

    #[test]
    fn image_bytes_roundtrip() {
        let img = mars_surface(16, 3);
        let back = Image::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn image_bytes_rejects_garbage() {
        assert!(Image::from_bytes(&[1, 2, 3]).is_none());
        let mut bytes = mars_surface(16, 3).to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(Image::from_bytes(&bytes).is_none());
    }

    #[test]
    fn quadrants_have_distinct_texture_statistics() {
        let img = mars_surface(64, 5);
        // Mean absolute horizontal gradient differs between the
        // fine-grained quadrant (0) and the smooth plain (3).
        let grad = |r0: usize, c0: usize| {
            let mut total = 0.0;
            for r in r0..r0 + 31 {
                for c in c0..c0 + 31 {
                    total += (img.at(r, c + 1) - img.at(r, c)).abs();
                }
            }
            total / (31.0 * 31.0)
        };
        let fine = grad(0, 0);
        let smooth = grad(32, 32);
        assert!(fine > smooth * 2.0, "fine {fine} vs smooth {smooth}");
    }

    #[test]
    fn thermal_bands_are_attenuated_consistently() {
        let f = thermal_frame(32, 9, 0);
        for i in 0..f.truth.len() {
            assert!(f.band11[i] < f.truth[i], "band 11 must be attenuated");
            assert!(f.band12[i] < f.band11[i], "band 12 attenuated more than band 11");
        }
    }

    #[test]
    fn thermal_frames_differ_by_index() {
        let a = thermal_frame(32, 9, 0);
        let b = thermal_frame(32, 9, 1);
        assert_ne!(a.truth, b.truth);
    }

    #[test]
    fn shared_thermal_frame_matches_direct_generation() {
        let shared = thermal_frame_shared(16, 21, 2);
        let direct = thermal_frame(16, 21, 2);
        assert_eq!(shared.truth, direct.truth);
        assert_eq!(shared.band11, direct.band11);
        assert!(Arc::ptr_eq(&shared, &thermal_frame_shared(16, 21, 2)));
    }

    #[test]
    fn shared_cache_is_bounded_and_still_correct_after_eviction() {
        // Push well past the cap with distinct seeds, then confirm an
        // evicted entry regenerates identically.
        let first = mars_surface_shared(8, 1_000_000);
        let first_copy = Image { size: first.size, pixels: first.pixels.clone() };
        for seed in 1_000_001..1_000_200u64 {
            let _ = mars_surface_shared(8, seed);
        }
        let again = mars_surface_shared(8, 1_000_000);
        assert_eq!(*again, first_copy);
    }
}
