//! The application heap model: real science data exposed to bit flips.
//!
//! Table 10's result — 981 of 1,000 heap flips had no effect because
//! "data on the heap were mostly floating point matrices, and single-bit
//! flips in floating point variables often did not substantially change
//! the value (only the precision)" — requires that injections land in the
//! *actual* `f64`s the pipeline computes with. A small control block
//! (dimensions, a status-block pointer) models the non-matrix heap whose
//! corruption crashes the process.

use ree_os::{FieldKind, HeapHit, HeapTarget};
use ree_sim::SimRng;
use std::sync::Arc;

/// Alignment valid status-block pointers satisfy.
const APP_PTR_ALIGN: u64 = 4096;

/// Chance of a flip landing in the control block instead of the
/// matrices (the matrices dominate the real heap).
const CTRL_WEIGHT: f64 = 0.012;

/// Science-process heap: matrices plus a control block.
#[derive(Clone, Debug)]
pub(crate) struct SciHeap {
    /// The working image (row-major pixels). A texture rank shares it
    /// with the pristine input until a flip lands in it: [`SciHeap::flip`]
    /// unshares it (`Arc::make_mut`), so a run's flips never reach
    /// another run.
    pub image: Arc<Vec<f64>>,
    /// The accumulated feature matrix.
    pub features: Vec<f64>,
    /// Expected image width (pixels).
    pub width: u64,
    /// Expected image height (pixels).
    pub height: u64,
    /// Pointer to the SIFT status block (must stay aligned).
    pub status_ptr: u64,
    /// Current work-item index.
    pub cursor: u64,
}

impl SciHeap {
    /// Creates an empty heap for a `side`×`side` image.
    pub(crate) fn new(side: u64) -> Self {
        SciHeap {
            image: Arc::default(),
            features: Vec::new(),
            width: side,
            height: side,
            status_ptr: 16 * APP_PTR_ALIGN,
            cursor: 0,
        }
    }

    /// True if the status-block pointer was corrupted — dereferencing it
    /// crashes the process.
    pub(crate) fn ptr_fault(&self) -> bool {
        !self.status_ptr.is_multiple_of(APP_PTR_ALIGN)
    }

    /// True if the recorded dimensions no longer match `side` — indexing
    /// with them faults.
    pub(crate) fn dims_fault(&self, side: u64) -> bool {
        self.width != side || self.height != side
    }

    /// Flips one bit according to `target`; mirrors the ARMOR heap-model
    /// contract.
    pub(crate) fn flip(&mut self, rng: &mut SimRng, target: &HeapTarget) -> Option<HeapHit> {
        let allow_ptr = matches!(target, HeapTarget::Any);
        let want_region = match target {
            HeapTarget::Region(name) => Some(name.as_str()),
            _ => None,
        };
        // Pick a region: control block with small fixed probability,
        // otherwise matrices weighted by element count.
        let in_ctrl = match want_region {
            Some("ctrl") => true,
            Some(_) => false,
            None => rng.chance(CTRL_WEIGHT),
        };
        if in_ctrl {
            let mut slots: Vec<&str> = vec!["width", "height", "cursor"];
            if allow_ptr {
                slots.push("status_ptr");
            }
            let slot = slots[rng.index(slots.len())];
            let bit = rng.below(64);
            let (field, kind) = match slot {
                "width" => {
                    self.width ^= 1 << bit.min(31);
                    ("ctrl/width", FieldKind::Data)
                }
                "height" => {
                    self.height ^= 1 << bit.min(31);
                    ("ctrl/height", FieldKind::Data)
                }
                "cursor" => {
                    self.cursor ^= 1 << bit.min(31);
                    ("ctrl/cursor", FieldKind::Data)
                }
                _ => {
                    self.status_ptr ^= 1 << bit.min(31);
                    ("ctrl/status_ptr", FieldKind::Pointer)
                }
            };
            return Some(HeapHit { region: "ctrl".into(), field: field.into(), kind });
        }
        let image_len = self.image.len();
        let feat_len = self.features.len();
        let total = image_len + feat_len;
        if total == 0 {
            return None;
        }
        let idx = rng.index(total);
        let bit = rng.below(64);
        let (region, field, value) = if idx < image_len {
            ("image", format!("image/{idx}"), &mut Arc::make_mut(&mut self.image)[idx])
        } else {
            (
                "features",
                format!("features/{}", idx - image_len),
                &mut self.features[idx - image_len],
            )
        };
        *value = f64::from_bits(value.to_bits() ^ (1 << bit));
        Some(HeapHit { region: region.into(), field, kind: FieldKind::Data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap_with_data() -> SciHeap {
        let mut h = SciHeap::new(8);
        h.image = Arc::new(vec![0.5; 64]);
        h.features = vec![1.0; 12];
        h
    }

    #[test]
    fn fresh_heap_has_no_faults() {
        let h = SciHeap::new(8);
        assert!(!h.ptr_fault());
        assert!(!h.dims_fault(8));
    }

    #[test]
    fn most_flips_hit_matrices() {
        let mut h = heap_with_data();
        let mut rng = SimRng::new(1);
        let mut matrix_hits = 0;
        for _ in 0..1000 {
            let hit = h.flip(&mut rng, &HeapTarget::Any).unwrap();
            if hit.region != "ctrl" {
                matrix_hits += 1;
            }
        }
        assert!(matrix_hits > 950, "matrix hits {matrix_hits}/1000");
    }

    #[test]
    fn ctrl_flips_cause_detectable_faults() {
        let mut rng = SimRng::new(2);
        let mut ptr_faults = 0;
        let mut dim_faults = 0;
        for _ in 0..200 {
            let mut h = heap_with_data();
            let hit = h.flip(&mut rng, &HeapTarget::Region("ctrl".into())).unwrap();
            assert_eq!(hit.region, "ctrl");
            if h.ptr_fault() {
                ptr_faults += 1;
            }
            if h.dims_fault(8) {
                dim_faults += 1;
            }
        }
        // Region("ctrl") targets data only, so no pointer faults, but
        // width/height flips must fault.
        assert_eq!(ptr_faults, 0);
        assert!(dim_faults > 50, "dim faults {dim_faults}");
    }

    #[test]
    fn any_target_can_corrupt_the_pointer() {
        let mut rng = SimRng::new(3);
        let mut ptr_faults = 0;
        for _ in 0..3000 {
            let mut h = heap_with_data();
            let _ = h.flip(&mut rng, &HeapTarget::Any);
            if h.ptr_fault() {
                ptr_faults += 1;
            }
        }
        assert!(ptr_faults > 0, "pointer must occasionally be hit");
        assert!(ptr_faults < 60, "but rarely ({ptr_faults}/3000)");
    }

    #[test]
    fn matrix_flip_changes_exactly_one_bit() {
        let mut h = heap_with_data();
        let mut rng = SimRng::new(4);
        // The heap shares its image with `before_img`; the flip unshares it.
        let before_img = Arc::clone(&h.image);
        let before_feat = h.features.clone();
        // Force a matrix hit by retrying until not ctrl.
        loop {
            let hit = h.flip(&mut rng, &HeapTarget::DataOnly).unwrap();
            if hit.region == "ctrl" {
                continue;
            }
            break;
        }
        let img_bits: u32 = h
            .image
            .iter()
            .zip(before_img.iter())
            .map(|(a, b)| (a.to_bits() ^ b.to_bits()).count_ones())
            .sum();
        let feat_bits: u32 = h
            .features
            .iter()
            .zip(&before_feat)
            .map(|(a, b)| (a.to_bits() ^ b.to_bits()).count_ones())
            .sum();
        assert_eq!(img_bits + feat_bits, 1);
    }

    #[test]
    fn empty_heap_flip_returns_none_for_matrices() {
        let mut h = SciHeap::new(8);
        let mut rng = SimRng::new(77);
        // With no matrix data, non-ctrl flips return None.
        let mut any_none = false;
        for _ in 0..50 {
            if h.flip(&mut rng, &HeapTarget::DataOnly).is_none() {
                any_none = true;
            }
        }
        assert!(any_none);
    }
}
