//! Microcheckpointing (§3.4, Figure 4, and \[36\]).
//!
//! "Microcheckpointing leverages the modular element composition of the
//! ARMOR process to incrementally checkpoint state on an
//! element-by-element basis. After each event delivery, the state of the
//! affected element is copied to a checkpoint buffer within the ARMOR
//! process. Each element is assigned a disjoint region within the
//! checkpoint buffer. … When the ARMOR decides to make the checkpoint
//! permanent, it copies the checkpoint buffer to stable storage."
//!
//! Two properties matter for the paper's results and are enforced here:
//!
//! 1. **Only the element that processed the event is snapshotted.**
//!    Incidental corruption of *other* elements is not captured, so a
//!    clean copy survives in the buffer — why assertions + rollback
//!    prevented 58% of would-be system failures (Table 9).
//! 2. **Commit happens on every message transmission**, keeping the
//!    global checkpoint set consistent so a single process rolls back.

use crate::wire::{
    decode_fields, encode_fields_into, put_run, take_run, take_string, take_u32, DecodeError,
};
use crate::Fields;
use ree_sim::Sink;
use std::sync::Arc;

/// The in-process checkpoint buffer: one disjoint region per element,
/// with an **incrementally maintained** stable-storage image.
///
/// Two commit-path costs used to scale with total state size on every
/// reliable ARMOR send: re-encoding the touched element and rebuilding
/// the whole stable-storage image. Both are now incremental:
///
/// * [`CheckpointBuffer::update`] encodes into a reusable scratch buffer
///   and, when the encoded bytes equal the region's current image (the
///   element processed an event without changing state), skips the copy
///   and leaves the region clean.
/// * [`CheckpointBuffer::encode`] keeps the assembled image from the
///   previous commit and patches only dirty regions in place. Region
///   offsets are stable because regions are disjoint and fixed at
///   construction; only a region changing *length* forces a full
///   rebuild (which also refreshes every offset).
///
/// The assembled image is **shared**, not copied, with whoever commits
/// it: `encode` hands out the `Arc` the buffer itself holds, so the RAM
/// disk's file, this buffer and every snapshot fork of either point at
/// one allocation. A commit with no dirty region is a refcount bump; a
/// dirty one patches through [`Arc::make_mut`], which is the single
/// point where the buffer unshares from stable storage and from forks —
/// an image already handed out is never written to.
///
/// Regions are addressed by construction-order index: the per-event
/// path passes the element's position, and only by-name callers pay the
/// sorted-table lookup.
#[derive(Debug, Default)]
pub struct CheckpointBuffer {
    regions: Vec<Region>,
    /// Sorted `(element name, region index)` lookup table, fixed at
    /// construction and shared by every fork.
    by_name: Arc<[(&'static str, u32)]>,
    /// The assembled stable-storage image as of the last commit
    /// (empty until the first commit).
    assembled: Arc<Vec<u8>>,
    /// True when a region's image changed length since the last commit,
    /// invalidating every cached offset.
    needs_rebuild: bool,
    /// Reusable per-update encode scratch.
    scratch: Vec<u8>,
    updates: u64,
    clean_updates: u64,
    commits: u64,
    patched_commits: u64,
}

impl Clone for CheckpointBuffer {
    fn clone(&self) -> Self {
        CheckpointBuffer {
            regions: self.regions.clone(),
            by_name: Arc::clone(&self.by_name),
            assembled: Arc::clone(&self.assembled),
            needs_rebuild: self.needs_rebuild,
            // Contents are dead between updates: a fork grows its own.
            scratch: Vec::new(),
            updates: self.updates,
            clean_updates: self.clean_updates,
            commits: self.commits,
            patched_commits: self.patched_commits,
        }
    }
}

#[derive(Debug, Clone)]
struct Region {
    element: &'static str,
    image: Vec<u8>,
    /// Byte offset of `image` within `assembled` (valid while
    /// `needs_rebuild` is false and `assembled` is non-empty).
    offset: usize,
    /// Image changed since the last commit.
    dirty: bool,
}

impl CheckpointBuffer {
    /// Creates a buffer with one region per element name, seeded from the
    /// provided initial states.
    pub fn new<'a>(elements: impl IntoIterator<Item = (&'static str, &'a Fields)>) -> Self {
        let mut scratch = Vec::with_capacity(256);
        let regions: Vec<Region> = elements
            .into_iter()
            .map(|(name, state)| {
                scratch.clear();
                encode_fields_into(state, &mut scratch);
                Region { element: name, image: scratch.to_vec(), offset: 0, dirty: true }
            })
            .collect();
        let mut by_name: Vec<(&'static str, u32)> =
            regions.iter().enumerate().map(|(i, r)| (r.element, i as u32)).collect();
        // Duplicate names keep construction order within the sorted
        // table (the index breaks the tie), so the *first* constructed
        // region wins lookups — matching the old linear scan's semantics.
        by_name.sort();
        by_name.dedup_by(|later, first| later.0 == first.0);
        CheckpointBuffer {
            regions,
            by_name: by_name.into(),
            assembled: Arc::default(),
            needs_rebuild: true,
            scratch,
            updates: 0,
            clean_updates: 0,
            commits: 0,
            patched_commits: 0,
        }
    }

    /// Looks up a region by element name (sorted table, no linear
    /// `String` scan). With duplicate names the first constructed wins.
    pub(crate) fn region_index(&self, element: &str) -> Option<usize> {
        self.by_name
            .binary_search_by(|(name, _)| (*name).cmp(element))
            .ok()
            .map(|i| self.by_name[i].1 as usize)
    }

    /// Copies `state` into the region of `element`, by name. Returns
    /// `false` if the element is unknown.
    ///
    /// Re-encoding into a reusable scratch buffer, the update is a no-op
    /// (region stays clean for the next commit) when the encoded image
    /// is byte-identical to the region's current one.
    pub fn update(&mut self, element: &str, state: &Fields) -> bool {
        let Some(region) = self.region_index(element) else { return false };
        self.update_at(region, state);
        true
    }

    fn update_at(&mut self, region: usize, state: &Fields) {
        self.updates += 1;
        self.scratch.clear();
        encode_fields_into(state, &mut self.scratch);
        let region = &mut self.regions[region];
        if region.image.as_slice() == &self.scratch[..] {
            self.clean_updates += 1;
            return;
        }
        if region.image.len() != self.scratch.len() {
            self.needs_rebuild = true;
        }
        region.image.clear();
        region.image.extend_from_slice(&self.scratch);
        region.dirty = true;
    }

    /// The per-event microcheckpoint step: [`CheckpointBuffer::update`]
    /// of region `region` (construction order), skipping the encode when
    /// `state` is provably what the region already holds. It takes the
    /// state's dirty mark and, if no mutating entry point of [`Fields`]
    /// ran since the mark was last taken, only counts a clean update.
    ///
    /// The caller owns the pairing: nothing else may take `state`'s
    /// dirty mark, and one state goes to one region. The ARMOR runtime
    /// keeps it by construction — one buffer per process, one region
    /// per element.
    ///
    /// # Panics
    ///
    /// If `region` is not one of the buffer's regions.
    pub fn microcheckpoint(&mut self, region: usize, state: &mut Fields) {
        if state.take_dirty() {
            self.update_at(region, state);
        } else {
            assert!(region < self.regions.len(), "no checkpoint region {region}");
            self.updates += 1;
            self.clean_updates += 1;
        }
    }

    /// The current image of one region (for tests/inspection).
    pub fn region_image(&self, element: &str) -> Option<&[u8]> {
        self.region_index(element).map(|i| self.regions[i].image.as_slice())
    }

    /// Serialises the whole buffer into a stable-storage image, shared
    /// with the buffer's own cached copy.
    ///
    /// Incremental: the image assembled at the previous commit is kept,
    /// and only regions whose state changed since then are re-written
    /// into their (stable) spans — copying the image first if the
    /// previous commit's holder still shares it. A region that changed
    /// length triggers a full rebuild.
    pub fn encode(&mut self) -> Arc<Vec<u8>> {
        self.commits += 1;
        if self.needs_rebuild || self.assembled.is_empty() {
            self.rebuild_assembled();
        } else {
            self.patched_commits += 1;
            if self.regions.iter().any(|r| r.dirty) {
                let assembled = Arc::make_mut(&mut self.assembled);
                for region in self.regions.iter_mut().filter(|r| r.dirty) {
                    assembled[region.offset..region.offset + region.image.len()]
                        .copy_from_slice(&region.image);
                    region.dirty = false;
                }
            }
        }
        Arc::clone(&self.assembled)
    }

    /// Rebuilds the assembled image from scratch, refreshing every
    /// region's cached offset.
    fn rebuild_assembled(&mut self) {
        let total: usize =
            4 + self.regions.iter().map(|r| 8 + r.element.len() + r.image.len()).sum::<usize>();
        // Reuse the allocation only if nobody else holds the old image.
        let mut buf = Arc::try_unwrap(std::mem::take(&mut self.assembled)).unwrap_or_default();
        buf.clear();
        buf.reserve(total);
        buf.put_u32(self.regions.len() as u32);
        for region in &mut self.regions {
            put_run(&mut buf, region.element.as_bytes());
            buf.put_u32(region.image.len() as u32);
            region.offset = buf.len();
            buf.put_bytes(&region.image);
            region.dirty = false;
        }
        self.assembled = Arc::new(buf);
        self.needs_rebuild = false;
    }

    /// Decodes a stable-storage image into `(element, state)` pairs.
    ///
    /// # Errors
    ///
    /// Fails on truncated or structurally invalid images — the caller
    /// treats this as "no usable checkpoint" and cold-starts.
    pub fn decode(image: &[u8]) -> Result<Vec<(String, Fields)>, DecodeError> {
        let mut buf = image;
        let n = take_u32(&mut buf)? as usize;
        let mut out = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let name = take_string(&mut buf)?;
            let fields = decode_fields(take_run(&mut buf)?)?;
            out.push((name, fields));
        }
        Ok(out)
    }

    /// Count of per-event region updates performed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Count of updates whose encoded image was unchanged (no copy, no
    /// dirty mark).
    pub fn clean_updates(&self) -> u64 {
        self.clean_updates
    }

    /// Count of stable-storage commits.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Count of commits served by patching dirty spans of the cached
    /// image instead of rebuilding it.
    pub fn patched_commits(&self) -> u64 {
        self.patched_commits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    impl CheckpointBuffer {
        /// Number of regions.
        fn region_count(&self) -> usize {
            self.regions.len()
        }
    }

    fn fields(n: u64) -> Fields {
        let mut f = Fields::new();
        f.set("v", Value::U64(n));
        f
    }

    #[test]
    fn update_touches_only_named_region() {
        let a = fields(1);
        let b = fields(2);
        let mut buf = CheckpointBuffer::new([("a", &a), ("b", &b)]);
        let b_before = buf.region_image("b").unwrap().to_vec();

        buf.update("a", &fields(99));
        assert_eq!(buf.region_image("b").unwrap(), b_before.as_slice(), "region b untouched");
        let decoded = CheckpointBuffer::decode(&buf.encode()).unwrap();
        assert_eq!(decoded[0].1.u64("v"), Some(99));
        assert_eq!(decoded[1].1.u64("v"), Some(2));
    }

    #[test]
    fn unknown_element_update_rejected() {
        let a = fields(1);
        let mut buf = CheckpointBuffer::new([("a", &a)]);
        assert!(!buf.update("zzz", &fields(5)));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let a = fields(7);
        let b = fields(8);
        let mut buf = CheckpointBuffer::new([("alpha", &a), ("beta", &b)]);
        let image = buf.encode();
        let decoded = CheckpointBuffer::decode(&image).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].0, "alpha");
        assert_eq!(decoded[1].0, "beta");
        assert_eq!(decoded[0].1.u64("v"), Some(7));
    }

    #[test]
    fn truncated_image_fails_decode() {
        let a = fields(1);
        let mut buf = CheckpointBuffer::new([("a", &a)]);
        let image = buf.encode();
        assert!(CheckpointBuffer::decode(&image[..image.len() / 2]).is_err());
    }

    #[test]
    fn incidental_corruption_not_captured() {
        // The paper's key protection: element B's state is corrupted in
        // memory, but since B never processed an event, its buffer region
        // still holds the clean image — rollback recovers B.
        let a = fields(1);
        let mut b_state = fields(2);
        let mut buf = CheckpointBuffer::new([("a", &a), ("b", &b_state)]);
        // Corrupt B's live state *without* an event being processed.
        b_state.set("v", Value::U64(0xDEAD));
        // A processes an event; only A's region updates.
        buf.update("a", &fields(10));
        let decoded = CheckpointBuffer::decode(&buf.encode()).unwrap();
        let b_restored = &decoded.iter().find(|(n, _)| n == "b").unwrap().1;
        assert_eq!(b_restored.u64("v"), Some(2), "clean pre-corruption image survives");
    }

    #[test]
    fn counters() {
        let a = fields(1);
        let mut buf = CheckpointBuffer::new([("a", &a)]);
        buf.update("a", &fields(2));
        buf.update("a", &fields(3));
        let _ = buf.encode();
        assert_eq!(buf.updates(), 2);
        assert_eq!(buf.commits(), 1);
        assert_eq!(buf.region_count(), 1);
    }

    /// From-scratch reference image for the given (name, state) pairs.
    fn reference_image(states: &[(&'static str, &Fields)]) -> Arc<Vec<u8>> {
        CheckpointBuffer::new(states.iter().copied()).encode()
    }

    #[test]
    fn patched_commit_equals_full_rebuild() {
        let a0 = fields(1);
        let b0 = fields(2);
        let mut buf = CheckpointBuffer::new([("a", &a0), ("b", &b0)]);
        let _ = buf.encode(); // first commit assembles the cache
                              // Same-length change: the second commit patches in place.
        let a1 = fields(0xAB);
        buf.update("a", &a1);
        let image = buf.encode();
        assert_eq!(image, reference_image(&[("a", &a1), ("b", &b0)]));
        assert_eq!(buf.patched_commits(), 1, "second commit must patch, not rebuild");
    }

    #[test]
    fn length_change_falls_back_to_full_rebuild() {
        let mut a = Fields::new();
        a.set("s", Value::Str("ab".into()));
        let b = fields(2);
        let mut buf = CheckpointBuffer::new([("a", &a), ("b", &b)]);
        let _ = buf.encode();
        // Growing the string changes the region's encoded length; every
        // later offset shifts, so the commit must rebuild.
        let mut a2 = Fields::new();
        a2.set("s", Value::Str("a-much-longer-string".into()));
        buf.update("a", &a2);
        let patched_before = buf.patched_commits();
        let image = buf.encode();
        assert_eq!(image, reference_image(&[("a", &a2), ("b", &b)]));
        assert_eq!(buf.patched_commits(), patched_before, "length change must rebuild");
        // And patching resumes on the refreshed offsets afterwards.
        let mut a3 = Fields::new();
        a3.set("s", Value::Str("a-MUCH-longer-string".into()));
        buf.update("a", &a3);
        let image = buf.encode();
        assert_eq!(image, reference_image(&[("a", &a3), ("b", &b)]));
        assert_eq!(buf.patched_commits(), patched_before + 1);
    }

    #[test]
    fn unchanged_state_update_is_clean() {
        let a = fields(7);
        let mut buf = CheckpointBuffer::new([("a", &a)]);
        let first = buf.encode();
        // Re-checkpointing identical state skips the copy and leaves the
        // region clean for the next commit.
        assert!(buf.update("a", &fields(7)));
        assert_eq!(buf.clean_updates(), 1);
        assert_eq!(buf.encode(), first);
    }

    #[test]
    fn commits_share_one_image_until_a_region_changes() {
        let a = fields(7);
        let mut buf = CheckpointBuffer::new([("a", &a)]);
        let first = buf.encode();
        let second = buf.encode();
        assert!(Arc::ptr_eq(&first, &second), "a clean commit is a refcount bump");
        // A dirty commit patches a private copy: the image already
        // handed out (to the RAM disk, to a fork) keeps its bytes.
        let before = first.to_vec();
        buf.update("a", &fields(8));
        let third = buf.encode();
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(*first, before, "a handed-out image is never written to");
        assert_eq!(CheckpointBuffer::decode(&third).unwrap()[0].1.u64("v"), Some(8));
        // A fork of the buffer shares the image and unshares on its own
        // first dirty commit, leaving this side alone.
        let mut fork = buf.clone();
        fork.update("a", &fields(9));
        let forked = fork.encode();
        assert_eq!(CheckpointBuffer::decode(&forked).unwrap()[0].1.u64("v"), Some(9));
        assert!(Arc::ptr_eq(&third, &buf.encode()), "the original still holds its own image");
    }

    #[test]
    fn gated_microcheckpoint_skips_only_untouched_state() {
        let mut state = fields(1);
        let mut buf = CheckpointBuffer::new([("a", &state)]);
        state.take_dirty();
        buf.microcheckpoint(0, &mut state);
        assert_eq!((buf.updates(), buf.clean_updates()), (1, 1), "untouched: counted, not encoded");
        state.set("v", Value::U64(1));
        buf.microcheckpoint(0, &mut state);
        assert_eq!((buf.updates(), buf.clean_updates()), (2, 2), "touched, same bytes: clean");
        state.set("v", Value::U64(2));
        buf.microcheckpoint(0, &mut state);
        assert_eq!((buf.updates(), buf.clean_updates()), (3, 2));
        assert!(!state.is_dirty());
        assert_eq!(CheckpointBuffer::decode(&buf.encode()).unwrap()[0].1.u64("v"), Some(2));
    }

    /// A RAM-disk image may be corrupted or cut short, and restoring it
    /// must fail detectably, never panic: every truncation and every
    /// single-byte replacement of a multi-region image holding every
    /// `Value` variant decodes to `Ok` or `Err`, through the buffer's
    /// decoder and through `decode_fields` (as dist's
    /// `single_byte_mutations_never_panic` does for frames).
    #[test]
    fn truncated_or_mutated_images_never_panic_the_decoders() {
        use crate::wire::decode_fields;
        use std::collections::BTreeMap;
        let mut every = Fields::new();
        every.set("flag", Value::Bool(true));
        every.set("count", Value::U64(42));
        every.set("delta", Value::I64(-7));
        every.set("temp", Value::F64(271.35));
        every.set("host", Value::Str("node2".into()));
        every.set("link", Value::Ptr(0xbeef));
        let inner = BTreeMap::from([("deep".to_owned(), Value::List(vec![Value::F64(-0.5)]))]);
        every.set("list", Value::List(vec![Value::U64(1), Value::Map(inner.clone())]));
        every.set("map", Value::Map(BTreeMap::from([("nested".to_owned(), Value::Map(inner))])));
        let small = fields(3);
        let empty = Fields::new();
        let image =
            CheckpointBuffer::new([("every", &every), ("small", &small), ("empty", &empty)])
                .encode()
                .to_vec();
        assert_eq!(CheckpointBuffer::decode(&image).unwrap()[0].1, every);

        let panics = |bytes: &[u8]| {
            std::panic::catch_unwind(|| {
                (CheckpointBuffer::decode(bytes).map(drop), decode_fields(bytes).map(drop))
            })
            .is_err()
        };
        let mut panicked = Vec::new();
        for cut in 0..image.len() {
            if panics(&image[..cut]) {
                panicked.push(format!("cut at {cut}"));
            }
        }
        for at in 0..image.len() {
            for value in [0x00, 0x7F, 0xFF] {
                let mut bytes = image.clone();
                bytes[at] = value;
                if panics(&bytes) {
                    panicked.push(format!("byte {at} = {value:#04x}"));
                }
            }
        }
        assert!(panicked.is_empty(), "{} inputs panicked: {panicked:?}", panicked.len());
    }

    #[test]
    fn duplicate_region_names_resolve_to_first_constructed() {
        // The old linear scan returned the first matching region; the
        // sorted index must preserve that.
        let a0 = fields(1);
        let a1 = fields(2);
        let mut buf = CheckpointBuffer::new([("dup", &a0), ("dup", &a1)]);
        let first = buf.region_image("dup").unwrap().to_vec();
        let mut only_first = CheckpointBuffer::new([("dup", &a0)]);
        let only_image = only_first.encode();
        // Layout: u32 count, u32 name_len, "dup", u32 img_len, image.
        assert_eq!(first.as_slice(), &only_image[4 + 4 + 3 + 4..], "first region wins lookups");
        buf.update("dup", &fields(9));
        let decoded = CheckpointBuffer::decode(&buf.encode()).unwrap();
        assert_eq!(decoded[0].1.u64("v"), Some(9), "update lands in the first region");
        assert_eq!(decoded[1].1.u64("v"), Some(2), "second region untouched");
    }
}
