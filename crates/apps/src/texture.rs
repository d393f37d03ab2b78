//! The Mars Rover texture analysis program (§2, \[7\]).
//!
//! "Cameras on the Mars Rover take images of the Martian surface and
//! store the images on stable storage. The program applies a series of
//! filters to segment the image according to texture features. Three
//! filters are used to extract vectors that describe image features along
//! each of its three axes. A statistical clustering algorithm is applied
//! to the feature vectors in order to segment the image. … The
//! application takes rudimentary checkpoints by updating a status file
//! after each filter completes. If the application restarts, it can skip
//! filters that have already completed, but it must redo any filtering
//! that was interrupted."
//!
//! Implemented as an MPI program: tiles are split across ranks; each
//! filter phase computes directional FFT energies for the local tiles
//! (~20 s of virtual CPU per filter, matching §3.3), exchanges them
//! all-to-all, and updates the status file. Rank 0 then runs k-means and
//! writes the segmented output.
//!
//! The fault-free pipeline over each input runs once per process
//! (`verify::TextureTable`). A rank takes its results wherever its inputs
//! are bit-for-bit pristine and runs the kernels only over what a flipped
//! bit changed: the FFT over the tiles that differ, k-means over a
//! changed feature matrix. Every output is the kernels' own, bit for bit.

use crate::filters::{assemble_features, filter_tiles_px, FilterScratch, NUM_FILTERS};
use crate::kmeans::kmeans;
use crate::rank::{Rank, Science, WORK_PHASE};
use crate::shell::ShellPoll;
use crate::synth::Image;
use crate::verify::{texture_table, TextureTable};
use ree_mpi::MpiPayload;
use ree_os::ProcCtx;
use ree_sim::SimDuration;
use std::sync::Arc;

/// Tunable workload parameters for the texture program.
#[derive(Clone, Debug)]
pub struct TextureParams {
    /// Image side in pixels (power of two).
    pub image_px: usize,
    /// Tile side in pixels (power of two).
    pub tile_px: usize,
    /// Number of clusters for segmentation.
    pub clusters: usize,
    /// Images analysed per run ("one image per run" in §2; two in the
    /// §8 two-application configuration).
    pub images: u32,
    /// Virtual CPU time to load an image.
    pub load_time: SimDuration,
    /// Virtual CPU time per filter per rank (the ~20 s FFT call of §3.3,
    /// divided across ranks).
    pub filter_time: SimDuration,
    /// Virtual CPU time for clustering (rank 0).
    pub cluster_time: SimDuration,
    /// Virtual CPU time to write output.
    pub write_time: SimDuration,
    /// Progress-indicator declaration period.
    pub pi_period: SimDuration,
}

impl Default for TextureParams {
    fn default() -> Self {
        TextureParams {
            image_px: 64,
            tile_px: 8,
            clusters: 4,
            images: 1,
            load_time: SimDuration::from_secs(3),
            filter_time: SimDuration::from_secs(19),
            cluster_time: SimDuration::from_secs(12),
            write_time: SimDuration::from_secs(2),
            pi_period: SimDuration::from_secs(20),
        }
    }
}

impl TextureParams {
    /// Expected failure-free *actual* execution time per image for a
    /// 2-rank run (used by experiment calibration and tests).
    pub(crate) fn nominal_per_image(&self) -> SimDuration {
        self.load_time + self.filter_time * NUM_FILTERS as u64 + self.cluster_time + self.write_time
    }
}

const TAG_FEAT_BASE: u32 = 100;
const TAG_DONE: u32 = 99;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Init,
    Load { working: bool },
    Filter { f: u32, working: bool },
    Exchange { f: u32 },
    Cluster { working: bool },
    AwaitDone,
    Write { working: bool },
    Finish,
}

/// Science state of one texture-analysis rank.
#[derive(Clone, Debug)]
pub(crate) struct Texture {
    image_idx: u32,
    phase: Phase,
    resume_filter: u32,
    /// Per-filter tile energies gathered so far (all ranks' shares).
    per_filter: Vec<Vec<(usize, f64)>>,
    /// Which ranks' shares we already merged for the in-flight exchange.
    got_share: Vec<bool>,
    /// Reusable tile/column/plan scratch for the filter kernels.
    scratch: Option<FilterScratch>,
}

impl Rank<Texture> {
    fn n_tiles(&self) -> usize {
        let per_side = self.params.image_px / self.params.tile_px;
        per_side * per_side
    }

    fn my_tiles(&self) -> std::ops::Range<usize> {
        let n = self.n_tiles();
        let ranks = self.shell.launch.size as usize;
        let per = n.div_ceil(ranks);
        let lo = per * self.shell.launch.rank as usize;
        lo.min(n)..(lo + per).min(n)
    }

    /// The fault-free pipeline over this rank's current input image.
    fn pristine(&self) -> Arc<TextureTable> {
        let launch = &self.shell.launch;
        let seed = texture_image_seed(&launch.app, launch.slot, self.sci.image_idx);
        texture_table(seed, self.params.image_px, self.params.tile_px, self.params.clusters)
    }

    fn feat_path(&self, image: u32, filter: u32) -> String {
        format!("app/{}/s{}/feat-{image}-{filter}", self.shell.launch.app, self.shell.launch.slot)
    }

    fn output_path(&self, image: u32) -> String {
        format!("output/{}/s{}/img{image}", self.shell.launch.app, self.shell.launch.slot)
    }

    fn write_status(&mut self, ctx: &mut ProcCtx<'_>, image: u32, filters_done: u32) {
        ctx.remote_fs().write(&self.status_path(), format!("{image},{filters_done}").into_bytes());
    }

    fn enter_load(&mut self, ctx: &mut ProcCtx<'_>) {
        self.sci.phase = Phase::Load { working: true };
        ctx.start_work(self.params.load_time, WORK_PHASE);
    }

    fn finish_load(&mut self, ctx: &mut ProcCtx<'_>) {
        // The camera stored the image on stable storage: the first load
        // stores the pristine table's encoding, the one buffer every run
        // of the process shares. A load that reads back that buffer
        // shares the table's pixels without decoding; any other bytes
        // are decoded.
        let path = format!(
            "images/{}-s{}-{}.img",
            self.shell.launch.app, self.shell.launch.slot, self.sci.image_idx
        );
        let table = self.pristine();
        let fs = ctx.remote_fs();
        let stored = match fs.read(&path) {
            Some(bytes) if std::ptr::eq(bytes, table.encoded.as_slice()) => {
                Some(Arc::clone(&table.pixels))
            }
            bytes => bytes
                .and_then(Image::from_bytes)
                .filter(|img| img.size == self.params.image_px)
                .map(|img| Arc::new(img.pixels)),
        };
        // Share-until-flip: the heap holds the pristine pixels, and the
        // first flip into them (`SciHeap::flip`) gives this rank its own
        // copy, so the table and every other run stay pristine.
        self.heap.image = stored.unwrap_or_else(|| {
            fs.write(&path, Arc::clone(&table.encoded));
            Arc::clone(&table.pixels)
        });
        self.heap.features = vec![0.0; self.n_tiles() * NUM_FILTERS];
        self.sci.per_filter = vec![Vec::new(); NUM_FILTERS];
        // Reload features of filters completed before a restart.
        for f in 0..self.sci.resume_filter {
            if let Some(bytes) = ctx.remote_fs().read(&self.feat_path(self.sci.image_idx, f)) {
                self.sci.per_filter[f as usize] = decode_energies(bytes);
            }
        }
        self.shell.progress(ctx);
        if self.sci.resume_filter as usize >= NUM_FILTERS {
            self.enter_cluster(ctx);
        } else {
            self.enter_filter(self.sci.resume_filter, ctx);
        }
    }

    fn enter_filter(&mut self, f: u32, ctx: &mut ProcCtx<'_>) {
        self.sci.phase = Phase::Filter { f, working: true };
        ctx.start_work(self.params.filter_time, WORK_PHASE);
    }

    fn finish_filter(&mut self, f: u32, ctx: &mut ProcCtx<'_>) {
        // This rank's tiles over the (possibly bit-flipped) science heap.
        let table = self.pristine();
        let (image, tiles) = (&self.heap.image, self.my_tiles());
        let mine =
            tile_energies(&table, &self.params, image, f as usize, tiles, &mut self.sci.scratch);
        // Share with every peer, collect everyone's share.
        let flat: Vec<f64> = mine.iter().flat_map(|&(t, e)| [t as f64, e]).collect();
        for rank in 0..self.shell.launch.size {
            if rank != self.shell.launch.rank {
                self.shell.mpi.send(ctx, rank, TAG_FEAT_BASE + f, MpiPayload::F64s(flat.clone()));
            }
        }
        self.sci.per_filter[f as usize] = mine;
        self.sci.got_share = vec![false; self.shell.launch.size as usize];
        self.sci.got_share[self.shell.launch.rank as usize] = true;
        self.sci.phase = Phase::Exchange { f };
        self.shell.progress(ctx);
        self.drain_exchange(ctx);
    }

    fn drain_exchange(&mut self, ctx: &mut ProcCtx<'_>) {
        let Phase::Exchange { f } = self.sci.phase else { return };
        while let Some(m) = self.shell.mpi.try_recv(None, TAG_FEAT_BASE + f) {
            let from = m.from_rank as usize;
            if let Some(values) = m.payload.into_f64s() {
                for pair in values.chunks_exact(2) {
                    self.sci.per_filter[f as usize].push((pair[0] as usize, pair[1]));
                }
                if from < self.sci.got_share.len() {
                    self.sci.got_share[from] = true;
                }
            }
        }
        if self.sci.got_share.iter().all(|&g| g) {
            self.sci.per_filter[f as usize].sort_unstable_by_key(|(t, _)| *t);
            // Persist: status + this filter's full energies ("updating a
            // status file after each filter completes").
            if self.shell.launch.rank == 0 {
                let bytes = encode_energies(&self.sci.per_filter[f as usize]);
                let path = self.feat_path(self.sci.image_idx, f);
                ctx.remote_fs().write(&path, bytes);
            }
            self.write_status(ctx, self.sci.image_idx, f + 1);
            self.shell.progress(ctx);
            if (f as usize) + 1 < NUM_FILTERS {
                self.enter_filter(f + 1, ctx);
            } else {
                self.enter_cluster(ctx);
            }
        }
    }

    fn enter_cluster(&mut self, ctx: &mut ProcCtx<'_>) {
        if self.shell.launch.rank == 0 {
            self.sci.phase = Phase::Cluster { working: true };
            ctx.start_work(self.params.cluster_time, WORK_PHASE);
        } else {
            self.sci.phase = Phase::AwaitDone;
            self.drain_done(ctx);
        }
    }

    fn finish_cluster(&mut self, ctx: &mut ProcCtx<'_>) {
        let n = self.n_tiles();
        self.heap.features = assemble_features(&self.sci.per_filter, n);
        let labels = segment(&self.pristine(), &self.heap.features, self.params.clusters);
        ctx.remote_fs().write(&self.output_path(self.sci.image_idx), labels);
        self.shell.progress(ctx);
        self.sci.phase = Phase::Write { working: true };
        ctx.start_work(self.params.write_time, WORK_PHASE);
    }

    fn finish_write(&mut self, ctx: &mut ProcCtx<'_>) {
        for rank in 1..self.shell.launch.size {
            self.shell.mpi.send(ctx, rank, TAG_DONE, MpiPayload::Unit);
        }
        self.next_image(ctx);
    }

    fn drain_done(&mut self, ctx: &mut ProcCtx<'_>) {
        if self.sci.phase == Phase::AwaitDone
            && self.shell.mpi.try_recv(Some(0), TAG_DONE).is_some()
        {
            self.next_image(ctx);
        }
    }

    fn next_image(&mut self, ctx: &mut ProcCtx<'_>) {
        self.shell.progress(ctx);
        self.sci.image_idx += 1;
        self.sci.resume_filter = 0;
        if self.sci.image_idx >= self.params.images {
            self.sci.phase = Phase::Finish;
            self.shell.finish(ctx);
        } else {
            self.write_status(ctx, self.sci.image_idx, 0);
            self.enter_load(ctx);
        }
    }
}

/// Filter `f`'s energy of each tile in `tiles` over `image`.
///
/// A tile whose pixels are bit-for-bit the pristine ones takes the
/// table's energy; the FFT runs over each tile a flip changed, so
/// injected flips propagate through real arithmetic in exactly the tiles
/// they hit, and on into the features and the segmentation.
/// `filter_tiles_px` computes a tile from that tile's pixels alone, so
/// every energy is the bits it returns over the whole image. An image
/// that is not `image_px`² pixels goes to `filter_tiles_px` whole. The
/// scratch pool is built on first use and persists across filters.
fn tile_energies(
    table: &TextureTable,
    params: &TextureParams,
    image: &Arc<Vec<f64>>,
    f: usize,
    tiles: std::ops::Range<usize>,
    scratch: &mut Option<FilterScratch>,
) -> Vec<(usize, f64)> {
    if Arc::ptr_eq(image, &table.pixels) {
        return tiles.map(|t| (t, table.energies[f][t])).collect();
    }
    let (size, tile_px) = (params.image_px, params.tile_px);
    let scratch = scratch.get_or_insert_with(|| FilterScratch::new(tile_px));
    if image.len() != table.pixels.len() {
        return filter_tiles_px(size, image, f, tiles, scratch);
    }
    tiles
        .map(|t| {
            if tile_differs(size, tile_px, image, &table.pixels, t) {
                filter_tiles_px(size, image, f, t..t + 1, scratch)[0]
            } else {
                (t, table.energies[f][t])
            }
        })
        .collect()
}

/// The k-means segmentation of `features`, one label per tile. k-means
/// is a pure function of its input bits: the pristine matrix gets the
/// table's labels, and only a changed one is clustered.
fn segment(table: &TextureTable, features: &[f64], clusters: usize) -> Arc<Vec<u8>> {
    if bits_differ(features, &table.features) {
        let clustering = kmeans(features, NUM_FILTERS, clusters, 50);
        Arc::new(clustering.labels.iter().map(|&l| l as u8).collect())
    } else {
        Arc::clone(&table.labels)
    }
}

/// True if some pixel of `tile` (numbered row-major over the tile grid of
/// a `size`×`size` image) differs in any bit between `a` and `b`.
fn tile_differs(size: usize, tile_px: usize, a: &[f64], b: &[f64], tile: usize) -> bool {
    let per_side = size / tile_px;
    let (top, left) = ((tile / per_side) * tile_px, (tile % per_side) * tile_px);
    (top..top + tile_px).any(|row| {
        let span = row * size + left..row * size + left + tile_px;
        bits_differ(&a[span.clone()], &b[span])
    })
}

/// True unless `a` and `b` hold the same values bit for bit (NaN
/// payloads and signed zeros included).
fn bits_differ(a: &[f64], b: &[f64]) -> bool {
    a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
}

fn parse_token(token: &str) -> (u32, u32) {
    let mut parts = token.split(',');
    let a = parts.next().and_then(|p| p.parse().ok()).unwrap_or(0);
    let b = parts.next().and_then(|p| p.parse().ok()).unwrap_or(0);
    (a, b)
}

fn encode_energies(tiles: &[(usize, f64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(tiles.len() * 16);
    for (t, e) in tiles {
        out.extend_from_slice(&(*t as u64).to_le_bytes());
        out.extend_from_slice(&e.to_le_bytes());
    }
    out
}

fn decode_energies(bytes: &[u8]) -> Vec<(usize, f64)> {
    bytes
        .chunks_exact(16)
        .map(|c| {
            let t = u64::from_le_bytes(c[..8].try_into().expect("8 bytes"));
            let e = f64::from_le_bytes(c[8..].try_into().expect("8 bytes"));
            (t as usize, e)
        })
        .collect()
}

/// Deterministic seed for a given (app, slot, image) — verification
/// regenerates the identical input.
pub fn texture_image_seed(app: &str, slot: u32, image: u32) -> u64 {
    // Not `ree_sim::Fnv64`: the multiplier is not the FNV prime
    // (0x100_0000_01b3), and every pinned texture input derives from it.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in app.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ ((slot as u64) << 32) ^ image as u64
}

impl Science for Texture {
    type Params = TextureParams;
    const TAG: &'static str = "texture-app";
    const PTR_FAULT: &'static str = "texture: dereferenced corrupted status pointer";
    const DIMS_FAULT: &'static str = "texture: corrupted image dimensions";

    fn new(_: &TextureParams) -> Self {
        Texture {
            image_idx: 0,
            phase: Phase::Init,
            resume_filter: 0,
            per_filter: vec![Vec::new(); NUM_FILTERS],
            got_share: Vec::new(),
            scratch: None,
        }
    }

    fn side(params: &TextureParams) -> usize {
        params.image_px
    }

    fn pi_period(params: &TextureParams) -> SimDuration {
        params.pi_period
    }

    fn advance(rank: &mut Rank<Self>, ctx: &mut ProcCtx<'_>) {
        match rank.sci.phase {
            Phase::Init => {
                if let ShellPoll::Run(token) = rank.shell.poll(ctx) {
                    // Parse the agreed resume token.
                    let (img, filt) = parse_token(&token);
                    rank.sci.image_idx = img.min(rank.params.images.saturating_sub(1));
                    rank.sci.resume_filter = filt.min(NUM_FILTERS as u32);
                    rank.enter_load(ctx);
                }
            }
            Phase::Exchange { .. } => rank.drain_exchange(ctx),
            Phase::AwaitDone => rank.drain_done(ctx),
            _ => {}
        }
    }

    fn work_done(rank: &mut Rank<Self>, ctx: &mut ProcCtx<'_>) {
        match rank.sci.phase {
            Phase::Load { working: true } => rank.finish_load(ctx),
            Phase::Filter { f, working: true } => rank.finish_filter(f, ctx),
            Phase::Cluster { working: true } => rank.finish_cluster(ctx),
            Phase::Write { working: true } => rank.finish_write(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::filter_tiles;
    use crate::rank::Rank;
    use crate::synth::mars_surface;
    use crate::{Scenario, Verdict};
    use ree_os::HeapTarget;
    use ree_sim::SimTime;

    fn bits(energies: &[(usize, f64)]) -> Vec<(usize, u64)> {
        energies.iter().map(|&(t, e)| (t, e.to_bits())).collect()
    }

    /// The memo path is the kernels' own result, bit for bit: over the
    /// pristine image, over every single-bit flip of one pixel in several
    /// tiles, and for a feature matrix with one flipped bit.
    #[test]
    fn memo_path_equals_the_kernels_bit_for_bit() {
        // The default workload, and the two-node preset's 32 px image
        // (`ree_mc`'s `two_node_scenario`).
        let two_node =
            TextureParams { image_px: 32, tile_px: 8, clusters: 2, ..Default::default() };
        for params in [TextureParams::default(), two_node] {
            let (size, tile_px) = (params.image_px, params.tile_px);
            let n = (size / tile_px).pow(2);
            let seed = texture_image_seed("texture", 0, 0);
            let table = texture_table(seed, size, tile_px, params.clusters);
            let image = mars_surface(size, seed);
            assert_eq!(*table.pixels, image.pixels);
            for f in 0..NUM_FILTERS {
                let direct: Vec<f64> =
                    filter_tiles(&image, f, 0..n, tile_px).into_iter().map(|(_, e)| e).collect();
                let direct: Vec<u64> = direct.iter().map(|e| e.to_bits()).collect();
                let memo: Vec<u64> = table.energies[f].iter().map(|e| e.to_bits()).collect();
                assert_eq!(memo, direct, "table energies, filter {f}");
            }

            // One pixel in the first tile, one inside a middle tile, one on
            // a tile's last column, the image's last pixel, and the first
            // pixel in [1, 2), whose exponent flip reaches NaN.
            let bright = table.pixels.iter().position(|v| (1.0..2.0).contains(v));
            let middle = (size / 2 + 3) * size + size / 2 + 2;
            let at = [0, middle, tile_px - 1, size * size - 1, bright.expect("a pixel in [1, 2)")];
            let mut scratch = None;
            let (mut inf, mut nan) = (0, 0);
            for &px in &at {
                for bit in 0..64 {
                    let mut flipped = (*table.pixels).clone();
                    flipped[px] = f64::from_bits(flipped[px].to_bits() ^ (1 << bit));
                    let flipped = Arc::new(flipped);
                    for f in 0..NUM_FILTERS {
                        let mut fresh = FilterScratch::new(tile_px);
                        let direct = filter_tiles_px(size, &flipped, f, 0..n, &mut fresh);
                        inf += direct.iter().filter(|(_, e)| e.is_infinite()).count();
                        nan += direct.iter().filter(|(_, e)| e.is_nan()).count();
                        // Whole image, and the two ranks' halves.
                        let memo = tile_energies(&table, &params, &flipped, f, 0..n, &mut scratch);
                        assert_eq!(bits(&memo), bits(&direct), "px {px} bit {bit} filter {f}");
                        let lo =
                            tile_energies(&table, &params, &flipped, f, 0..n / 2, &mut scratch);
                        let hi =
                            tile_energies(&table, &params, &flipped, f, n / 2..n, &mut scratch);
                        assert_eq!(bits(&[lo, hi].concat()), bits(&direct));
                    }
                }
            }
            assert!(inf > 0 && nan > 0, "exponent flips reach inf ({inf}) and NaN ({nan})");

            let pristine = segment(&table, &table.features, params.clusters);
            assert!(Arc::ptr_eq(&pristine, &table.labels));
            for i in [0, table.features.len() / 2, table.features.len() - 1] {
                for bit in [0, 30, 52, 62, 63] {
                    let mut features = table.features.clone();
                    features[i] = f64::from_bits(features[i].to_bits() ^ (1 << bit));
                    let own: Vec<u8> = kmeans(&features, NUM_FILTERS, params.clusters, 50)
                        .labels
                        .iter()
                        .map(|&l| l as u8)
                        .collect();
                    assert_eq!(*segment(&table, &features, params.clusters), own, "{i}/{bit}");
                }
            }
        }
    }

    /// A flip into one fork's image unshares that rank's copy only: the
    /// other fork of the same snapshot, and the table, keep the pristine
    /// pixels (share-until-flip, `synth.rs`).
    #[test]
    fn a_flip_unshares_only_the_flipped_forks_image() {
        let scenario = Scenario::single_texture(7);
        let snapshot = scenario.boot_snapshot(SimTime::ZERO + SimDuration::from_secs(20));
        let p = &scenario.texture;
        let table =
            texture_table(texture_image_seed("texture", 0, 0), p.image_px, p.tile_px, p.clusters);
        let image = |running: &crate::Running, pid| {
            let rank = running.cluster.behavior::<Rank<Texture>>(pid).expect("a texture rank");
            Arc::clone(&rank.heap.image)
        };
        let mut kept = snapshot.fork(0);
        let ranks: Vec<_> = kept
            .cluster
            .all_procs()
            .into_iter()
            .filter(|&pid| kept.cluster.kind_of(pid) == Some(Texture::TAG))
            .collect();
        assert_eq!(ranks.len(), 2, "both ranks are running at the snapshot");
        for &pid in &ranks {
            assert!(Arc::ptr_eq(&image(&kept, pid), &table.pixels), "loaded images are shared");
        }

        // A flip into `Region("image")` lands in one of the rank's two
        // matrices; take the first fork seed whose flip hits the image.
        let mut hit = (1..)
            .find_map(|seed| {
                let mut fork = snapshot.fork(seed);
                let flip = fork.cluster.inject_heap(ranks[0], &HeapTarget::Region("image".into()));
                (flip.expect("a heap flip").region == "image").then_some(fork)
            })
            .expect("some seed flips the image");
        let flipped = image(&hit, ranks[0]);
        assert!(!Arc::ptr_eq(&flipped, &table.pixels), "the flip unshared its rank's copy");
        let changed: u32 = flipped
            .iter()
            .zip(table.pixels.iter())
            .map(|(a, b)| (a.to_bits() ^ b.to_bits()).count_ones())
            .sum();
        assert_eq!(changed, 1);
        assert!(Arc::ptr_eq(&image(&hit, ranks[1]), &table.pixels), "the other rank still shares");
        for &pid in &ranks {
            assert!(Arc::ptr_eq(&image(&kept, pid), &table.pixels), "the other fork still shares");
        }
        let pristine = mars_surface(p.image_px, texture_image_seed("texture", 0, 0)).pixels;
        assert!(!bits_differ(&table.pixels, &pristine), "the table stays pristine");

        let horizon = SimTime::ZERO + SimDuration::from_secs(5) + scenario.nominal() * 2;
        assert!(hit.run_until_done(horizon) && kept.run_until_done(horizon));
        assert_eq!(scenario.verify_outputs(&kept), Verdict::Correct);
    }

    #[test]
    fn params_nominal_time_is_about_75s() {
        let p = TextureParams::default();
        let t = p.nominal_per_image().as_secs_f64();
        assert!((60.0..90.0).contains(&t), "nominal {t}");
    }

    #[test]
    fn token_parsing() {
        assert_eq!(parse_token("2,1"), (2, 1));
        assert_eq!(parse_token(""), (0, 0));
        assert_eq!(parse_token("junk"), (0, 0));
    }

    #[test]
    fn energy_encoding_roundtrip() {
        let tiles = vec![(0usize, 1.5), (7, -0.25), (63, 1e9)];
        assert_eq!(decode_energies(&encode_energies(&tiles)), tiles);
    }

    #[test]
    fn image_seed_distinguishes_everything() {
        let a = texture_image_seed("texture", 0, 0);
        let b = texture_image_seed("texture", 0, 1);
        let c = texture_image_seed("texture", 1, 0);
        let d = texture_image_seed("otis", 0, 0);
        assert!(a != b && a != c && a != d && b != c);
    }
}
