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

use crate::filters::{assemble_features, filter_tiles_px, FilterScratch, NUM_FILTERS};
use crate::kmeans::kmeans;
use crate::rank::{Rank, Science, WORK_PHASE};
use crate::shell::ShellPoll;
use crate::synth::{mars_surface_shared, Image};
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
        // The camera stored the image on stable storage; generate it
        // deterministically on first access. Generation goes through the
        // campaign-shared cache, so the thousands of runs of a campaign
        // synthesise each input exactly once per worker process.
        let path = format!(
            "images/{}-s{}-{}.img",
            self.shell.launch.app, self.shell.launch.slot, self.sci.image_idx
        );
        let image = match ctx.remote_fs().read(&path).and_then(Image::from_bytes) {
            Some(img) if img.size == self.params.image_px => Arc::new(img),
            _ => {
                let img = mars_surface_shared(
                    self.params.image_px,
                    texture_image_seed(
                        &self.shell.launch.app,
                        self.shell.launch.slot,
                        self.sci.image_idx,
                    ),
                );
                ctx.remote_fs().write(&path, img.to_bytes());
                img
            }
        };
        // Copy-on-write boundary: the heap owns the copy fault injection
        // may flip; the shared image stays pristine.
        self.heap.image = image.pixels.clone();
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
        // The real FFT computation for this rank's tiles, straight over
        // the (possibly bit-flipped) science heap — injected flips
        // propagate through this arithmetic into the features and the
        // final segmentation. The scratch pool persists across filters.
        let mut scratch =
            self.sci.scratch.take().unwrap_or_else(|| FilterScratch::new(self.params.tile_px));
        let mine = filter_tiles_px(
            self.params.image_px,
            &self.heap.image,
            f as usize,
            self.my_tiles(),
            &mut scratch,
        );
        self.sci.scratch = Some(scratch);
        // Share with every peer, collect everyone's share.
        let flat: Vec<f64> = mine.iter().flat_map(|(t, e)| vec![*t as f64, *e]).collect();
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
        let clustering = kmeans(&self.heap.features, NUM_FILTERS, self.params.clusters, 50);
        let labels: Vec<u8> = clustering.labels.iter().map(|&l| l as u8).collect();
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
