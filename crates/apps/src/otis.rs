//! The Orbiting Thermal Imaging Spectrometer application (§2): "extracts
//! land temperature and surface emissivities from thermal images taken
//! from sensors. The program uses an algorithm to compensate for
//! atmospheric distortions in the thermal input images and an algorithm
//! for data compression."
//!
//! Implemented as a 2-rank MPI program processing a sequence of thermal
//! frames: ranks take alternating frames (rank r gets frame `2k + r`),
//! apply split-window atmospheric compensation, derive emissivities,
//! compress the retrieved temperature product losslessly, and exchange
//! calibration statistics after every frame pair (the tight coupling that
//! propagates stalls between ranks).

use crate::compress::{compress, quantize};
use crate::rank::{Rank, Science, WORK_PHASE};
use crate::shell::ShellPoll;
use crate::synth::thermal_frame_shared;
use ree_mpi::MpiPayload;
use ree_os::ProcCtx;
use ree_sim::SimDuration;
use std::sync::Arc;

/// Tunable workload parameters for OTIS.
#[derive(Clone, Debug)]
pub struct OtisParams {
    /// Frame side in pixels.
    pub frame_px: usize,
    /// Total frames to process (split across ranks).
    pub frames: u32,
    /// Virtual CPU time to calibrate/load at startup.
    pub load_time: SimDuration,
    /// Virtual CPU time for atmospheric compensation per frame.
    pub atm_time: SimDuration,
    /// Virtual CPU time for emissivity extraction per frame.
    pub emis_time: SimDuration,
    /// Virtual CPU time for compression per frame.
    pub compress_time: SimDuration,
    /// Progress-indicator declaration period.
    pub pi_period: SimDuration,
}

impl Default for OtisParams {
    fn default() -> Self {
        OtisParams {
            frame_px: 32,
            frames: 14,
            load_time: SimDuration::from_secs(4),
            atm_time: SimDuration::from_secs(12),
            emis_time: SimDuration::from_secs(8),
            compress_time: SimDuration::from_secs(6),
            pi_period: SimDuration::from_secs(20),
        }
    }
}

impl OtisParams {
    /// Expected failure-free actual execution time for a 2-rank run.
    pub(crate) fn nominal(&self) -> SimDuration {
        let per_frame = self.atm_time + self.emis_time + self.compress_time;
        self.load_time + per_frame * (self.frames as u64).div_ceil(2)
    }
}

/// Split-window surface-temperature retrieval matching the synthesis
/// model in [`crate::synth::thermal_frame`].
pub fn split_window_retrieve(band11: f64, band12: f64) -> f64 {
    let wv = ((band11 - band12) - 0.2) / 0.9;
    band11 + 1.2 * wv + 0.4
}

/// Synthetic emissivity derived from retrieved temperature.
pub fn emissivity_of(temp_k: f64) -> f64 {
    0.95 + 0.02 * (temp_k / 10.0).sin()
}

const TAG_CALIB: u32 = 200;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Init,
    Load { working: bool },
    Atm { pair: u32, working: bool },
    Emis { pair: u32, working: bool },
    Compress { pair: u32, working: bool },
    SyncPair { pair: u32 },
    Finish,
}

/// Science state of one OTIS rank.
#[derive(Clone, Debug)]
pub(crate) struct Otis {
    phase: Phase,
    resume_pair: u32,
    retrieved: Vec<f64>,
    calib_seen: Vec<bool>,
}

impl Rank<Otis> {
    fn pairs(&self) -> u32 {
        self.params.frames.div_ceil(self.shell.launch.size.max(1))
    }

    fn my_frame(&self, pair: u32) -> u32 {
        pair * self.shell.launch.size + self.shell.launch.rank
    }

    fn product_path(&self, frame: u32) -> String {
        format!("output/{}/s{}/frame{frame}", self.shell.launch.app, self.shell.launch.slot)
    }

    fn enter_pair(&mut self, pair: u32, ctx: &mut ProcCtx<'_>) {
        if pair >= self.pairs() {
            self.sci.phase = Phase::Finish;
            self.shell.finish(ctx);
            return;
        }
        let frame = self.my_frame(pair);
        if frame >= self.params.frames {
            // Odd frame count: this rank idles through the last pair but
            // still synchronises.
            self.sci.retrieved.clear();
            self.enter_sync(pair, ctx);
            return;
        }
        // Load the frame's bands into the working heap. The frame comes
        // from the campaign-shared input cache; cloning the bands out is
        // the copy-on-write boundary — injected heap flips land in this
        // rank's private copy, never in the shared frame.
        let f = thermal_frame_shared(
            self.params.frame_px,
            otis_frame_seed(&self.shell.launch.app, self.shell.launch.slot),
            frame,
        );
        self.heap.image = Arc::new(f.band11.clone());
        self.heap.features = f.band12.clone();
        self.sci.phase = Phase::Atm { pair, working: true };
        ctx.start_work(self.params.atm_time, WORK_PHASE);
    }

    fn finish_atm(&mut self, pair: u32, ctx: &mut ProcCtx<'_>) {
        // Real split-window arithmetic over (possibly corrupted) bands.
        self.sci.retrieved = self
            .heap
            .image
            .iter()
            .zip(&self.heap.features)
            .map(|(&b11, &b12)| split_window_retrieve(b11, b12))
            .collect();
        self.shell.progress(ctx);
        self.sci.phase = Phase::Emis { pair, working: true };
        ctx.start_work(self.params.emis_time, WORK_PHASE);
    }

    fn finish_emis(&mut self, pair: u32, ctx: &mut ProcCtx<'_>) {
        let emissivities: Vec<f64> = self.sci.retrieved.iter().map(|&t| emissivity_of(t)).collect();
        // Keep emissivities in the heap (they are part of the product).
        self.heap.features = emissivities;
        self.shell.progress(ctx);
        self.sci.phase = Phase::Compress { pair, working: true };
        ctx.start_work(self.params.compress_time, WORK_PHASE);
    }

    fn finish_compress(&mut self, pair: u32, ctx: &mut ProcCtx<'_>) {
        let frame = self.my_frame(pair);
        let product = compress(&quantize(&self.sci.retrieved));
        ctx.remote_fs().write(&self.product_path(frame), product);
        self.shell.progress(ctx);
        self.enter_sync(pair, ctx);
    }

    fn enter_sync(&mut self, pair: u32, ctx: &mut ProcCtx<'_>) {
        // Exchange calibration statistics with every peer before the
        // next pair (the coupling point).
        let mean = if self.sci.retrieved.is_empty() {
            0.0
        } else {
            self.sci.retrieved.iter().sum::<f64>() / self.sci.retrieved.len() as f64
        };
        for rank in 0..self.shell.launch.size {
            if rank != self.shell.launch.rank {
                self.shell.mpi.send(ctx, rank, TAG_CALIB + pair, MpiPayload::F64s(vec![mean]));
            }
        }
        self.sci.calib_seen = vec![false; self.shell.launch.size as usize];
        self.sci.calib_seen[self.shell.launch.rank as usize] = true;
        self.sci.phase = Phase::SyncPair { pair };
        self.drain_sync(ctx);
    }

    fn drain_sync(&mut self, ctx: &mut ProcCtx<'_>) {
        let Phase::SyncPair { pair } = self.sci.phase else { return };
        while let Some(m) = self.shell.mpi.try_recv(None, TAG_CALIB + pair) {
            if (m.from_rank as usize) < self.sci.calib_seen.len() {
                self.sci.calib_seen[m.from_rank as usize] = true;
            }
        }
        if self.sci.calib_seen.iter().all(|&s| s) {
            ctx.remote_fs().write(&self.status_path(), format!("{},0", pair + 1).into_bytes());
            self.shell.progress(ctx);
            self.enter_pair(pair + 1, ctx);
        }
    }
}

/// Deterministic frame-sequence seed for (app, slot).
pub fn otis_frame_seed(app: &str, slot: u32) -> u64 {
    let mut h: u64 = 0x6f74_6973;
    for b in app.bytes() {
        h = h.rotate_left(7) ^ b as u64;
    }
    h ^ ((slot as u64) << 24)
}

impl Science for Otis {
    type Params = OtisParams;
    const TAG: &'static str = "otis-app";
    const PTR_FAULT: &'static str = "otis: dereferenced corrupted status pointer";
    const DIMS_FAULT: &'static str = "otis: corrupted frame dimensions";

    fn new(_: &OtisParams) -> Self {
        Otis { phase: Phase::Init, resume_pair: 0, retrieved: Vec::new(), calib_seen: Vec::new() }
    }

    fn side(params: &OtisParams) -> usize {
        params.frame_px
    }

    fn pi_period(params: &OtisParams) -> SimDuration {
        params.pi_period
    }

    fn advance(rank: &mut Rank<Self>, ctx: &mut ProcCtx<'_>) {
        match rank.sci.phase {
            Phase::Init => {
                if let ShellPoll::Run(token) = rank.shell.poll(ctx) {
                    let pair = token.split(',').next().and_then(|p| p.parse().ok()).unwrap_or(0);
                    rank.sci.resume_pair = pair;
                    rank.sci.phase = Phase::Load { working: true };
                    ctx.start_work(rank.params.load_time, WORK_PHASE);
                }
            }
            Phase::SyncPair { .. } => rank.drain_sync(ctx),
            _ => {}
        }
    }

    fn work_done(rank: &mut Rank<Self>, ctx: &mut ProcCtx<'_>) {
        match rank.sci.phase {
            Phase::Load { working: true } => {
                rank.shell.progress(ctx);
                let pair = rank.sci.resume_pair;
                rank.enter_pair(pair, ctx);
            }
            Phase::Atm { pair, working: true } => rank.finish_atm(pair, ctx),
            Phase::Emis { pair, working: true } => rank.finish_emis(pair, ctx),
            Phase::Compress { pair, working: true } => rank.finish_compress(pair, ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::thermal_frame;

    #[test]
    fn split_window_recovers_truth_exactly() {
        let frame = thermal_frame(16, 42, 0);
        for i in 0..frame.truth.len() {
            let t = split_window_retrieve(frame.band11[i], frame.band12[i]);
            assert!((t - frame.truth[i]).abs() < 1e-9, "pixel {i}: {t} vs {}", frame.truth[i]);
        }
    }

    #[test]
    fn emissivity_in_physical_range() {
        for t in [250.0, 285.0, 310.0] {
            let e = emissivity_of(t);
            assert!((0.9..=1.0).contains(&e));
        }
    }

    #[test]
    fn nominal_time_is_about_190s() {
        let t = OtisParams::default().nominal().as_secs_f64();
        assert!((150.0..240.0).contains(&t), "nominal {t}");
    }

    #[test]
    fn frame_seed_depends_on_slot() {
        assert_ne!(otis_frame_seed("otis", 0), otis_frame_seed("otis", 1));
    }
}
