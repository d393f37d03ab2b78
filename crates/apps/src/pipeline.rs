//! The image-acquisition pipeline: a topology-placed camera → compute →
//! downlink workload.
//!
//! The REE mission software the paper targets is dominated by dataflow
//! pipelines: an instrument acquires frames, an onboard compute stage
//! calibrates and compresses them, and a downlink stage stores the
//! products for transmission. Unlike the texture/OTIS workloads (whose
//! ranks compute independently from shared inputs and only exchange
//! small calibration summaries), this pipeline streams whole frames
//! between ranks — so its behaviour under injection depends on *where*
//! the ranks sit in the interconnect topology. `Scenario::image_pipeline`
//! places the downlink rank across a constrained trunk link, making the
//! pipeline the natural workload for partition and link-fault
//! experiments (see `docs/NETWORK.md`).
//!
//! Three ranks, lockstep per frame, with rank 0 as the hub (the MPI
//! shell's peer discovery gives non-zero ranks only rank 0's address —
//! the same star that a command-and-data-handling computer imposes):
//!
//! * **rank 0 — camera**: acquires frame `f` (virtual CPU), loads the
//!   pixels into its science heap, streams them to compute, forwards the
//!   returned product across the trunk to the downlink rank, and waits
//!   for the downlink's acknowledgement before acquiring `f+1`
//!   (re-sending after `APP_BLOCK_TIMEOUT` if a reply never comes — the
//!   self-healing path after a mid-stream rank restart);
//! * **rank 1 — compute**: radiometric calibration over the (possibly
//!   corrupted) heap copy, then lossless compression; stateless between
//!   frames, so a restart only costs the frame in flight;
//! * **rank 2 — downlink**: persists each product to the remote store,
//!   acknowledges to the camera, and declares the job finished once
//!   every frame is on disk (recovering its progress after restart by
//!   scanning which products already exist).

use crate::compress::{compress, quantize};
use crate::rank::{Rank, Science, WORK_PHASE};
use crate::shell::ShellPoll;
use crate::synth::thermal_frame_shared;
use ree_mpi::MpiPayload;
use ree_os::{ProcCtx, TimerId};
use ree_sift::APP_BLOCK_TIMEOUT;
use ree_sim::SimDuration;
use std::sync::Arc;

/// Frame side in pixels.
pub const FRAME_PX: usize = 32;
/// Frames to acquire, process, and downlink.
pub const FRAMES: u32 = 6;
/// Virtual CPU time to acquire one frame (exposure + readout).
const ACQUIRE_TIME: SimDuration = SimDuration::from_secs(6);
/// Virtual CPU time to calibrate and compress one frame.
const PROCESS_TIME: SimDuration = SimDuration::from_secs(14);
/// Virtual CPU time to persist one product.
const DOWNLINK_TIME: SimDuration = SimDuration::from_secs(4);
/// Progress-indicator declaration period. Must exceed one full frame
/// round trip: each rank progresses once per frame.
const PI_PERIOD: SimDuration = SimDuration::from_secs(45);

/// Expected failure-free actual execution time. The stages are ack-gated
/// per frame, so the pipeline does not overlap frames; nominal is the
/// serial sum.
pub(crate) fn nominal() -> SimDuration {
    (ACQUIRE_TIME + PROCESS_TIME + DOWNLINK_TIME) * FRAMES as u64
}

/// Dark-current offset removed by calibration (synthetic detector
/// model; Kelvin).
const DARK_OFFSET: f64 = 1.25;
/// Flat-field gain applied by calibration.
const FLAT_GAIN: f64 = 1.015;

/// Radiometric calibration: dark-current subtraction plus flat-field
/// gain, per pixel. Pure — verification recomputes it exactly.
pub(crate) fn radiometric_calibrate(raw: &[f64]) -> Vec<f64> {
    raw.iter().map(|&x| (x - DARK_OFFSET) * FLAT_GAIN).collect()
}

/// Deterministic frame-sequence seed for (app, slot).
pub fn pipeline_frame_seed(app: &str, slot: u32) -> u64 {
    let mut h: u64 = 0x696d_6770;
    for b in app.bytes() {
        h = h.rotate_left(9) ^ b as u64;
    }
    h ^ ((slot as u64) << 28)
}

/// Camera re-send timer tag (distinct from `shell::SHELL_TICK`).
const RETRY_TICK: u64 = 0x9E7A;
/// Camera → compute: raw frame pixels.
const TAG_FRAME: u32 = 300;
/// Compute → camera: compressed product.
const TAG_PROD: u32 = 420;
/// Camera → downlink: forwarded product (the trunk crossing).
const TAG_FWD: u32 = 540;
/// Downlink → camera: frame persisted.
const TAG_ACK: u32 = 660;
/// Camera → compute: every frame is on disk, exit cleanly.
const TAG_DONE: u32 = 780;

const RANK_COMPUTE: u32 = 1;
const RANK_DOWNLINK: u32 = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Init,
    /// Camera: exposing/reading out frame `frame`.
    Acquire {
        frame: u32,
    },
    /// Camera: frame streamed to compute, waiting for the product.
    AwaitProduct {
        frame: u32,
    },
    /// Camera: product forwarded, waiting for the downlink ack.
    AwaitAck {
        frame: u32,
    },
    /// Compute: calibrating/compressing frame `frame`.
    Processing {
        frame: u32,
    },
    /// Compute/downlink: waiting for the next message.
    IdleWait,
    /// Downlink: persisting frame `frame`.
    Writing {
        frame: u32,
    },
    Finish,
}

/// Science state of one image-acquisition pipeline rank.
#[derive(Clone, Debug)]
pub(crate) struct Pipeline {
    phase: Phase,
    /// Camera: the current frame's product, kept for re-forwarding.
    pending_product: Vec<u8>,
    /// Camera: the outstanding retry timer, cancelled when the awaited
    /// reply arrives (a stale timer firing in a later stage would
    /// re-send needlessly and waste a whole compute pass).
    retry_timer: Option<TimerId>,
    /// Compute: frames waiting behind the one being processed.
    backlog: Vec<(u32, Vec<f64>)>,
    /// Downlink: product bytes waiting to be written.
    write_queue: Vec<(u32, Vec<u8>)>,
    /// Downlink: which frames are persisted.
    delivered: Vec<bool>,
}

impl Rank<Pipeline> {
    fn product_path(&self, frame: u32) -> String {
        format!("output/{}/s{}/pframe{frame}", self.shell.launch.app, self.shell.launch.slot)
    }

    fn done_path(&self) -> String {
        format!("app/{}/s{}/pipedone", self.shell.launch.app, self.shell.launch.slot)
    }

    // ---- camera (rank 0) ----

    fn arm_retry(&mut self, ctx: &mut ProcCtx<'_>) {
        self.disarm_retry(ctx);
        self.sci.retry_timer = Some(ctx.set_timer(APP_BLOCK_TIMEOUT, RETRY_TICK));
    }

    fn disarm_retry(&mut self, ctx: &mut ProcCtx<'_>) {
        if let Some(id) = self.sci.retry_timer.take() {
            ctx.cancel_timer(id);
        }
    }

    fn camera_begin(&mut self, frame: u32, ctx: &mut ProcCtx<'_>) {
        if frame >= FRAMES {
            self.shell.mpi.send(ctx, RANK_COMPUTE, TAG_DONE, MpiPayload::Unit);
            self.sci.phase = Phase::Finish;
            self.shell.finish(ctx);
            return;
        }
        self.sci.phase = Phase::Acquire { frame };
        ctx.start_work(ACQUIRE_TIME, WORK_PHASE);
    }

    fn camera_stream(&mut self, frame: u32, ctx: &mut ProcCtx<'_>) {
        // Acquisition complete: load the detector readout into the
        // working heap (the copy-on-write boundary — heap flips corrupt
        // this rank's copy of the frame, which then streams downstream).
        let f = thermal_frame_shared(
            FRAME_PX,
            pipeline_frame_seed(&self.shell.launch.app, self.shell.launch.slot),
            frame,
        );
        self.heap.image = Arc::new(f.band11.clone());
        self.shell.progress(ctx);
        self.camera_send_frame(frame, ctx);
    }

    fn camera_send_frame(&mut self, frame: u32, ctx: &mut ProcCtx<'_>) {
        self.shell.mpi.send(
            ctx,
            RANK_COMPUTE,
            TAG_FRAME + frame,
            MpiPayload::F64s(self.heap.image.to_vec()),
        );
        self.sci.phase = Phase::AwaitProduct { frame };
        self.arm_retry(ctx);
    }

    fn camera_forward(&mut self, frame: u32, ctx: &mut ProcCtx<'_>) {
        self.shell.mpi.send(
            ctx,
            RANK_DOWNLINK,
            TAG_FWD + frame,
            MpiPayload::Bytes(self.sci.pending_product.clone()),
        );
        self.sci.phase = Phase::AwaitAck { frame };
        self.arm_retry(ctx);
    }

    fn camera_product(&mut self, frame: u32, product: Vec<u8>, ctx: &mut ProcCtx<'_>) {
        if self.sci.phase != (Phase::AwaitProduct { frame }) {
            return; // stale product from a re-sent frame
        }
        self.disarm_retry(ctx);
        self.sci.pending_product = product;
        self.shell.progress(ctx);
        self.camera_forward(frame, ctx);
    }

    fn camera_ack(&mut self, frame: u32, ctx: &mut ProcCtx<'_>) {
        if self.sci.phase != (Phase::AwaitAck { frame }) {
            return; // stale ack from a re-forwarded product
        }
        self.disarm_retry(ctx);
        ctx.remote_fs().write(&self.status_path(), format!("{}", frame + 1).into_bytes());
        self.shell.progress(ctx);
        self.camera_begin(frame + 1, ctx);
    }

    // ---- compute (rank 1) ----

    fn compute_accept(&mut self, frame: u32, pixels: Vec<f64>, ctx: &mut ProcCtx<'_>) {
        if let Phase::Processing { frame: busy } = self.sci.phase {
            // Drop duplicates of the in-flight or queued frame (camera
            // re-sends): reprocessing them would stall the stream by a
            // whole compute pass each.
            if busy != frame && !self.sci.backlog.iter().any(|(f, _)| *f == frame) {
                self.sci.backlog.push((frame, pixels));
            }
            return;
        }
        self.heap.image = Arc::new(pixels);
        self.sci.phase = Phase::Processing { frame };
        ctx.start_work(PROCESS_TIME, WORK_PHASE);
    }

    fn compute_emit(&mut self, frame: u32, ctx: &mut ProcCtx<'_>) {
        // Real calibration arithmetic over the (possibly corrupted)
        // streamed frame, kept in the heap as the feature matrix.
        let calibrated = radiometric_calibrate(&self.heap.image);
        let product = compress(&quantize(&calibrated));
        self.heap.features = calibrated;
        self.shell.mpi.send(ctx, 0, TAG_PROD + frame, MpiPayload::Bytes(product));
        self.shell.progress(ctx);
        self.sci.phase = Phase::IdleWait;
        if !self.sci.backlog.is_empty() {
            let (next, pixels) = self.sci.backlog.remove(0);
            self.compute_accept(next, pixels, ctx);
        }
    }

    // ---- downlink (rank 2) ----

    fn downlink_accept(&mut self, frame: u32, product: Vec<u8>, ctx: &mut ProcCtx<'_>) {
        if let Phase::Writing { .. } = self.sci.phase {
            self.sci.write_queue.push((frame, product));
            return;
        }
        self.heap.features = product.iter().map(|&b| b as f64).collect();
        self.sci.write_queue.insert(0, (frame, product));
        self.sci.phase = Phase::Writing { frame };
        ctx.start_work(DOWNLINK_TIME, WORK_PHASE);
    }

    fn downlink_commit(&mut self, frame: u32, ctx: &mut ProcCtx<'_>) {
        let (f, product) = self.sci.write_queue.remove(0);
        debug_assert_eq!(f, frame);
        ctx.remote_fs().write(&self.product_path(frame), product);
        if let Some(slot) = self.sci.delivered.get_mut(frame as usize) {
            *slot = true;
        }
        let count = self.sci.delivered.iter().filter(|&&d| d).count();
        ctx.remote_fs().write(&self.status_path(), format!("{count}").into_bytes());
        self.shell.mpi.send(ctx, 0, TAG_ACK + frame, MpiPayload::Unit);
        self.shell.progress(ctx);
        if self.sci.delivered.iter().all(|&d| d) {
            ctx.remote_fs().write(&self.done_path(), b"done".to_vec());
            self.sci.phase = Phase::Finish;
            self.shell.finish(ctx);
            return;
        }
        self.sci.phase = Phase::IdleWait;
        if !self.sci.write_queue.is_empty() {
            let (next, product) = self.sci.write_queue.remove(0);
            self.downlink_accept(next, product, ctx);
        }
    }

    // ---- shared driving ----

    fn begin_run(&mut self, token: &str, ctx: &mut ProcCtx<'_>) {
        match self.shell.launch.rank {
            0 => {
                let resume = token.parse().unwrap_or(0);
                self.camera_begin(resume, ctx);
            }
            RANK_DOWNLINK => {
                // Recover progress by scanning which products survived
                // the restart (the store is the source of truth).
                for frame in 0..FRAMES {
                    if ctx.remote_fs().read(&self.product_path(frame)).is_some() {
                        self.sci.delivered[frame as usize] = true;
                    }
                }
                if self.sci.delivered.iter().all(|&d| d) {
                    self.sci.phase = Phase::Finish;
                    self.shell.finish(ctx);
                } else {
                    self.sci.phase = Phase::IdleWait;
                }
            }
            _ => {
                // Compute is stateless; if the pipeline already drained
                // while this rank was down, finish immediately.
                if ctx.remote_fs().read(&self.done_path()).is_some() {
                    self.sci.phase = Phase::Finish;
                    self.shell.finish(ctx);
                } else {
                    self.sci.phase = Phase::IdleWait;
                }
            }
        }
    }

    fn drain_mpi(&mut self, ctx: &mut ProcCtx<'_>) {
        match self.shell.launch.rank {
            0 => {
                for frame in 0..FRAMES {
                    // Stale replies for already-advanced frames are
                    // drained and ignored by the phase checks.
                    while let Some(m) =
                        self.shell.mpi.try_recv(Some(RANK_COMPUTE), TAG_PROD + frame)
                    {
                        if let MpiPayload::Bytes(product) = m.payload {
                            self.camera_product(frame, product, ctx);
                        }
                    }
                    while self.shell.mpi.try_recv(Some(RANK_DOWNLINK), TAG_ACK + frame).is_some() {
                        self.camera_ack(frame, ctx);
                    }
                }
            }
            RANK_COMPUTE => {
                if self.shell.mpi.try_recv(Some(0), TAG_DONE).is_some() {
                    self.sci.backlog.clear();
                    if self.sci.phase != Phase::Finish {
                        self.sci.phase = Phase::Finish;
                        self.shell.finish(ctx);
                    }
                    return;
                }
                for frame in 0..FRAMES {
                    while let Some(m) = self.shell.mpi.try_recv(Some(0), TAG_FRAME + frame) {
                        if let MpiPayload::F64s(pixels) = m.payload {
                            self.compute_accept(frame, pixels, ctx);
                        }
                    }
                }
            }
            _ => {
                for frame in 0..FRAMES {
                    while let Some(m) = self.shell.mpi.try_recv(Some(0), TAG_FWD + frame) {
                        if let MpiPayload::Bytes(product) = m.payload {
                            self.downlink_accept(frame, product, ctx);
                        }
                    }
                }
            }
        }
    }
}

impl Science for Pipeline {
    type Params = ();
    const TAG: &'static str = "pipeline-app";
    const PTR_FAULT: &'static str = "imgpipe: dereferenced corrupted status pointer";
    const DIMS_FAULT: &'static str = "imgpipe: corrupted frame dimensions";

    fn new(_: &()) -> Self {
        Pipeline {
            phase: Phase::Init,
            pending_product: Vec::new(),
            retry_timer: None,
            backlog: Vec::new(),
            write_queue: Vec::new(),
            delivered: vec![false; FRAMES as usize],
        }
    }

    fn side(_: &()) -> usize {
        FRAME_PX
    }

    fn pi_period(_: &()) -> SimDuration {
        PI_PERIOD
    }

    fn advance(rank: &mut Rank<Self>, ctx: &mut ProcCtx<'_>) {
        if rank.sci.phase == Phase::Init {
            if let ShellPoll::Run(token) = rank.shell.poll(ctx) {
                rank.begin_run(&token, ctx);
            } else {
                return;
            }
        }
        if rank.sci.phase != Phase::Finish {
            rank.drain_mpi(ctx);
        }
    }

    fn work_done(rank: &mut Rank<Self>, ctx: &mut ProcCtx<'_>) {
        match rank.sci.phase {
            Phase::Acquire { frame } => rank.camera_stream(frame, ctx),
            Phase::Processing { frame } => rank.compute_emit(frame, ctx),
            Phase::Writing { frame } => rank.downlink_commit(frame, ctx),
            _ => {}
        }
    }

    fn timer(rank: &mut Rank<Self>, tag: u64, ctx: &mut ProcCtx<'_>) -> bool {
        if tag != RETRY_TICK {
            return false;
        }
        if rank.runnable(ctx) {
            // A reply is overdue: the frame, product, or ack was lost to
            // a rank restart mid-stream. Re-send the in-flight stage.
            match rank.sci.phase {
                Phase::AwaitProduct { frame } => {
                    ctx.trace("imgpipe: product overdue, re-streaming frame");
                    rank.camera_send_frame(frame, ctx);
                }
                Phase::AwaitAck { frame } => {
                    ctx.trace("imgpipe: ack overdue, re-forwarding product");
                    rank.camera_forward(frame, ctx);
                }
                _ => {}
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_affine_and_invertible() {
        let raw = vec![250.0, 285.5, 310.25];
        let cal = radiometric_calibrate(&raw);
        for (r, c) in raw.iter().zip(&cal) {
            let back = c / FLAT_GAIN + DARK_OFFSET;
            assert!((back - r).abs() < 1e-9);
        }
    }

    #[test]
    fn nominal_time_is_serial_sum() {
        // Six frames of 6 s acquire + 14 s process + 4 s downlink.
        assert_eq!(nominal(), SimDuration::from_secs(6 * 24));
    }

    #[test]
    fn frame_seed_depends_on_slot_and_app() {
        assert_ne!(pipeline_frame_seed("imgpipe", 0), pipeline_frame_seed("imgpipe", 1));
        assert_ne!(pipeline_frame_seed("imgpipe", 0), pipeline_frame_seed("otis", 0));
    }
}
