//! The application table: which applications exist and what each one
//! needs from a [`Scenario`] — its factory, nominal duration, output
//! verification and shared inputs.
//!
//! This is the only place an application *name* is matched. Adding an
//! application is one [`AppKind`] variant (every `match` below then
//! refuses to compile until it has an arm) plus one `Science` impl.

use crate::rank::{Rank, Science};
use crate::synth::thermal_frame_shared;
use crate::verify::{texture_table, verify_otis, verify_pipeline, verify_texture, Verdict};
use crate::{otis, pipeline, texture, Scenario};
use ree_os::RemoteFs;
use ree_sift::AppFactory;
use ree_sim::SimDuration;
use std::sync::Arc;

/// One of the applications a [`ree_sift::JobSpec`] can name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppKind {
    /// The Mars Rover texture analysis program (§2).
    Texture,
    /// The Orbiting Thermal Imaging Spectrometer application (§2).
    Otis,
    /// The topology-placed image-acquisition pipeline.
    Pipeline,
}

impl AppKind {
    /// Every application, in registration order.
    pub const ALL: [AppKind; 3] = [AppKind::Texture, AppKind::Otis, AppKind::Pipeline];

    /// The name jobs, file paths and input seeds use.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Texture => "texture",
            AppKind::Otis => "otis",
            AppKind::Pipeline => "imgpipe",
        }
    }

    /// The application called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<AppKind> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Factory for this application's ranks under `scenario`'s
    /// workload parameters.
    pub(crate) fn factory(self, scenario: &Scenario) -> AppFactory {
        fn ranks<S: Science>(params: &S::Params) -> AppFactory {
            let params = params.clone();
            Arc::new(move |launch| Box::new(Rank::<S>::new(launch, params.clone())))
        }
        match self {
            AppKind::Texture => ranks::<texture::Texture>(&scenario.texture),
            AppKind::Otis => ranks::<otis::Otis>(&()),
            AppKind::Pipeline => ranks::<pipeline::Pipeline>(&()),
        }
    }

    /// Expected failure-free actual execution time of one job.
    pub(crate) fn nominal(self, scenario: &Scenario) -> SimDuration {
        match self {
            AppKind::Texture => {
                scenario.texture.nominal_per_image() * scenario.texture.images.max(1) as u64
            }
            AppKind::Otis => otis::nominal(),
            AppKind::Pipeline => pipeline::nominal(),
        }
    }

    /// Verdict over every product the job in `slot` should have written.
    pub(crate) fn verify(self, fs: &RemoteFs, scenario: &Scenario, slot: u32) -> Verdict {
        let app = self.name();
        match self {
            AppKind::Texture => {
                let p = &scenario.texture;
                worst((0..p.images).map(|image| {
                    verify_texture(fs, app, slot, image, p.image_px, p.tile_px, p.clusters)
                }))
            }
            AppKind::Otis => worst(
                (0..otis::FRAMES).map(|frame| verify_otis(fs, app, slot, frame, otis::FRAME_PX)),
            ),
            AppKind::Pipeline => worst(
                (0..pipeline::FRAMES)
                    .map(|frame| verify_pipeline(fs, app, slot, frame, pipeline::FRAME_PX)),
            ),
        }
    }

    /// Pre-generates the shared synthetic inputs the job in `slot` reads
    /// (for the texture program, the whole fault-free pipeline over them).
    pub(crate) fn warm(self, scenario: &Scenario, slot: u32) {
        let app = self.name();
        match self {
            AppKind::Texture => {
                let p = &scenario.texture;
                for image in 0..p.images {
                    let seed = texture::texture_image_seed(app, slot, image);
                    texture_table(seed, p.image_px, p.tile_px, p.clusters);
                }
            }
            AppKind::Otis => {
                let seed = otis::otis_frame_seed(app, slot);
                for frame in 0..otis::FRAMES {
                    thermal_frame_shared(otis::FRAME_PX, seed, frame);
                }
            }
            AppKind::Pipeline => {
                let seed = pipeline::pipeline_frame_seed(app, slot);
                for frame in 0..pipeline::FRAMES {
                    thermal_frame_shared(pipeline::FRAME_PX, seed, frame);
                }
            }
        }
    }
}

/// Folds per-product (or per-job) verdicts: anything missing makes the
/// whole missing, otherwise one incorrect makes it incorrect.
pub(crate) fn worst(verdicts: impl IntoIterator<Item = Verdict>) -> Verdict {
    let mut worst = Verdict::Correct;
    for verdict in verdicts {
        match verdict {
            Verdict::Missing => return Verdict::Missing,
            Verdict::Incorrect => worst = Verdict::Incorrect,
            Verdict::Correct => {}
        }
    }
    worst
}
