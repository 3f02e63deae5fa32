//! Output correctness: frame signatures and the failure ledger.

use gaurast::backend::{BackendKind, FrameReport};
use gaurast_render::Framebuffer;

/// Everything about a frame that must repeat exactly for a given seed,
/// scene and pose: the image bits and the deterministic counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameSig {
    /// FNV-1a over the color and transmittance bits; `None` when the
    /// report carries no image although images are retained.
    pub image: Option<u64>,
    pub pairs: u64,
    pub blend_work: u64,
    pub blends_committed: u64,
    pub visible: usize,
    /// Backend-issued operations (deterministic on every backend).
    pub ops: u64,
    /// Bits of the modeled Stage-3 time and energy; zero on the software
    /// backend, whose time is host wall time.
    pub modeled: (u64, u64),
}

impl FrameSig {
    pub fn of(report: &FrameReport) -> Self {
        let modeled = if report.kind == BackendKind::Software {
            (0, 0)
        } else {
            (report.time_s.to_bits(), report.energy_j.to_bits())
        };
        Self {
            image: report.image.as_ref().map(image_hash),
            pairs: report.stats.pairs,
            blend_work: report.stats.blend_work,
            blends_committed: report.stats.blends_committed,
            visible: report.stats.visible,
            ops: report.ops,
            modeled,
        }
    }

    /// The workload counters every backend bills identically for one
    /// (scene, pose): pairs, blend work, committed blends, visible splats.
    pub fn shared_counters(&self) -> (u64, u64, u64, usize) {
        (
            self.pairs,
            self.blend_work,
            self.blends_committed,
            self.visible,
        )
    }
}

/// FNV-1a over the framebuffer's dimensions, color and transmittance bits.
pub fn image_hash(fb: &Framebuffer) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |word: u32| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(fb.width());
    eat(fb.height());
    for c in fb.colors() {
        eat(c.x.to_bits());
        eat(c.y.to_bits());
        eat(c.z.to_bits());
    }
    for y in 0..fb.height() {
        for x in 0..fb.width() {
            eat(fb.transmittance_at(x, y).to_bits());
        }
    }
    h
}

/// Counts checked frames and failures; keeps the first few problems.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    guard_failed: bool,
    problems: Vec<String>,
}

const KEPT_PROBLEMS: usize = 8;

impl Ledger {
    /// Records one attempted frame (or request) and whether it passed.
    pub fn frame(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    /// Records `n` requests of a batch that failed as a whole.
    pub fn failed_batch(&mut self, n: usize, why: String) {
        self.attempted += n as u64;
        self.failed += n as u64;
        self.note(why);
    }

    /// A check on the run as a whole (workload character, determinism of
    /// an aggregate) rather than on one frame.
    pub fn guard(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.guard_failed = true;
            self.note(what());
        }
    }

    fn note(&mut self, problem: String) {
        if self.problems.len() < KEPT_PROBLEMS {
            self.problems.push(problem);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.guard_failed && self.attempted > 0
    }

    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}
