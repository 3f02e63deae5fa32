//! Per-layer metrics of the traced pass: replayed-frame spans and counters,
//! interleaved with untraced entry-point calls measured for time,
//! allocations, pool spawns and pool builds.

use crate::alloc::allocation_count;
use crate::check::Ledger;
use crate::replay::{Counts, Replayed};
use crate::stats::{mean, median, Metric};
use gaurast_render::pool::{construction_count, spawned_thread_count};
use std::collections::BTreeMap;
use std::time::Instant;

/// Cost of one untraced call into the program.
#[derive(Clone, Copy, Debug)]
pub struct CallCost {
    pub ms: f64,
    pub allocs: u64,
    pub spawns: u64,
    pub builds: u64,
}

/// Runs `f` and measures its wall time and counter deltas.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, CallCost) {
    let (a0, s0, b0) = (
        allocation_count(),
        spawned_thread_count(),
        construction_count(),
    );
    let started = Instant::now();
    let out = std::hint::black_box(f());
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let cost = CallCost {
        ms,
        allocs: allocation_count() - a0,
        spawns: spawned_thread_count() - s0,
        builds: construction_count() - b0,
    };
    (out, cost)
}

/// Exact per-cycle sums of the replayed frames' counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct CountSums {
    frames: u64,
    visible: u64,
    emitted: u64,
    processed: u64,
    evaluated: u64,
    blends: u64,
    hw_frames: u64,
    hw_cycles: u64,
    hw_stall: u64,
    hw_util: f64,
    hw_energy_j: f64,
    gscore_frames: u64,
    gscore_work: u64,
}

impl CountSums {
    fn add(&mut self, c: &Counts) {
        self.frames += 1;
        self.visible += c.visible;
        self.emitted += c.pairs_emitted;
        self.processed += c.pairs_processed;
        self.evaluated += c.pairs_evaluated;
        self.blends += c.blends_committed;
        if let Some(hw) = c.hw {
            self.hw_frames += 1;
            self.hw_cycles += hw.cycles;
            self.hw_stall += hw.stall_cycles;
            self.hw_util += hw.utilization;
            self.hw_energy_j += hw.energy_j;
        }
        if let Some(work) = c.gscore_work {
            self.gscore_frames += 1;
            self.gscore_work += work;
        }
    }

    /// `num / den`, or 0 for a layer that did not run on this workload.
    fn per(num: f64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num / den as f64
        }
    }
}

/// One pass over every pose (or request) of the workload.
#[derive(Debug, Default)]
struct Cycle {
    layer_ms: BTreeMap<&'static str, Vec<f64>>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    coverage: Vec<f64>,
    allocs: Vec<f64>,
    spawns: Vec<f64>,
    builds: Vec<f64>,
    lookups: u64,
    hits: u64,
    counts: CountSums,
}

/// Accumulates the traced pass, cycle by cycle.
#[derive(Debug, Default)]
pub struct LayerStats {
    cycles: Vec<Cycle>,
    pub session_open_ms: Vec<f64>,
    pub pool_builds_per_batch: Vec<f64>,
}

/// Layer spans reported as `<metric>` = mean self time per frame in which
/// the span ran.
const SPAN_METRICS: [(&str, &str); 7] = [
    ("scene.visibility_ms", "scene.visibility"),
    ("render.stage1_ms", "render.stage1"),
    ("render.stage2_ms", "render.stage2"),
    ("render.stage3_ms", "render.stage3"),
    ("hw.render_ms", "hw.render"),
    ("gscore.simulate_ms", "gscore.simulate"),
    ("gpu.model_ms", "gpu.model"),
];

impl LayerStats {
    pub fn begin_cycle(&mut self) {
        self.cycles.push(Cycle::default());
    }

    fn cycle(&mut self) -> &mut Cycle {
        self.cycles
            .last_mut()
            .expect("begin_cycle before recording")
    }

    /// Records one untraced `render_frame` call.
    pub fn untraced(&mut self, cost: CallCost) {
        let c = self.cycle();
        c.untraced_ms.push(cost.ms);
        c.allocs.push(cost.allocs as f64);
        c.spawns.push(cost.spawns as f64);
        c.builds.push(cost.builds as f64);
    }

    /// Records one replayed frame.
    pub fn traced(&mut self, r: &Replayed) {
        let c = self.cycle();
        for (&name, &ms) in &r.trace.self_ms {
            c.layer_ms.entry(name).or_default().push(ms);
        }
        c.traced_ms.push(r.trace.frame_ms);
        c.coverage.push(r.trace.coverage());
        c.lookups += 1;
        c.hits += u64::from(r.cache_hit);
        c.counts.add(&r.counts);
    }

    /// Exact counts of the first cycle, after checking that every cycle
    /// repeated them.
    fn exact_counts(&self, ledger: &mut Ledger) -> CountSums {
        assert!(!self.cycles.is_empty(), "the traced pass runs whole cycles");
        let first = self.cycles[0].counts;
        for (i, c) in self.cycles.iter().enumerate().skip(1) {
            ledger.guard(c.counts == first, || {
                format!(
                    "counters drifted in traced cycle {i}: {:?} vs {first:?}",
                    c.counts
                )
            });
        }
        first
    }

    /// `render.processed_ratio` of the traced pass.
    pub fn processed_ratio(&self) -> f64 {
        let c = self.cycles[0].counts;
        CountSums::per(c.processed as f64, c.emitted)
    }

    /// Median over cycles of a per-cycle statistic.
    fn over_cycles(&self, f: impl Fn(&Cycle) -> f64) -> f64 {
        median(&self.cycles.iter().map(f).collect::<Vec<_>>())
    }

    pub fn metrics(&self, ledger: &mut Ledger) -> Vec<Metric> {
        let n = self.cycles.iter().map(|c| c.traced_ms.len()).sum();
        let k = self.exact_counts(ledger);
        let per_frame = |v: u64| CountSums::per(v as f64, k.frames);
        let mut m = Vec::new();
        for (metric, span) in SPAN_METRICS {
            let samples: usize = self
                .cycles
                .iter()
                .map(|c| c.layer_ms.get(span).map_or(0, Vec::len))
                .sum();
            let value = if samples == 0 {
                0.0
            } else {
                self.over_cycles(|c| c.layer_ms.get(span).map_or(0.0, |v| mean(v)))
            };
            m.push(Metric::new(metric, value, "ms", samples));
        }
        m.push(Metric::new(
            "render.visible",
            per_frame(k.visible),
            "count",
            1,
        ));
        m.push(Metric::new(
            "render.pairs_emitted",
            per_frame(k.emitted),
            "count",
            1,
        ));
        m.push(Metric::new(
            "render.pairs_processed",
            per_frame(k.processed),
            "count",
            1,
        ));
        m.push(Metric::new(
            "render.pairs_evaluated",
            per_frame(k.evaluated),
            "count",
            1,
        ));
        m.push(Metric::new(
            "render.blends_committed",
            per_frame(k.blends),
            "count",
            1,
        ));
        m.push(Metric::new(
            "render.processed_ratio",
            self.processed_ratio(),
            "ratio",
            1,
        ));
        let (hits, lookups) = self
            .cycles
            .iter()
            .fold((0, 0), |(h, l), c| (h + c.hits, l + c.lookups));
        m.push(Metric::new(
            "scene.visibility_hit_ratio",
            CountSums::per(hits as f64, lookups),
            "ratio",
            lookups as usize,
        ));
        let untraced: usize = self.cycles.iter().map(|c| c.untraced_ms.len()).sum();
        m.push(Metric::new(
            "render.allocs_per_frame",
            self.over_cycles(|c| mean(&c.allocs)),
            "count",
            untraced,
        ));
        m.push(Metric::new(
            "render.pool_spawns_per_frame",
            self.over_cycles(|c| mean(&c.spawns)),
            "count",
            untraced,
        ));
        m.push(Metric::new(
            "render.pool_builds_per_frame",
            self.over_cycles(|c| mean(&c.builds)),
            "count",
            untraced,
        ));
        m.push(Metric::new(
            "core.session_open_ms",
            median(&self.session_open_ms),
            "ms",
            self.session_open_ms.len(),
        ));
        m.push(Metric::new(
            "core.pool_builds_per_batch",
            mean(&self.pool_builds_per_batch),
            "count",
            self.pool_builds_per_batch.len(),
        ));
        let hw = k.hw_frames;
        m.push(Metric::new(
            "hw.cycles",
            CountSums::per(k.hw_cycles as f64, hw),
            "count",
            1,
        ));
        m.push(Metric::new(
            "hw.utilization",
            CountSums::per(k.hw_util, hw),
            "ratio",
            1,
        ));
        m.push(Metric::new(
            "hw.stall_cycles",
            CountSums::per(k.hw_stall as f64, hw),
            "count",
            1,
        ));
        m.push(Metric::new(
            "hw.energy_mj",
            CountSums::per(k.hw_energy_j * 1e3, hw),
            "mJ",
            1,
        ));
        m.push(Metric::new(
            "gscore.subtile_pixel_work",
            CountSums::per(k.gscore_work as f64, k.gscore_frames),
            "count",
            1,
        ));
        m.push(Metric::new(
            "trace.overhead_ms",
            self.over_cycles(|c| mean(&c.traced_ms) - mean(&c.untraced_ms)),
            "ms",
            n,
        ));
        m.push(Metric::new(
            "trace.coverage",
            self.over_cycles(|c| mean(&c.coverage)),
            "ratio",
            n,
        ));
        m
    }
}
