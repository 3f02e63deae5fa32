//! Stage-2 equivalence suite: the depth-first path (one radix sort of the
//! splats by depth, then a pooled counting scatter into CSR tile ranges)
//! must be **bit-identical** to the legacy per-tile comparison-sort
//! algorithm (kept here as a test oracle) — workloads, processed counts,
//! statistics and rendered images — for random scenes, cameras,
//! tie-heavy depth distributions, boundary-exact tile boxes, scatter
//! slices of every size, and every worker count.

use gaurast_math::{Vec2, Vec3};
use gaurast_render::pipeline::{render, PreprocessStats, RenderConfig};
use gaurast_render::preprocess::preprocess;
use gaurast_render::rasterize::rasterize;
use gaurast_render::sort::{depth_key_bits, is_depth_sorted, RadixSorter};
use gaurast_render::tile::{bin_splats_pooled, tile_range};
use gaurast_render::{FrameArena, RasterWorkload, Splat2D, WorkerPool};
use gaurast_scene::{Camera, Gaussian3, GaussianScene};
use proptest::prelude::*;

/// The legacy per-tile Stage 2 as a test oracle: bin splat indices into
/// per-tile lists in submission order, then stably sort each list by
/// depth under [`f32::total_cmp`].
fn per_tile_oracle(splats: Vec<Splat2D>, width: u32, height: u32, ts: u32) -> RasterWorkload {
    let tiles_x = width.div_ceil(ts);
    let mut lists = vec![Vec::new(); (tiles_x * height.div_ceil(ts)) as usize];
    for (i, s) in splats.iter().enumerate() {
        if let Some((x0, y0, x1, y1)) = tile_range(s, width, height, ts) {
            for ty in y0..=y1 {
                for tx in x0..=x1 {
                    lists[(ty * tiles_x + tx) as usize].push(i as u32);
                }
            }
        }
    }
    for list in &mut lists {
        list.sort_by(|&a, &b| {
            splats[a as usize]
                .depth
                .total_cmp(&splats[b as usize].depth)
        });
    }
    RasterWorkload::new(width, height, ts, splats, lists)
}

/// Random splats with deliberately nasty Stage-2 shapes: quantized depths
/// (many exact ties), radii that can land the 3σ box exactly on tile
/// boundaries, and means both on and off the image.
fn splat_strategy() -> impl Strategy<Value = Splat2D> {
    (
        -20.0f32..84.0,
        -20.0f32..84.0,
        // Quantized radii: integer and half-integer values produce
        // boundary-exact boxes (e.g. mean 8, radius 8 → box [0, 16]).
        0u32..32,
        // Quantized depths: at most 8 distinct values over dozens of
        // splats → guaranteed equal-depth runs per tile.
        0u32..8,
    )
        .prop_map(|(x, y, r2, d)| Splat2D {
            mean: Vec2::new(x, y),
            conic: [0.05, 0.0, 0.05],
            depth: 0.5 + d as f32 * 0.25,
            color: Vec3::new(0.8, 0.4, 0.2),
            opacity: 0.7,
            radius: r2 as f32 * 0.5,
            source: 0,
        })
}

fn gaussian_strategy() -> impl Strategy<Value = Gaussian3> {
    (
        -8.0f32..8.0,
        -8.0f32..8.0,
        -8.0f32..8.0,
        0.02f32..1.2,
        0.05f32..0.99,
        0.0f32..1.0,
    )
        .prop_map(|(x, y, z, sigma, opacity, hue)| {
            Gaussian3::isotropic(
                Vec3::new(x, y, z),
                sigma,
                opacity,
                Vec3::new(hue, 1.0 - hue, 0.5),
            )
        })
}

fn camera_strategy() -> impl Strategy<Value = Camera> {
    (0.0f32..std::f32::consts::TAU, 2.0f32..10.0, -4.0f32..6.0).prop_map(|(theta, dist, height)| {
        Camera::look_at(
            Vec3::new(dist * 2.5 * theta.sin(), height, -dist * 2.5 * theta.cos()),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            96,
            80,
            1.05,
        )
        .expect("valid orbit camera")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole acceptance: the full pipeline at a random worker
    /// count vs a serial pass over the per-tile oracle — image bytes,
    /// workload (splats + CSR + processed), and every statistic must be
    /// equal.
    #[test]
    fn full_pipeline_keyed_equals_legacy(
        gaussians in prop::collection::vec(gaussian_strategy(), 1..300),
        camera in camera_strategy(),
        workers in 1usize..5,
    ) {
        let scene = GaussianScene::from_gaussians(gaussians).expect("non-empty scene");
        let keyed = render(&scene, &camera, &RenderConfig::default().with_workers(workers));
        let pre = preprocess(&scene, &camera);
        prop_assert_eq!(keyed.preprocess, PreprocessStats::from(&pre));
        let mut legacy = per_tile_oracle(pre.splats, camera.width(), camera.height(), 16);
        let (image, raster) = rasterize(&mut legacy);
        prop_assert_eq!(&keyed.image, &image, "image planes must be bit-identical");
        prop_assert_eq!(&keyed.workload, &legacy, "workloads must be bit-identical");
        prop_assert_eq!(keyed.raster, raster);
    }

    /// Raw-splat binning equivalence, including equal-depth stability and
    /// boundary-exact boxes: the keyed CSR table must equal the flattened,
    /// comparison-sorted oracle lists entry for entry.
    #[test]
    fn binning_keyed_equals_legacy_on_adversarial_splats(
        mut splats in prop::collection::vec(splat_strategy(), 0..120),
        workers in 1usize..5,
    ) {
        for (i, s) in splats.iter_mut().enumerate() {
            s.source = i as u32;
        }
        let pool = WorkerPool::new(workers);
        let keyed = bin_splats_pooled(splats.clone(), 64, 64, 16, &mut FrameArena::new(), &pool);
        let legacy = per_tile_oracle(splats, 64, 64, 16);
        prop_assert_eq!(&keyed, &legacy);
        // Equal-depth runs must preserve submission order (stability):
        // within a tile, ties are ordered by ascending splat index.
        let s = keyed.splats();
        for tile in keyed.tiles() {
            prop_assert!(is_depth_sorted(tile.list, s));
            for w in tile.list.windows(2) {
                if s[w[0] as usize].depth == s[w[1] as usize].depth {
                    prop_assert!(w[0] < w[1], "tie broke submission order");
                }
            }
        }
    }

    /// CSR structural invariants on arbitrary binned input.
    #[test]
    fn csr_offsets_are_a_monotone_cover(
        splats in prop::collection::vec(splat_strategy(), 0..100),
    ) {
        let w = bin_splats_pooled(splats, 96, 48, 16, &mut FrameArena::new(), &WorkerPool::serial());
        let offsets = w.offsets();
        prop_assert_eq!(offsets.len(), w.tile_count() + 1);
        prop_assert_eq!(offsets[0], 0);
        prop_assert_eq!(*offsets.last().unwrap() as usize, w.values().len());
        prop_assert!(offsets.windows(2).all(|x| x[0] <= x[1]));
        prop_assert_eq!(w.total_pairs(), w.values().len() as u64);
        // Per-tile slices tile the value buffer exactly.
        let mut reassembled = Vec::new();
        for t in w.tiles() {
            prop_assert_eq!(t.list, w.tile_list(t.tx, t.ty));
            reassembled.extend_from_slice(t.list);
        }
        prop_assert_eq!(reassembled.as_slice(), w.values());
    }

    /// The ordered-u32 depth mapping is exactly total_cmp order — over
    /// arbitrary bit patterns, so NaNs, infinities, subnormals and both
    /// zeros are all drawn.
    #[test]
    fn depth_key_bits_matches_total_cmp(a_bits in any::<u32>(), b_bits in any::<u32>()) {
        let (a, b) = (f32::from_bits(a_bits), f32::from_bits(b_bits));
        prop_assert_eq!(
            depth_key_bits(a).cmp(&depth_key_bits(b)),
            a.total_cmp(&b),
            "{} vs {}", a, b
        );
    }

    /// The radix sorter is bit-identical at widths 1–8 and equal to the
    /// stable comparison sort, across multiple chunks.
    #[test]
    fn radix_sort_is_width_invariant_and_stable(
        seed in 0u64..1000,
        n in 1usize..200_000,
    ) {
        // xorshift keys with a narrow active-digit mask so several radix
        // passes are skipped and ties are common.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let keys: Vec<u64> = (0..n).map(|_| next() & 0x3F_0000_FFFF).collect();
        let vals: Vec<u32> = (0..n as u32).collect();
        let mut expected: Vec<(u64, u32)> =
            keys.iter().copied().zip(vals.iter().copied()).collect();
        expected.sort_by_key(|&(k, _)| k); // stable

        for workers in 1..=8usize {
            let mut k = keys.clone();
            let mut v = vals.clone();
            RadixSorter::new().sort_pairs(&mut k, &mut v, &WorkerPool::new(workers));
            let got: Vec<(u64, u32)> = k.into_iter().zip(v).collect();
            prop_assert_eq!(&got, &expected, "width {} diverged", workers);
        }
    }
}

/// Scatter slicing: Stage 2 cuts the depth order into one slice per
/// worker, so at width `w` the splat counts 0, 1, `w − 1`, `w` and
/// `w + 1` give empty, single-splat and uneven slices, and a
/// multi-thousand scene gives long ones. All bin identically to the
/// per-tile oracle at every width 1–8.
#[test]
fn emission_chunk_boundaries_match_oracle_at_widths_1_to_8() {
    let splat = |i: usize| Splat2D {
        mean: Vec2::new((i * 37 % 200) as f32 - 20.0, (i * 53 % 140) as f32 - 10.0),
        conic: [0.05, 0.0, 0.05],
        // Few distinct depths: long equal-depth runs span slice seams.
        depth: 0.5 + (i % 11) as f32 * 0.25,
        color: Vec3::one(),
        opacity: 0.6,
        radius: (i % 23) as f32 * 0.5,
        source: i as u32,
    };
    let scene = |n: usize| (0..n).map(splat).collect::<Vec<Splat2D>>();
    let large = scene(4103);
    let large_oracle = per_tile_oracle(large.clone(), 160, 112, 16);
    for workers in 1..=8usize {
        let pool = WorkerPool::new(workers);
        let mut arena = FrameArena::new();
        for n in [0, 1, workers - 1, workers, workers + 1] {
            let splats = scene(n);
            let oracle = per_tile_oracle(splats.clone(), 160, 112, 16);
            let got = bin_splats_pooled(splats, 160, 112, 16, &mut arena, &pool);
            assert_eq!(got, oracle, "{n} splats at width {workers}");
            got.recycle_into(&mut arena);
        }
        let got = bin_splats_pooled(large.clone(), 160, 112, 16, &mut arena, &pool);
        assert_eq!(
            got,
            large_oracle,
            "{} splats at width {workers}",
            large.len()
        );
    }
}

/// Equal depths keep submission order across tiles and slice seams: a
/// tie-heavy scene of splats covering several tiles each, with depths
/// drawn from {−0.0, +0.0, 1.0, 2.0}, bins to the oracle at every width,
/// every tie in every tile runs in ascending splat index, and −0.0 sorts
/// before +0.0 (as [`f32::total_cmp`] orders them).
#[test]
fn tie_heavy_depths_keep_submission_order_at_every_width() {
    let depths = [0.0f32, -0.0, 1.0, 0.0, 2.0, -0.0, 1.0];
    let splats: Vec<Splat2D> = (0..61usize)
        .map(|i| Splat2D {
            mean: Vec2::new((i * 11 % 64) as f32, (i * 7 % 48) as f32),
            conic: [0.05, 0.0, 0.05],
            depth: depths[i % depths.len()],
            color: Vec3::one(),
            opacity: 0.6,
            // 3σ squares of 12–30 px: each splat covers 1–9 tiles.
            radius: 6.0 + (i % 4) as f32 * 3.0,
            source: i as u32,
        })
        .collect();
    let oracle = per_tile_oracle(splats.clone(), 64, 48, 16);
    for workers in 1..=8 {
        let got = bin_splats_pooled(
            splats.clone(),
            64,
            48,
            16,
            &mut FrameArena::new(),
            &WorkerPool::new(workers),
        );
        assert_eq!(got, oracle, "width {workers}");
        let s = got.splats();
        for tile in got.tiles() {
            for w in tile.list.windows(2) {
                let (a, b) = (s[w[0] as usize].depth, s[w[1] as usize].depth);
                assert_ne!(a.total_cmp(&b), std::cmp::Ordering::Greater);
                if a.to_bits() == b.to_bits() {
                    assert!(w[0] < w[1], "tie broke submission order at width {workers}");
                }
            }
            let neg = tile
                .list
                .iter()
                .rposition(|&i| s[i as usize].depth.to_bits() == (-0.0f32).to_bits());
            let pos = tile
                .list
                .iter()
                .position(|&i| s[i as usize].depth.to_bits() == 0);
            if let (Some(neg), Some(pos)) = (neg, pos) {
                assert!(neg < pos, "-0.0 must precede +0.0");
            }
        }
    }
    // The scene really is tie-heavy across tiles.
    assert!(oracle.tiles().filter(|t| t.list.len() > 8).count() >= 4);
}

/// Steady-state Stage 2 must not allocate: after the first frame warms the
/// arena, identical frames reuse every buffer (observable as identical
/// capacities and pointer-stable CSR buffers).
#[test]
fn arena_reuse_is_pointer_stable_across_frames() {
    let splats: Vec<Splat2D> = (0..500)
        .map(|i| Splat2D {
            mean: Vec2::new((i * 13 % 96) as f32, (i * 29 % 48) as f32),
            conic: [0.05, 0.0, 0.05],
            depth: 1.0 + (i % 17) as f32 * 0.125,
            color: Vec3::one(),
            opacity: 0.6,
            radius: 4.0,
            source: i as u32,
        })
        .collect();
    let pool = WorkerPool::serial();
    let mut arena = FrameArena::new();

    // Two warm-up frames size every buffer and reveal both ping-pong
    // identities of the value buffer (the radix sort may hand back the
    // scratch buffer on odd pass counts — that is reuse, not allocation).
    let mut value_ptrs = Vec::new();
    let mut offset_ptrs = Vec::new();
    for _ in 0..2 {
        let w = bin_splats_pooled(splats.clone(), 96, 48, 16, &mut arena, &pool);
        value_ptrs.push(w.values().as_ptr());
        offset_ptrs.push(w.offsets().as_ptr());
        w.recycle_into(&mut arena);
    }

    // Steady-state frames must only ever hand back those same buffers.
    for _ in 0..4 {
        let w = bin_splats_pooled(splats.clone(), 96, 48, 16, &mut arena, &pool);
        assert!(
            value_ptrs.contains(&w.values().as_ptr()),
            "steady-state Stage 2 allocated a new value buffer"
        );
        assert!(
            offset_ptrs.contains(&w.offsets().as_ptr()),
            "steady-state Stage 2 allocated a new offset buffer"
        );
        w.recycle_into(&mut arena);
    }
}
