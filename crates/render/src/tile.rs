//! Tile binning: assign splats to the 16×16-pixel tiles they may touch.
//!
//! The reference rasterizer duplicates each splat into one packed
//! `(tile, depth)` key per tile its 3σ bounding square overlaps and
//! radix-sorts all of those keys. This module produces the same per-tile
//! lists depth first: it sorts the splats once by depth, then scatters
//! that order into tile ranges with a stable counting pass
//! ([`bin_splats_pooled`]), so no key is built or sorted per pair. The
//! result is the flat CSR [`RasterWorkload`].

use crate::pool::WorkerPool;
use crate::preprocess::Splat2D;
use crate::sort::{depth_key_bits, U32Out};
use crate::workload::{FrameArena, RasterWorkload};
use gaurast_math::{Aabb2, Vec2};
use std::ops::Range;

/// Tile index range `(x0, y0, x1, y1)` (inclusive bounds) overlapped by a
/// splat's 3σ square, or `None` when it misses the image entirely.
///
/// The upper bound follows the reference rasterizer's *exclusive-max*
/// convention (`rect_max = ceil(max / tile)`, tiles `[x0, x1e)`): a box
/// ending exactly on a tile boundary does **not** enter the next tile.
/// Splats with a non-finite mean or radius are never binned (upstream
/// Stage 1 culls them; this is defense in depth for direct callers —
/// without it, `floor() as u32` would saturate a NaN to 0 and silently
/// bin the splat into tile (0, 0)).
pub fn tile_range(
    splat: &Splat2D,
    width: u32,
    height: u32,
    tile_size: u32,
) -> Option<(u32, u32, u32, u32)> {
    if !(splat.mean.is_finite() && splat.radius.is_finite()) {
        return None;
    }
    let bbox = Aabb2::from_center_radius(splat.mean, splat.radius);
    let img = Aabb2::new(Vec2::zero(), Vec2::new(width as f32, height as f32));
    if !bbox.intersects(&img) {
        return None;
    }
    let clipped = bbox.intersection(&img);
    let ts = tile_size as f32;
    let x0 = (clipped.min.x / ts).floor().max(0.0) as u32;
    let y0 = (clipped.min.y / ts).floor().max(0.0) as u32;
    let tiles_x = width.div_ceil(tile_size);
    let tiles_y = height.div_ceil(tile_size);
    // Exclusive upper tile bound, then back to the inclusive API. A box
    // whose clipped extent is empty (touching an image edge from outside)
    // covers no tile.
    let x1e = ((clipped.max.x / ts).ceil() as u32).min(tiles_x);
    let y1e = ((clipped.max.y / ts).ceil() as u32).min(tiles_y);
    if x1e <= x0 || y1e <= y0 {
        return None;
    }
    Some((x0, y0, x1e - 1, y1e - 1))
}

/// Bins depth-sortable splats into a CSR workload through
/// [`bin_splats_pooled`] with a fresh arena and the serial pool — the
/// convenience entry for tests and one-off frames.
///
/// Each tile's CSR range is sorted front-to-back, equal depths in
/// submission order.
///
/// # Panics
/// Panics when `tile_size` is zero or the image is empty.
pub fn bin_splats(splats: Vec<Splat2D>, width: u32, height: u32, tile_size: u32) -> RasterWorkload {
    bin_splats_pooled(
        splats,
        width,
        height,
        tile_size,
        &mut FrameArena::new(),
        &WorkerPool::serial(),
    )
}

/// Clears `buf` and zero-fills it to `len` elements. When it must grow,
/// capacity goes to the next power of two, as element-wise pushes grow
/// it: a buffer sized exactly to one frame's pairs would be reallocated on
/// the next frame with more, and each reallocation strands the old block
/// in the allocator (peak RSS rises by about that much).
fn zero_fill<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    if buf.capacity() < len {
        buf.reserve(len.next_power_of_two());
    }
    buf.resize(len, T::default());
}

/// The linear indices of the tiles `splat` covers, one contiguous range
/// per tile row (empty when the splat is binned nowhere).
fn covered_runs(
    splat: &Splat2D,
    width: u32,
    height: u32,
    tile_size: u32,
) -> impl Iterator<Item = Range<usize>> {
    let tiles_x = width.div_ceil(tile_size) as usize;
    tile_range(splat, width, height, tile_size)
        .into_iter()
        .flat_map(move |(x0, y0, x1, y1)| {
            (y0 as usize..=y1 as usize).map(move |ty| {
                let row = ty * tiles_x;
                row + x0 as usize..row + x1 as usize + 1
            })
        })
}

/// PREFIX: an exclusive prefix over (tile, chunk). Row `c` of `rows`
/// holds chunk `c`'s pair count per tile on entry and chunk `c`'s first
/// output index per tile on return; `offsets` (one entry per tile plus a
/// terminator) receives the CSR offsets. Returns the pair total.
///
/// # Panics
/// Panics when the pair total does not fit the `u32` CSR offsets — before
/// anything is written, so the caller allocates no pair-sized buffer.
fn prefix_tile_counts(rows: &mut [Vec<u32>], offsets: &mut [u32]) -> usize {
    let total = rows
        .iter()
        .flatten()
        .try_fold(0u32, |sum, &count| sum.checked_add(count));
    assert!(
        total.is_some(),
        "radix placement offsets are u32: at most 2^32-1 pairs"
    );
    // Every partial sum is at most the checked total: no add overflows.
    let mut running = 0u32;
    for (tile, offset) in offsets.iter_mut().enumerate() {
        *offset = running;
        // The terminator (`tile == tile_count`) has no row entry and
        // receives the total.
        for count in rows.iter_mut().filter_map(|row| row.get_mut(tile)) {
            let start = running;
            running += *count;
            *count = start;
        }
    }
    running as usize
}

/// The Stage-2 hot path, depth first: one stable radix sort of the
/// frame's *splats* by depth, then a counting scatter of that order into
/// per-tile CSR ranges. All scratch comes from `arena`, so steady-state
/// frames make no data-path allocations (and the persistent pool's
/// workers are parked, not respawned, between `run`s); give the buffers
/// back with [`RasterWorkload::recycle_into`].
///
/// 1. **DEPTH ORDER** — [`crate::sort::RadixSorter`] stably sorts one
///    [`depth_key_bits`] key per splat together with its index.
/// 2. **COUNT** — the depth order is cut into one contiguous slice per
///    pool worker; each slice counts its pairs per tile into its own row
///    of a `chunks × tile_count` table ([`FrameArena`] holds it).
/// 3. **PREFIX** — an exclusive prefix over (tile, chunk) on the calling
///    thread gives the CSR offsets and each chunk's first output index
///    per tile.
/// 4. **SCATTER** — each slice walks its splats again and writes their
///    indices into its own (chunk, tile) ranges of the value buffer, with
///    its table row as the cursors.
///
/// Each tile's run holds the splats covering it in depth order under
/// [`f32::total_cmp`] (which [`depth_key_bits`] preserves key for key),
/// ties in submission order: exactly a stable per-tile comparison sort.
/// That order is unique, so the output is **bit-identical** for every
/// worker count although the slicing follows the pool width.
///
/// # Panics
/// Panics when `tile_size` is zero, the image is empty, or the frame has
/// more than `u32::MAX` `(tile, splat)` pairs (the CSR offsets are `u32`;
/// checked before the value buffer is sized).
// gaurast-check: hot-path
pub fn bin_splats_pooled(
    splats: Vec<Splat2D>,
    width: u32,
    height: u32,
    tile_size: u32,
    arena: &mut FrameArena,
    pool: &WorkerPool,
) -> RasterWorkload {
    assert!(tile_size > 0 && width > 0 && height > 0);
    let tiles_x = width.div_ceil(tile_size);
    let tiles_y = height.div_ceil(tile_size);
    let tile_count = (tiles_x * tiles_y) as usize;
    let n = splats.len();

    // DEPTH ORDER: splat indices front to back, equal depths in
    // submission order (the radix sort is stable).
    arena.depth_keys.clear();
    arena
        .depth_keys
        .extend(splats.iter().map(|s| u64::from(depth_key_bits(s.depth))));
    arena.order.clear();
    arena.order.extend(0..n as u32);
    arena
        .sorter
        .sort_pairs(&mut arena.depth_keys, &mut arena.order, pool);
    let order = &arena.order[..];

    // COUNT: chunk c is the c-th contiguous slice of the depth order and
    // counts its pairs per tile into row c.
    let chunks = pool.workers().min(n).max(1);
    let slice = |c: usize| &order[c * n / chunks..(c + 1) * n / chunks];
    if arena.tile_counts.len() < chunks {
        arena.tile_counts.resize_with(chunks, Default::default);
    }
    let rows = &mut arena.tile_counts[..chunks];
    pool.run_mut(rows, |c, counts| {
        counts.clear();
        counts.resize(tile_count, 0);
        for &i in slice(c) {
            for run in covered_runs(&splats[i as usize], width, height, tile_size) {
                for count in &mut counts[run] {
                    *count += 1;
                }
            }
        }
    });

    // PREFIX: CSR offsets, and each row turned into its chunk's cursors.
    let mut offsets = std::mem::take(&mut arena.offsets);
    offsets.clear();
    offsets.resize(tile_count + 1, 0);
    let total = prefix_tile_counts(rows, &mut offsets);

    // SCATTER: chunk c appends its splats, in depth order, to its ranges.
    let mut values = std::mem::take(&mut arena.values);
    zero_fill(&mut values, total);
    {
        let out = U32Out(values.as_mut_ptr());
        let out = &out;
        pool.run_mut(rows, |c, cursors| {
            for &i in slice(c) {
                for run in covered_runs(&splats[i as usize], width, height, tile_size) {
                    for cursor in &mut cursors[run] {
                        let at = *cursor as usize;
                        *cursor += 1;
                        assert!(at < total, "scatter cursor past the pair total");
                        crate::race_region!("disjoint (chunk, tile) scatter slots", {
                            crate::race_write!(out.0.wrapping_add(at), 1);
                            // SAFETY: COUNT and SCATTER walk the same slice
                            // through the same pure `covered_runs`, so
                            // chunk c writes exactly its counted pairs per
                            // tile, starting at the PREFIX start of its
                            // (chunk, tile) range. The exclusive prefix
                            // over exact counts makes those ranges
                            // disjoint and covers `0..total` with them,
                            // `values` holds `total` elements (sized
                            // above; `at < total` is asserted), and
                            // `run_mut` hands each row to one job only.
                            unsafe { *out.0.add(at) = i };
                        });
                    }
                }
            }
        });
    }

    RasterWorkload::from_csr(
        width,
        height,
        tile_size,
        splats,
        values,
        offsets,
        std::mem::take(&mut arena.processed),
        std::mem::take(&mut arena.soa),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::Vec3;

    fn splat_at(x: f32, y: f32, radius: f32, depth: f32) -> Splat2D {
        Splat2D {
            mean: Vec2::new(x, y),
            conic: [0.05, 0.0, 0.05],
            depth,
            color: Vec3::one(),
            opacity: 0.9,
            radius,
            source: 0,
        }
    }

    #[test]
    fn small_splat_lands_in_one_tile() {
        let w = bin_splats(vec![splat_at(8.0, 8.0, 3.0, 1.0)], 64, 64, 16);
        assert_eq!(w.tile_list(0, 0), &[0]);
        assert!(w.tile_list(1, 0).is_empty());
        assert!(w.tile_list(0, 1).is_empty());
        assert_eq!(w.total_pairs(), 1);
    }

    #[test]
    fn splat_on_tile_border_lands_in_both() {
        let w = bin_splats(vec![splat_at(16.0, 8.0, 3.0, 1.0)], 64, 64, 16);
        assert_eq!(w.tile_list(0, 0), &[0]);
        assert_eq!(w.tile_list(1, 0), &[0]);
        assert_eq!(w.total_pairs(), 2);
    }

    #[test]
    fn huge_splat_covers_all_tiles() {
        let w = bin_splats(vec![splat_at(32.0, 32.0, 100.0, 1.0)], 64, 64, 16);
        assert_eq!(w.total_pairs(), 16);
    }

    #[test]
    fn off_image_splat_binned_nowhere() {
        let w = bin_splats(vec![splat_at(-50.0, -50.0, 3.0, 1.0)], 64, 64, 16);
        assert_eq!(w.total_pairs(), 0);
    }

    #[test]
    fn tile_lists_are_depth_sorted() {
        let splats = vec![
            splat_at(8.0, 8.0, 3.0, 5.0),
            splat_at(9.0, 9.0, 3.0, 1.0),
            splat_at(7.0, 7.0, 3.0, 3.0),
        ];
        let w = bin_splats(splats, 32, 32, 16);
        assert_eq!(w.tile_list(0, 0), &[1, 2, 0]);
    }

    #[test]
    fn keyed_path_matches_legacy_path() {
        // The legacy Stage 2: per-tile index lists in submission order,
        // stably depth-sorted by `RasterWorkload::new`.
        let splats: Vec<Splat2D> = (0..60)
            .map(|i| {
                splat_at(
                    (i * 13 % 64) as f32,
                    (i * 29 % 64) as f32,
                    2.0 + (i % 7) as f32,
                    // Repeating depths exercise tie stability.
                    1.0 + (i % 5) as f32,
                )
            })
            .collect();
        let mut lists = vec![Vec::new(); 16];
        for (i, s) in splats.iter().enumerate() {
            if let Some((x0, y0, x1, y1)) = tile_range(s, 64, 64, 16) {
                for ty in y0..=y1 {
                    for tx in x0..=x1 {
                        lists[(ty * 4 + tx) as usize].push(i as u32);
                    }
                }
            }
        }
        let legacy = RasterWorkload::new(64, 64, 16, splats.clone(), lists);
        let keyed = bin_splats_pooled(
            splats,
            64,
            64,
            16,
            &mut FrameArena::new(),
            &WorkerPool::new(3),
        );
        assert_eq!(keyed, legacy);
    }

    #[test]
    fn prefix_orders_starts_tile_major_then_chunk() {
        let mut rows = vec![vec![2, 0, 1], vec![1, 3, 0]];
        let mut offsets = [9; 4];
        assert_eq!(prefix_tile_counts(&mut rows, &mut offsets), 7);
        assert_eq!(offsets, [0, 3, 6, 7]);
        assert_eq!(rows, [vec![0, 3, 6], vec![2, 3, 7]]);
        // A total of exactly u32::MAX still fits the offsets.
        let mut rows = vec![vec![u32::MAX - 1], vec![1]];
        assert_eq!(
            prefix_tile_counts(&mut rows, &mut [0; 2]),
            u32::MAX as usize
        );
    }

    #[test]
    #[should_panic(expected = "at most 2^32-1 pairs")]
    fn pair_total_beyond_u32_is_refused_before_scatter() {
        let mut rows = vec![vec![u32::MAX, 0], vec![0, 1]];
        prefix_tile_counts(&mut rows, &mut [0; 3]);
    }

    #[test]
    fn tile_range_clamps_to_grid() {
        let s = splat_at(63.0, 63.0, 10.0, 1.0);
        let (x0, y0, x1, y1) = tile_range(&s, 64, 64, 16).unwrap();
        assert!(x1 <= 3 && y1 <= 3);
        assert!(x0 <= x1 && y0 <= y1);
    }

    #[test]
    fn partial_edge_tile_binning() {
        // 20x20 image with 16px tiles: 2x2 grid with partial edges.
        let w = bin_splats(vec![splat_at(18.0, 18.0, 1.5, 1.0)], 20, 20, 16);
        assert_eq!(w.tile_list(1, 1), &[0]);
        assert_eq!(w.total_pairs(), 1);
    }

    #[test]
    fn boundary_exact_box_stays_out_of_next_tile() {
        // 3σ box [8-8, 8+8] = [0, 16]: ends exactly on the x=16 tile
        // boundary, so under the exclusive-max convention it must cover
        // only tile column 0 (the bug binned it into column 1 too).
        let (x0, y0, x1, y1) = tile_range(&splat_at(8.0, 8.0, 8.0, 1.0), 64, 64, 16).unwrap();
        assert_eq!((x0, y0, x1, y1), (0, 0, 0, 0));
        let w = bin_splats(vec![splat_at(8.0, 8.0, 8.0, 1.0)], 64, 64, 16);
        assert_eq!(w.total_pairs(), 1);
        assert!(w.tile_list(1, 0).is_empty());
        assert!(w.tile_list(0, 1).is_empty());
    }

    #[test]
    fn box_starting_on_boundary_skips_previous_tile() {
        // Box [16, 22] starts exactly on the boundary: tile column 1 only.
        let (x0, _, x1, _) = tile_range(&splat_at(19.0, 8.0, 3.0, 1.0), 64, 64, 16).unwrap();
        assert_eq!((x0, x1), (1, 1));
    }

    #[test]
    fn degenerate_box_touching_image_edge_is_not_binned() {
        // Box [-6, 0]: touches the image's left edge with an empty clipped
        // extent — the reference's empty rect [0, 0) — so no tile.
        assert!(tile_range(&splat_at(-3.0, 8.0, 3.0, 1.0), 64, 64, 16).is_none());
    }

    #[test]
    fn non_finite_splats_are_never_binned() {
        // A NaN mean used to saturate `floor() as u32` to 0 and silently
        // land the splat in tile (0, 0); now it is not binned at all.
        let mut nan_mean = splat_at(8.0, 8.0, 3.0, 1.0);
        nan_mean.mean = Vec2::new(f32::NAN, 8.0);
        assert!(tile_range(&nan_mean, 64, 64, 16).is_none());
        let mut inf_radius = splat_at(8.0, 8.0, 3.0, 1.0);
        inf_radius.radius = f32::INFINITY;
        assert!(tile_range(&inf_radius, 64, 64, 16).is_none());
        let mut nan_radius = splat_at(8.0, 8.0, 3.0, 1.0);
        nan_radius.radius = f32::NAN;
        assert!(tile_range(&nan_radius, 64, 64, 16).is_none());
    }

    #[test]
    fn recycled_arena_produces_identical_workloads() {
        let splats = vec![
            splat_at(8.0, 8.0, 3.0, 2.0),
            splat_at(40.0, 40.0, 5.0, 1.0),
            splat_at(16.0, 16.0, 4.0, 3.0),
        ];
        let fresh = bin_splats(splats.clone(), 64, 64, 16);
        // Recycle through a stale arena from a differently sized grid.
        let mut arena = FrameArena::new();
        let pool = WorkerPool::serial();
        let stale = bin_splats_pooled(splats.clone(), 128, 96, 16, &mut arena, &pool);
        stale.recycle_into(&mut arena);
        let reused = bin_splats_pooled(splats, 64, 64, 16, &mut arena, &pool);
        assert_eq!(fresh, reused);
    }
}
