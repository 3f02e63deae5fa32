//! The rasterization workload — the interface between the software pipeline
//! and the architecture models.
//!
//! Stages 1–2 produce a [`RasterWorkload`]: the preprocessed splats plus a
//! flat **CSR** (compressed sparse row) table of depth-sorted splat indices
//! — one contiguous `values` buffer holding every (splat, tile) pair
//! tile-major, and an `offsets` table with one entry per tile plus a
//! terminator, so tile `i`'s list is `values[offsets[i]..offsets[i + 1]]`.
//! Both the CUDA baseline model and the GauRast cycle-accurate simulator
//! consume this same structure, so the speedups compare identical work
//! (DESIGN.md §6, decision 1).
//!
//! The CSR buffers, and the per-splat depth order Stage 2 scatters into
//! them ([`crate::tile::bin_splats_pooled`]), live in a per-session
//! [`FrameArena`], so steady-state frames run Stage 2 without allocating.

use crate::preprocess::Splat2D;
use crate::sort::RadixSorter;

/// Structure-of-arrays view of the frame's splat list — the lane-friendly
/// memory the SIMD Stage-3 kernels read (`crate::simd::stage3`).
///
/// Every field is one contiguous `f32` array, index-aligned with the
/// [`RasterWorkload::splats`] slice it is derived from:
///
/// ```text
/// x:       [ mean.x  | mean.x  | ... ]   splat center, pixels
/// y:       [ mean.y  | mean.y  | ... ]
/// depth:   [ depth   | depth   | ... ]   camera-space z
/// conic_a: [ conic[0]| conic[0]| ... ]   inverse-covariance terms
/// conic_b: [ conic[1]| conic[1]| ... ]
/// conic_c: [ conic[2]| conic[2]| ... ]
/// alpha:   [ opacity | opacity | ... ]
/// r/g/b:   [ color   | color   | ... ]   evaluated SH color
/// ```
///
/// A gather that would cost one strided `Splat2D` load per lane becomes a
/// single broadcast per field. The buffers live in the session
/// [`FrameArena`] and are refilled during CSR construction
/// (`RasterWorkload::from_csr`), so steady-state frames do not allocate.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SplatSoA {
    /// Splat center x (`Splat2D::mean.x`).
    pub(crate) x: Vec<f32>,
    /// Splat center y (`Splat2D::mean.y`).
    pub(crate) y: Vec<f32>,
    /// Camera-space depth (`Splat2D::depth`).
    pub(crate) depth: Vec<f32>,
    /// Inverse-covariance term `conic[0]`.
    pub(crate) conic_a: Vec<f32>,
    /// Inverse-covariance term `conic[1]`.
    pub(crate) conic_b: Vec<f32>,
    /// Inverse-covariance term `conic[2]`.
    pub(crate) conic_c: Vec<f32>,
    /// Splat opacity (`Splat2D::opacity`).
    pub(crate) alpha: Vec<f32>,
    /// Red channel of the evaluated color.
    pub(crate) r: Vec<f32>,
    /// Green channel of the evaluated color.
    pub(crate) g: Vec<f32>,
    /// Blue channel of the evaluated color.
    pub(crate) b: Vec<f32>,
}

impl SplatSoA {
    /// Number of splats in the view.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when the view holds no splats.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Refills every column from `splats`, reusing the existing buffer
    /// capacity (steady-state frames stay allocation-free).
    pub(crate) fn fill(&mut self, splats: &[Splat2D]) {
        self.x.clear();
        self.y.clear();
        self.depth.clear();
        self.conic_a.clear();
        self.conic_b.clear();
        self.conic_c.clear();
        self.alpha.clear();
        self.r.clear();
        self.g.clear();
        self.b.clear();
        self.x.reserve(splats.len());
        self.y.reserve(splats.len());
        self.depth.reserve(splats.len());
        self.conic_a.reserve(splats.len());
        self.conic_b.reserve(splats.len());
        self.conic_c.reserve(splats.len());
        self.alpha.reserve(splats.len());
        self.r.reserve(splats.len());
        self.g.reserve(splats.len());
        self.b.reserve(splats.len());
        for s in splats {
            self.x.push(s.mean.x);
            self.y.push(s.mean.y);
            self.depth.push(s.depth);
            self.conic_a.push(s.conic[0]);
            self.conic_b.push(s.conic[1]);
            self.conic_c.push(s.conic[2]);
            self.alpha.push(s.opacity);
            self.r.push(s.color.x);
            self.g.push(s.color.y);
            self.b.push(s.color.z);
        }
    }
}

/// Per-tile, depth-ordered rasterization work for one frame, in CSR form.
#[derive(Clone, Debug)]
pub struct RasterWorkload {
    width: u32,
    height: u32,
    tile_size: u32,
    tiles_x: u32,
    tiles_y: u32,
    splats: Vec<Splat2D>,
    /// Flat, tile-major splat-index buffer: every (splat, tile) pair once,
    /// each tile's run depth-sorted.
    values: Vec<u32>,
    /// CSR offset table, `tile_count() + 1` entries: tile `i` owns
    /// `values[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Per-tile processed counts recorded by the reference rasterizer;
    /// empty until [`RasterWorkload::set_processed`] runs.
    processed: Vec<u32>,
    /// Structure-of-arrays view of `splats`, derived during CSR
    /// construction for the SIMD Stage-3 kernels.
    soa: SplatSoA,
}

impl PartialEq for RasterWorkload {
    /// Equality over the semantic content: grid, splats, CSR table, and
    /// processed counts. The SoA view is excluded — it is derived
    /// column-for-column from `splats`, so it carries no extra state.
    fn eq(&self, other: &Self) -> bool {
        (
            self.width,
            self.height,
            self.tile_size,
            &self.splats,
            &self.values,
            &self.offsets,
            &self.processed,
        ) == (
            other.width,
            other.height,
            other.tile_size,
            &other.splats,
            &other.values,
            &other.offsets,
            &other.processed,
        )
    }
}

impl RasterWorkload {
    /// Assembles a workload from per-tile index lists, stably
    /// depth-sorting each list (the Stage-2 invariant every consumer
    /// relies on — Stage 3 no longer sorts in its tile jobs, so the
    /// constructor establishes the order; already-sorted lists pass
    /// through bit-identically). This is the compatibility entry for
    /// tests, custom tilers and trace replay ([`crate::trace`]); the
    /// reference pipeline builds workloads through the depth-first CSR
    /// path ([`crate::tile::bin_splats_pooled`]).
    ///
    /// # Panics
    /// Panics when the tile-list count does not match the grid, when the
    /// tile size is zero, or when any index is out of bounds.
    pub fn new(
        width: u32,
        height: u32,
        tile_size: u32,
        splats: Vec<Splat2D>,
        tile_lists: Vec<Vec<u32>>,
    ) -> Self {
        assert!(tile_size > 0, "tile size must be positive");
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        let tiles_x = width.div_ceil(tile_size);
        let tiles_y = height.div_ceil(tile_size);
        assert_eq!(
            tile_lists.len(),
            (tiles_x * tiles_y) as usize,
            "tile list count must match the grid"
        );
        let total: usize = tile_lists.iter().map(Vec::len).sum();
        let mut values = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(tile_lists.len() + 1);
        offsets.push(0u32);
        for list in &tile_lists {
            let start = values.len();
            for &i in list {
                assert!((i as usize) < splats.len(), "splat index {i} out of bounds");
                values.push(i);
            }
            crate::sort::sort_indices_by_depth(&mut values[start..], &splats);
            offsets.push(values.len() as u32);
        }
        Self::from_csr(
            width,
            height,
            tile_size,
            splats,
            values,
            offsets,
            Vec::new(),
            SplatSoA::default(),
        )
    }

    /// Assembles a workload directly from CSR buffers (the arena-backed
    /// binning path). `processed` may carry a recycled (cleared) counts
    /// buffer whose capacity is reused by the next
    /// [`RasterWorkload::set_processed`].
    ///
    /// `soa` may carry recycled structure-of-arrays buffers (usually
    /// `mem::take`n from [`FrameArena::soa`]); it is refilled from
    /// `splats` here so every workload leaves construction with an
    /// index-aligned [`SplatSoA`] view.
    ///
    /// # Panics
    /// Panics when the offset table does not match the grid or is not a
    /// monotone cover of `values`. Index bounds are a `debug_assert` — the
    /// binning paths emit indices straight from the splat iteration, and
    /// this constructor is on the per-frame hot path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_csr(
        width: u32,
        height: u32,
        tile_size: u32,
        splats: Vec<Splat2D>,
        values: Vec<u32>,
        offsets: Vec<u32>,
        mut processed: Vec<u32>,
        mut soa: SplatSoA,
    ) -> Self {
        assert!(tile_size > 0, "tile size must be positive");
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        let tiles_x = width.div_ceil(tile_size);
        let tiles_y = height.div_ceil(tile_size);
        assert_eq!(
            offsets.len(),
            (tiles_x * tiles_y) as usize + 1,
            "offset table must have one entry per tile plus a terminator"
        );
        assert_eq!(offsets[0], 0, "offset table must start at zero");
        assert_eq!(
            offsets.last().map(|&n| n as usize),
            Some(values.len()),
            "offset table must end at the value count"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offset table must be monotone"
        );
        debug_assert!(
            values.iter().all(|&i| (i as usize) < splats.len()),
            "splat index out of bounds in CSR values"
        );
        // Debug-only finiteness gate: Stage 1 culls non-finite splats and
        // `tile_range` refuses to bin them, so a non-finite mean, radius,
        // or depth here means an upstream guard was bypassed (NaN depths
        // would also poison the depth keys).
        debug_assert!(
            splats
                .iter()
                .all(|s| s.mean.is_finite() && s.radius.is_finite() && s.depth.is_finite()),
            "non-finite splat reached RasterWorkload"
        );
        processed.clear();
        soa.fill(&splats);
        Self {
            width,
            height,
            tile_size,
            tiles_x,
            tiles_y,
            splats,
            values,
            offsets,
            processed,
            soa,
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Tile edge in pixels.
    #[inline]
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Number of tile columns.
    #[inline]
    pub fn tiles_x(&self) -> u32 {
        self.tiles_x
    }

    /// Number of tile rows.
    #[inline]
    pub fn tiles_y(&self) -> u32 {
        self.tiles_y
    }

    /// Total tiles.
    #[inline]
    pub fn tile_count(&self) -> usize {
        (self.tiles_x * self.tiles_y) as usize
    }

    /// All preprocessed splats.
    #[inline]
    pub fn splats(&self) -> &[Splat2D] {
        &self.splats
    }

    /// Structure-of-arrays view of [`RasterWorkload::splats`], column
    /// arrays index-aligned with the slice (the memory layout the SIMD
    /// Stage-3 kernels read).
    #[inline]
    pub fn soa(&self) -> &SplatSoA {
        &self.soa
    }

    /// The flat CSR value buffer: every (splat, tile) pair, tile-major,
    /// depth-sorted within each tile's run.
    #[inline]
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// The CSR offset table (`tile_count() + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Depth-sorted splat indices for the linear tile index
    /// (`ty * tiles_x + tx`) — a zero-copy slice of the CSR value buffer.
    ///
    /// # Panics
    /// Panics when the index is out of range.
    #[inline]
    pub fn tile_list_at(&self, tile: usize) -> &[u32] {
        &self.values[self.offsets[tile] as usize..self.offsets[tile + 1] as usize]
    }

    /// Depth-sorted splat indices for tile `(tx, ty)`.
    ///
    /// # Panics
    /// Panics when the tile coordinate is out of range.
    #[inline]
    pub fn tile_list(&self, tx: u32, ty: u32) -> &[u32] {
        assert!(tx < self.tiles_x && ty < self.tiles_y, "tile out of range");
        self.tile_list_at((ty * self.tiles_x + tx) as usize)
    }

    /// Iterates the tiles in linear (tile-major) order, yielding each
    /// tile's CSR range, rectangle, and processed count — the one traversal
    /// every architecture model shares.
    pub fn tiles(&self) -> impl Iterator<Item = TileRef<'_>> + '_ {
        (0..self.tile_count()).map(move |i| {
            let (tx, ty) = (i as u32 % self.tiles_x, i as u32 / self.tiles_x);
            TileRef {
                index: i,
                tx,
                ty,
                list: self.tile_list_at(i),
                processed: self.processed_count(tx, ty),
                rect: self.tile_rect(tx, ty),
            }
        })
    }

    /// Pixel rectangle of tile `(tx, ty)`: `(x0, y0, x1, y1)`, exclusive
    /// upper bounds, clipped to the image.
    pub fn tile_rect(&self, tx: u32, ty: u32) -> (u32, u32, u32, u32) {
        let x0 = tx * self.tile_size;
        let y0 = ty * self.tile_size;
        (
            x0,
            y0,
            (x0 + self.tile_size).min(self.width),
            (y0 + self.tile_size).min(self.height),
        )
    }

    /// Number of pixels in tile `(tx, ty)` (edge tiles may be partial).
    pub fn tile_pixels(&self, tx: u32, ty: u32) -> u64 {
        let (x0, y0, x1, y1) = self.tile_rect(tx, ty);
        u64::from(x1 - x0) * u64::from(y1 - y0)
    }

    /// Total (splat, tile) pairs — the CSR value count, i.e. the
    /// sort/binning workload of Stage 2.
    pub fn total_pairs(&self) -> u64 {
        self.values.len() as u64
    }

    /// Records how many splats of each tile's list were actually processed
    /// before the whole tile saturated (filled in by the reference
    /// rasterizer; both architecture models bill exactly this much work).
    ///
    /// # Panics
    /// Panics when the vector length does not match the tile count or when
    /// any count exceeds the corresponding CSR range length.
    pub fn set_processed(&mut self, processed: Vec<u32>) {
        assert_eq!(processed.len(), self.tile_count(), "one count per tile");
        for (i, p) in processed.iter().enumerate() {
            let len = self.offsets[i + 1] - self.offsets[i];
            assert!(*p <= len, "processed count {p} exceeds list length {len}");
        }
        self.processed = processed;
    }

    /// Hands out the (cleared) processed-count buffer so the reference
    /// rasterization pass can refill it without allocating; the pass gives
    /// it back through [`RasterWorkload::set_processed`].
    pub(crate) fn take_processed_scratch(&mut self) -> Vec<u32> {
        let mut p = std::mem::take(&mut self.processed);
        p.clear();
        p
    }

    /// Processed splat count for tile `(tx, ty)`: the recorded count if the
    /// reference rasterizer ran, otherwise the full list length.
    pub fn processed_count(&self, tx: u32, ty: u32) -> u32 {
        let idx = (ty * self.tiles_x + tx) as usize;
        if self.processed.is_empty() {
            self.offsets[idx + 1] - self.offsets[idx]
        } else {
            self.processed[idx]
        }
    }

    /// Total Gaussian-pixel blend operations for the frame:
    /// `Σ_tiles processed(tile) × pixels(tile)`. This is the `W` that both
    /// architecture models divide by their respective throughputs.
    pub fn blend_work(&self) -> u64 {
        self.tiles()
            .map(|t| u64::from(t.processed) * t.pixels())
            .sum()
    }

    /// Moves this workload's CSR and processed-count buffers back into a
    /// session arena so the next frame reuses the allocations
    /// ([`FrameArena`] is the steady-state zero-allocation contract of
    /// Stage 2's data path). The splats are dropped — their allocation
    /// belongs to Stage 1, which produces a fresh `Vec` per frame.
    pub fn recycle_into(self, arena: &mut FrameArena) {
        arena.values = self.values;
        arena.offsets = self.offsets;
        arena.processed = self.processed;
        arena.soa = self.soa;
    }

    /// Length of the longest tile list (load-imbalance metric).
    pub fn max_list_len(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Mean tile-list length.
    pub fn mean_list_len(&self) -> f64 {
        if self.tile_count() == 0 {
            return 0.0;
        }
        self.total_pairs() as f64 / self.tile_count() as f64
    }
}

/// One tile's view of a CSR workload (see [`RasterWorkload::tiles`]).
#[derive(Clone, Copy, Debug)]
pub struct TileRef<'a> {
    /// Linear tile index (`ty * tiles_x + tx`).
    pub index: usize,
    /// Tile column.
    pub tx: u32,
    /// Tile row.
    pub ty: u32,
    /// The tile's depth-sorted CSR range of splat indices.
    pub list: &'a [u32],
    /// Processed count (list length when no reference pass recorded one).
    pub processed: u32,
    /// Pixel rectangle `(x0, y0, x1, y1)`, exclusive upper bounds.
    pub rect: (u32, u32, u32, u32),
}

impl TileRef<'_> {
    /// Pixels in the tile (edge tiles may be partial).
    #[inline]
    pub fn pixels(&self) -> u64 {
        let (x0, y0, x1, y1) = self.rect;
        u64::from(x1 - x0) * u64::from(y1 - y0)
    }
}

/// Per-session Stage-2 scratch: the depth-order, tile-count, CSR, sorter
/// and processed-count buffers a frame needs, recycled across frames so
/// steady-state Stage 2 allocates nothing. Only the CSR value buffer is
/// sized by the frame's `(tile, splat)` pair count.
///
/// Thread one arena through [`crate::tile::bin_splats_pooled`] and give
/// the buffers back with [`RasterWorkload::recycle_into`] after the frame.
#[derive(Debug, Default)]
pub struct FrameArena {
    /// One depth key per splat ([`crate::sort::depth_key_bits`]), sorted
    /// along with [`FrameArena::order`]; only live during binning.
    pub(crate) depth_keys: Vec<u64>,
    /// Splat indices, sorted front to back by the depth keys (ties in
    /// submission order); only live during binning.
    pub(crate) order: Vec<u32>,
    /// One row per binning chunk, `tile_count` entries each: the chunk's
    /// pair count per tile, then its scatter cursor per tile.
    pub(crate) tile_counts: Vec<Vec<u32>>,
    /// CSR value buffer under construction.
    pub(crate) values: Vec<u32>,
    /// CSR offset table under construction.
    pub(crate) offsets: Vec<u32>,
    /// The radix sorter and its ping-pong/histogram scratch.
    pub(crate) sorter: RadixSorter,
    /// Recycled processed-count buffer.
    pub(crate) processed: Vec<u32>,
    /// Recycled structure-of-arrays splat buffers ([`SplatSoA`]).
    pub(crate) soa: SplatSoA,
}

impl FrameArena {
    /// An empty arena; buffers grow on first use and are retained.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::{Vec2, Vec3};

    fn splat() -> Splat2D {
        Splat2D {
            mean: Vec2::new(8.0, 8.0),
            conic: [0.1, 0.0, 0.1],
            depth: 1.0,
            color: Vec3::one(),
            opacity: 0.9,
            radius: 4.0,
            source: 0,
        }
    }

    fn workload_2x2() -> RasterWorkload {
        // 32x32 image, 16px tiles -> 2x2 grid.
        RasterWorkload::new(
            32,
            32,
            16,
            vec![splat(), splat()],
            vec![vec![0, 1], vec![0], vec![], vec![1]],
        )
    }

    #[test]
    fn grid_dimensions() {
        let w = workload_2x2();
        assert_eq!((w.tiles_x(), w.tiles_y()), (2, 2));
        assert_eq!(w.tile_count(), 4);
        assert_eq!(w.tile_pixels(0, 0), 256);
    }

    #[test]
    fn csr_layout_matches_lists() {
        let w = workload_2x2();
        assert_eq!(w.values(), &[0, 1, 0, 1]);
        assert_eq!(w.offsets(), &[0, 2, 3, 3, 4]);
        assert_eq!(w.tile_list(0, 0), &[0, 1]);
        assert_eq!(w.tile_list(1, 0), &[0]);
        assert!(w.tile_list(0, 1).is_empty());
        assert_eq!(w.tile_list(1, 1), &[1]);
        assert_eq!(w.tile_list_at(3), &[1]);
    }

    #[test]
    fn tiles_iterator_covers_grid_in_order() {
        let w = workload_2x2();
        let tiles: Vec<_> = w.tiles().collect();
        assert_eq!(tiles.len(), 4);
        for (i, t) in tiles.iter().enumerate() {
            assert_eq!(t.index, i);
            assert_eq!((t.tx, t.ty), (i as u32 % 2, i as u32 / 2));
            assert_eq!(t.list, w.tile_list(t.tx, t.ty));
            assert_eq!(t.pixels(), w.tile_pixels(t.tx, t.ty));
            assert_eq!(t.processed, t.list.len() as u32);
        }
    }

    #[test]
    fn new_establishes_depth_order_for_unsorted_lists() {
        // Stage 3 no longer sorts in its tile jobs, so the compatibility
        // constructor (custom tilers, trace replay) must establish the
        // front-to-back invariant itself — stably, so already-sorted
        // lists pass through bit-identically.
        let mk = |depth: f32| Splat2D { depth, ..splat() };
        let splats = vec![mk(3.0), mk(1.0), mk(2.0), mk(1.0)];
        let w = RasterWorkload::new(
            32,
            32,
            16,
            splats,
            vec![vec![0, 1, 2, 3], vec![], vec![], vec![]],
        );
        // Sorted by depth; the two depth-1.0 entries keep submission order.
        assert_eq!(w.tile_list(0, 0), &[1, 3, 2, 0]);
        assert!(crate::sort::is_depth_sorted(w.tile_list(0, 0), w.splats()));
    }

    #[test]
    fn partial_edge_tiles() {
        let w = RasterWorkload::new(20, 18, 16, vec![], vec![vec![], vec![], vec![], vec![]]);
        assert_eq!(w.tile_rect(1, 1), (16, 16, 20, 18));
        assert_eq!(w.tile_pixels(1, 1), 4 * 2);
    }

    #[test]
    fn total_pairs_sums_lists() {
        assert_eq!(workload_2x2().total_pairs(), 4);
    }

    #[test]
    fn blend_work_without_processed_uses_full_lists() {
        let w = workload_2x2();
        assert_eq!(w.blend_work(), ((2 + 1) + 1) * 256);
    }

    #[test]
    fn blend_work_with_processed() {
        let mut w = workload_2x2();
        w.set_processed(vec![1, 1, 0, 0]);
        assert_eq!(w.blend_work(), 2 * 256);
        assert_eq!(w.processed_count(0, 0), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds list length")]
    fn processed_cannot_exceed_list() {
        let mut w = workload_2x2();
        w.set_processed(vec![3, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn dangling_index_rejected() {
        let _ = RasterWorkload::new(16, 16, 16, vec![splat()], vec![vec![1]]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_offsets_rejected() {
        let _ = RasterWorkload::from_csr(
            32,
            32,
            16,
            vec![splat()],
            vec![0, 0],
            vec![0, 2, 1, 1, 2],
            Vec::new(),
            SplatSoA::default(),
        );
    }

    #[test]
    #[should_panic(expected = "end at the value count")]
    fn short_offsets_rejected() {
        let _ = RasterWorkload::from_csr(
            32,
            32,
            16,
            vec![splat()],
            vec![0, 0],
            vec![0, 1, 1, 1, 1],
            Vec::new(),
            SplatSoA::default(),
        );
    }

    #[test]
    fn recycle_roundtrip_preserves_capacity() {
        let mut arena = FrameArena::new();
        let w = workload_2x2();
        let values_cap = w.values.capacity();
        let soa_cap = w.soa.x.capacity();
        w.recycle_into(&mut arena);
        assert!(arena.values.capacity() >= values_cap);
        assert!(arena.soa.x.capacity() >= soa_cap);
        assert_eq!(arena.offsets.len(), 5);
    }

    #[test]
    fn soa_columns_align_with_splats() {
        let w = workload_2x2();
        let soa = w.soa();
        assert_eq!(soa.len(), w.splats().len());
        assert!(!soa.is_empty());
        for (i, s) in w.splats().iter().enumerate() {
            assert_eq!(soa.x[i].to_bits(), s.mean.x.to_bits());
            assert_eq!(soa.y[i].to_bits(), s.mean.y.to_bits());
            assert_eq!(soa.depth[i].to_bits(), s.depth.to_bits());
            assert_eq!(soa.conic_a[i].to_bits(), s.conic[0].to_bits());
            assert_eq!(soa.conic_b[i].to_bits(), s.conic[1].to_bits());
            assert_eq!(soa.conic_c[i].to_bits(), s.conic[2].to_bits());
            assert_eq!(soa.alpha[i].to_bits(), s.opacity.to_bits());
            assert_eq!(soa.r[i].to_bits(), s.color.x.to_bits());
            assert_eq!(soa.g[i].to_bits(), s.color.y.to_bits());
            assert_eq!(soa.b[i].to_bits(), s.color.z.to_bits());
        }
    }

    #[test]
    fn list_stats() {
        let w = workload_2x2();
        assert_eq!(w.max_list_len(), 2);
        assert!((w.mean_list_len() - 1.0).abs() < 1e-9);
    }
}
