//! Dispatch controller: tile-to-instance assignment and per-tile PE-block
//! occupancy arithmetic (Fig. 7b, "Dispatch Controller").

/// Assigns tile indices to rasterizer instances round-robin — the top
/// controller's static schedule. Returns one queue per instance.
///
/// # Panics
/// Panics when `instances` is zero.
pub fn assign_tiles(tile_count: usize, instances: u32) -> Vec<Vec<usize>> {
    assert!(instances > 0, "need at least one instance");
    let mut queues = vec![Vec::new(); instances as usize];
    for t in 0..tile_count {
        queues[t % instances as usize].push(t);
    }
    queues
}

/// Cycles the PE block needs to process `primitives` over a `pixels`-pixel
/// tile with `pes` lanes: the dispatcher walks each primitive across the
/// tile's pixels in groups of `pes`, one group per cycle, fully pipelined
/// across primitives.
///
/// # Panics
/// Panics when `pes` is zero.
pub fn processing_cycles(primitives: u32, pixels: u32, pes: u32) -> u64 {
    assert!(pes > 0, "need at least one PE");
    let groups = u64::from(pixels.div_ceil(pes));
    u64::from(primitives) * groups
}

/// PE-cycle product actually used (for utilization accounting): issued
/// pairs, which may be fewer than `cycles × pes` on partial pixel groups.
pub fn issued_pairs(primitives: u32, pixels: u32) -> u64 {
    u64::from(primitives) * u64::from(pixels)
}

/// Per-instance (splat, tile) key totals of the round-robin schedule,
/// read directly off a CSR offset table (`tile_count + 1` entries,
/// [`gaurast_render::RasterWorkload::offsets`]): instance `i` streams the
/// key ranges of tiles `i, i + instances, …`. This is the load-imbalance
/// diagnostic of the dispatcher's static schedule over the depth-sorted
/// Stage-2 output.
///
/// # Panics
/// Panics when `instances` is zero or `offsets` is empty.
pub fn csr_queue_loads(offsets: &[u32], instances: u32) -> Vec<u64> {
    assert!(instances > 0, "need at least one instance");
    assert!(!offsets.is_empty(), "offset table must have a terminator");
    let mut loads = vec![0u64; instances as usize];
    for t in 0..offsets.len() - 1 {
        loads[t % instances as usize] += u64::from(offsets[t + 1] - offsets[t]);
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_balances() {
        let q = assign_tiles(10, 3);
        assert_eq!(q[0], vec![0, 3, 6, 9]);
        assert_eq!(q[1], vec![1, 4, 7]);
        assert_eq!(q[2], vec![2, 5, 8]);
    }

    #[test]
    fn all_tiles_assigned_exactly_once() {
        let q = assign_tiles(100, 7);
        let mut seen: Vec<usize> = q.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn processing_cycles_exact() {
        // 256 pixels / 16 PEs = 16 cycles per primitive.
        assert_eq!(processing_cycles(10, 256, 16), 160);
        // Partial group rounds up.
        assert_eq!(processing_cycles(1, 17, 16), 2);
        assert_eq!(processing_cycles(0, 256, 16), 0);
    }

    #[test]
    fn issued_pairs_counts_real_work() {
        assert_eq!(issued_pairs(10, 17), 170);
        assert!(issued_pairs(1, 17) < processing_cycles(1, 17, 16) * 16);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_panics() {
        let _ = assign_tiles(4, 0);
    }

    #[test]
    fn csr_queue_loads_follow_round_robin() {
        // Offsets for 4 tiles with lengths 5, 0, 2, 3.
        let offsets = [0u32, 5, 5, 7, 10];
        assert_eq!(csr_queue_loads(&offsets, 2), vec![5 + 2, 3]);
        assert_eq!(csr_queue_loads(&offsets, 1), vec![10]);
        let total: u64 = csr_queue_loads(&offsets, 3).iter().sum();
        assert_eq!(total, 10, "every key assigned exactly once");
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn csr_queue_loads_zero_instances_panics() {
        let _ = csr_queue_loads(&[0, 1], 0);
    }
}
