//! The group-by lattice and the memory rule of Zhao, Deshpande,
//! Naughton (SIGMOD'97), reviewed in the paper's Section 5 as the core
//! cube algorithm its perspective evaluation extends.
//!
//! A group-by is the sub-cube retaining a subset of dimensions and
//! aggregating the rest away, encoded as a [`GroupByMask`] (bit *i* set ⇔
//! dimension *i* retained). Reading base chunks in a *dimension order*
//! (first dimension varying fastest), each group-by needs a predictable
//! number of chunk buffers held in memory until they complete —
//! [`memory_chunks`] implements Zhao et al.'s rule, reproducing the
//! worked example of the paper's Fig. 6 (BC needs 1 chunk, AC needs 4,
//! AB needs 16).
//!
//! The aggregator ([`crate::CubeAggregator`]) plans its cascade over this
//! lattice and prices each pass by [`memory_cells`].

use olap_store::ChunkGeometry;
use std::collections::HashMap;

/// Bitmask of retained dimensions.
pub type GroupByMask = u32;

/// The dimension-subset lattice for an `n`-dimensional cube.
#[derive(Debug, Clone, Copy)]
pub struct Lattice {
    n: usize,
}

impl Lattice {
    /// Lattice over `n` dimensions (n ≤ 31).
    pub fn new(n: usize) -> Self {
        assert!(n <= 31, "lattice supports up to 31 dimensions");
        Lattice { n }
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.n
    }

    /// The mask retaining every dimension (the base cube).
    pub fn full(&self) -> GroupByMask {
        ((1u64 << self.n) - 1) as GroupByMask
    }

    /// Every mask, ∅ through full.
    pub fn all_masks(&self) -> Vec<GroupByMask> {
        (0..(1u64 << self.n) as GroupByMask).collect()
    }

    /// Every proper group-by (excludes the base cube).
    pub fn proper_masks(&self) -> Vec<GroupByMask> {
        self.all_masks()
            .into_iter()
            .filter(|&m| m != self.full())
            .collect()
    }

    /// Direct parents: masks with exactly one more retained dimension.
    pub fn parents(&self, g: GroupByMask) -> Vec<GroupByMask> {
        (0..self.n)
            .filter(|&d| g & (1 << d) == 0)
            .map(|d| g | (1 << d))
            .collect()
    }

    /// The retained dimensions of a mask, ascending.
    pub fn dims_of(&self, g: GroupByMask) -> Vec<usize> {
        (0..self.n).filter(|&d| g & (1 << d) != 0).collect()
    }
}

/// Zhao et al.'s memory rule, in chunks: reading base chunks with
/// `order[0]` varying fastest, group-by `g` must buffer
/// `Π_{i retained, pos(i) < p} grid[i]` chunks, where `p` is the highest
/// read-order position among *aggregated* dimensions.
///
/// The base cube itself needs exactly one chunk (the one being read).
pub fn memory_chunks(geom: &ChunkGeometry, order: &[usize], g: GroupByMask) -> u64 {
    let lattice = Lattice::new(geom.ndims());
    if g == lattice.full() {
        return 1;
    }
    let pos: HashMap<usize, usize> = order.iter().enumerate().map(|(p, &d)| (d, p)).collect();
    // Aggregated dimensions with a single chunk never delay completion —
    // only multi-chunk aggregated dims force buffering (a refinement of
    // Zhao's rule that makes it exact on degenerate grids).
    let p = (0..geom.ndims())
        .filter(|&d| g & (1 << d) == 0 && geom.grid()[d] > 1)
        .map(|d| pos[&d])
        .max();
    let Some(p) = p else {
        return 1; // every group-by chunk completes as soon as it is touched
    };
    lattice
        .dims_of(g)
        .into_iter()
        .map(|d| {
            if pos[&d] < p {
                geom.grid()[d] as u64
            } else {
                1
            }
        })
        .product()
}

/// Memory rule in cells: chunks × cells per group-by chunk.
pub fn memory_cells(geom: &ChunkGeometry, order: &[usize], g: GroupByMask) -> u64 {
    let lattice = Lattice::new(geom.ndims());
    let per_chunk: u64 = lattice
        .dims_of(g)
        .into_iter()
        .map(|d| geom.extents()[d] as u64)
        .product();
    memory_chunks(geom, order, g) * per_chunk.max(1)
}

/// The dimension order minimizing total buffer memory: ascending
/// cardinality, per Zhao et al. ("choosing a dimension order in the
/// increasing order of their cardinality").
pub fn min_memory_order(geom: &ChunkGeometry) -> Vec<usize> {
    let mut order: Vec<usize> = (0..geom.ndims()).collect();
    order.sort_by_key(|&d| geom.lens()[d]);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 6's cube: 3 dimensions, 4 chunks each.
    fn fig6() -> ChunkGeometry {
        ChunkGeometry::uniform(vec![16, 16, 16], 4).unwrap()
    }

    #[test]
    fn lattice_navigation() {
        let l = Lattice::new(3);
        assert_eq!(l.full(), 0b111);
        assert_eq!(l.parents(0b001), vec![0b011, 0b101]);
        assert_eq!(l.dims_of(0b101), vec![0, 2]);
        assert_eq!(l.proper_masks().len(), 7);
    }

    #[test]
    fn zhao_memory_rule_matches_paper_example() {
        // Paper, Section 5: order ABC; "for any BC group-by, we just need
        // enough memory to hold one chunk … 4 chunks for any AC group-by
        // … 16 chunks for any AB group-by."
        let g = fig6();
        let order = [0, 1, 2]; // A fastest
        let bc = 0b110;
        let ac = 0b101;
        let ab = 0b011;
        assert_eq!(memory_chunks(&g, &order, bc), 1);
        assert_eq!(memory_chunks(&g, &order, ac), 4);
        assert_eq!(memory_chunks(&g, &order, ab), 16);
        // Base cube: the single chunk being read.
        assert_eq!(memory_chunks(&g, &order, 0b111), 1);
        // Cells variant scales by the group-by chunk size (4×4 = 16).
        assert_eq!(memory_cells(&g, &order, ab), 16 * 16);
    }

    #[test]
    fn memory_depends_on_order() {
        let g = fig6();
        // Under order CBA (C fastest), AB needs 1 chunk, BC needs 16.
        let order = [2, 1, 0];
        assert_eq!(memory_chunks(&g, &order, 0b011), 1);
        assert_eq!(memory_chunks(&g, &order, 0b110), 16);
    }

    #[test]
    fn min_memory_order_is_ascending_cardinality() {
        let g = ChunkGeometry::uniform(vec![100, 4, 40], 4).unwrap();
        assert_eq!(min_memory_order(&g), vec![1, 2, 0]);
    }
}
