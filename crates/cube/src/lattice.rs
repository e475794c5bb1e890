//! The group-by lattice and minimum-memory spanning tree (MMST) of
//! Zhao, Deshpande, Naughton (SIGMOD'97), reviewed in the paper's
//! Section 5 as the core cube algorithm its perspective evaluation extends.
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
//! The [`Mmst`] picks, for every group-by, the cheapest parent to cascade
//! from, and can split the lattice into multiple passes when the buffer
//! budget is too small for one.

use crate::error::CubeError;
use crate::Result;
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

    /// Direct children: masks with exactly one fewer retained dimension.
    pub fn children(&self, g: GroupByMask) -> Vec<GroupByMask> {
        (0..self.n)
            .filter(|&d| g & (1 << d) != 0)
            .map(|d| g & !(1 << d))
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

/// A minimum-memory spanning tree over the group-by lattice.
#[derive(Debug, Clone)]
pub struct Mmst {
    lattice: Lattice,
    /// `parent[g]` for every proper mask; the full mask is the root.
    parent: HashMap<GroupByMask, GroupByMask>,
    /// Buffer memory (cells) per mask under the chosen order.
    mem_cells: HashMap<GroupByMask, u64>,
}

impl Mmst {
    /// Builds the MMST for all proper group-bys under a read order.
    ///
    /// Each node picks the parent whose *result* is smallest (fewest
    /// cells) — the standard minimum-size-parent heuristic, which
    /// minimizes the work of cascading.
    pub fn build(geom: &ChunkGeometry, order: &[usize]) -> Self {
        let lattice = Lattice::new(geom.ndims());
        let full = lattice.full();
        let result_cells = |g: GroupByMask| -> u64 {
            lattice
                .dims_of(g)
                .into_iter()
                .map(|d| geom.lens()[d] as u64)
                .product::<u64>()
                .max(1)
        };
        let mut parent = HashMap::new();
        let mut mem_cells = HashMap::new();
        for g in lattice.all_masks() {
            mem_cells.insert(g, memory_cells(geom, order, g));
            if g == full {
                continue;
            }
            let best = lattice
                .parents(g)
                .into_iter()
                .min_by_key(|&p| (result_cells(p), p))
                .expect("proper mask has a parent");
            parent.insert(g, best);
        }
        Mmst {
            lattice,
            parent,
            mem_cells,
        }
    }

    /// The lattice.
    pub fn lattice(&self) -> Lattice {
        self.lattice
    }

    /// The tree parent of a proper mask.
    pub fn parent(&self, g: GroupByMask) -> Option<GroupByMask> {
        self.parent.get(&g).copied()
    }

    /// The group-bys a cascade must compute to answer `masks`: the
    /// requested masks closed under tree parents. The full mask comes
    /// first and every node after its parent (descending
    /// retained-dimension count).
    pub fn closure(&self, masks: &[GroupByMask]) -> Vec<GroupByMask> {
        let full = self.lattice.full();
        let mut needed = vec![full];
        let mut mark = vec![false; 1usize << self.lattice.n];
        mark[full as usize] = true;
        for &m in masks {
            let at = needed.len();
            let mut cur = m;
            while !mark[cur as usize] {
                mark[cur as usize] = true;
                needed.push(cur);
                cur = self.parent[&cur];
            }
            needed[at..].reverse();
        }
        needed.sort_unstable_by_key(|m| std::cmp::Reverse(m.count_ones()));
        needed
    }

    /// Buffer memory in cells for one mask.
    pub fn memory_cells(&self, g: GroupByMask) -> u64 {
        self.mem_cells[&g]
    }

    /// Total buffer memory (cells) if every group-by runs in one pass.
    pub fn total_memory_cells(&self) -> u64 {
        self.lattice
            .proper_masks()
            .into_iter()
            .map(|g| self.mem_cells[&g])
            .sum()
    }

    /// Splits the requested masks into passes whose combined buffer
    /// memory fits `budget_cells`. A node is always scheduled at or after
    /// its tree ancestors (ancestors materialize results earlier passes
    /// can cascade from). Errors if a single mask alone exceeds the
    /// budget.
    pub fn plan_passes(
        &self,
        masks: &[GroupByMask],
        budget_cells: u64,
    ) -> Result<Vec<Vec<GroupByMask>>> {
        // Order: by depth from the root so parents come first, then by
        // descending memory so big buffers pack early.
        let depth = |g: GroupByMask| -> u32 { (self.lattice.n as u32) - g.count_ones() };
        let mut work: Vec<GroupByMask> = masks.to_vec();
        work.sort_by_key(|&g| (depth(g), std::cmp::Reverse(self.mem_cells[&g])));
        let mut passes: Vec<Vec<GroupByMask>> = Vec::new();
        let mut pass: Vec<GroupByMask> = Vec::new();
        let mut used = 0u64;
        for g in work {
            let need = self.mem_cells[&g];
            if need > budget_cells {
                return Err(CubeError::BudgetTooSmall {
                    needed: need,
                    budget: budget_cells,
                });
            }
            if used + need > budget_cells && !pass.is_empty() {
                passes.push(std::mem::take(&mut pass));
                used = 0;
            }
            used += need;
            pass.push(g);
        }
        if !pass.is_empty() {
            passes.push(pass);
        }
        Ok(passes)
    }
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
        assert_eq!(l.children(0b011), vec![0b010, 0b001]);
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

    #[test]
    fn mmst_parents_are_supersets() {
        let g = fig6();
        let t = Mmst::build(&g, &[0, 1, 2]);
        for m in t.lattice().proper_masks() {
            let p = t.parent(m).unwrap();
            assert_eq!(p & m, m, "parent {p:b} must contain {m:b}");
            assert_eq!(p.count_ones(), m.count_ones() + 1);
        }
        assert_eq!(t.parent(0b111), None);
    }

    #[test]
    fn mmst_prefers_small_parents() {
        // Axis lens 2, 100, 100: group-by ∅ should cascade from A (len 2),
        // not from B or C.
        let g = ChunkGeometry::uniform(vec![2, 100, 100], 2).unwrap();
        let t = Mmst::build(&g, &[0, 1, 2]);
        assert_eq!(t.parent(0), Some(0b001));
    }

    #[test]
    fn plan_passes_respects_budget() {
        let g = fig6();
        let t = Mmst::build(&g, &[0, 1, 2]);
        let masks = t.lattice().proper_masks();
        let total = t.total_memory_cells();
        // Everything fits in one pass with the full budget.
        let one = t.plan_passes(&masks, total).unwrap();
        assert_eq!(one.len(), 1);
        // A budget that fits the biggest node but not everything forces
        // multiple passes.
        let biggest_node = masks.iter().map(|&m| t.memory_cells(m)).max().unwrap();
        assert!(biggest_node < total);
        let multi = t.plan_passes(&masks, biggest_node + 50).unwrap();
        assert!(multi.len() >= 2);
        let flat: Vec<_> = multi.concat();
        assert_eq!(flat.len(), masks.len());
        // A budget smaller than the biggest single node errors.
        let biggest = masks.iter().map(|&m| t.memory_cells(m)).max().unwrap();
        assert!(t.plan_passes(&masks, biggest - 1).is_err());
    }
}
