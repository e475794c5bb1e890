//! The merge-dependency graph (Section 5.2).
//!
//! "The merge dependency between chunks can be represented as a graph
//! G = (V, E), with chunks as nodes, and an edge (cᵢ, cⱼ) whenever either
//! cᵢ needs to be merged into cⱼ or vice versa. … neither cᵢ nor cⱼ can be
//! fully processed before both of them are read in."
//!
//! Nodes here are chunk indices *along the varying dimension* within one
//! slice (all other coordinates fixed), exactly like the paper's Fig. 8:
//! the same slice-graph repeats for every combination of the other
//! dimensions' chunks, so it is built once and reused per slice.

use crate::operators::relocate::DestMap;
use olap_model::VaryingDimension;
use std::collections::BTreeSet;

/// An undirected graph over the affected varying-dimension chunks.
#[derive(Debug, Clone, Default)]
pub struct MergeGraph {
    /// Node labels: varying-dimension chunk indices, ascending.
    labels: Vec<u32>,
    /// Adjacency lists by node index.
    adj: Vec<BTreeSet<usize>>,
}

impl MergeGraph {
    /// Builds the slice graph from a relocation plan.
    ///
    /// A varying-dimension chunk is *affected* (a node) when it contains
    /// an instance whose cells move, are dropped, or that receives cells;
    /// an edge joins the chunks of a move's source and destination.
    pub fn build(varying: &VaryingDimension, dest: &DestMap, vd_extent: u32) -> Self {
        let chunk_of = |slot: u32| slot / vd_extent;
        let mut affected: BTreeSet<u32> = BTreeSet::new();
        let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
        use crate::operators::relocate::CellFate;
        for (i, inst) in varying.instances().iter().enumerate() {
            let src_chunk = chunk_of(i as u32);
            for t in inst.validity.iter() {
                match dest.fate(i as u32, t) {
                    CellFate::Skip => {} // another pass's business
                    CellFate::To(d) if d == i as u32 => {}
                    CellFate::To(d) => {
                        let dst_chunk = chunk_of(d);
                        affected.insert(src_chunk);
                        affected.insert(dst_chunk);
                        if src_chunk != dst_chunk {
                            let (a, b) = if src_chunk < dst_chunk {
                                (src_chunk, dst_chunk)
                            } else {
                                (dst_chunk, src_chunk)
                            };
                            edges.insert((a, b));
                        }
                    }
                    CellFate::Drop => {
                        // A drop rewrites the chunk but needs no merge.
                        affected.insert(src_chunk);
                    }
                }
            }
        }
        let labels: Vec<u32> = affected.into_iter().collect();
        let index_of = |c: u32| labels.binary_search(&c).expect("label present");
        let mut adj = vec![BTreeSet::new(); labels.len()];
        for (a, b) in edges {
            let (ia, ib) = (index_of(a), index_of(b));
            adj[ia].insert(ib);
            adj[ib].insert(ia);
        }
        MergeGraph { labels, adj }
    }

    /// Builds a graph from explicit labels and edges (tests, figures).
    pub fn from_edges(labels: &[u32], edges: &[(u32, u32)]) -> Self {
        let mut labels: Vec<u32> = labels.to_vec();
        labels.sort_unstable();
        labels.dedup();
        let index_of = |c: u32| labels.binary_search(&c).expect("label present");
        let mut adj = vec![BTreeSet::new(); labels.len()];
        for &(a, b) in edges {
            let (ia, ib) = (index_of(a), index_of(b));
            if ia != ib {
                adj[ia].insert(ib);
                adj[ib].insert(ia);
            }
        }
        MergeGraph { labels, adj }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when no chunk is affected (the scenario is a no-op).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Node labels (varying-dimension chunk indices), ascending.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The label of a node.
    pub fn label(&self, node: usize) -> u32 {
        self.labels[node]
    }

    /// Neighbors of a node.
    pub fn neighbors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[node].iter().copied()
    }

    /// Degree of a node.
    pub fn degree(&self, node: usize) -> usize {
        self.adj[node].len()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// The paper's cost function: `cost(x) = min_{y : (x,y) ∈ G}
    /// (deg(y) − 1)` — how many other nodes must be pebbled before a
    /// pebble on one of x's neighbors could be freed. Isolated nodes cost
    /// 0 (pebble and immediately remove).
    pub fn cost(&self, node: usize) -> usize {
        self.adj[node]
            .iter()
            .map(|&y| self.degree(y).saturating_sub(1))
            .min()
            .unwrap_or(0)
    }

    /// Connected components, each a sorted list of node indices.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.len()];
        let mut out = Vec::new();
        for start in 0..self.len() {
            if seen[start] {
                continue;
            }
            let mut comp = vec![start];
            seen[start] = true;
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for &w in &self.adj[v] {
                    if !seen[w] {
                        seen[w] = true;
                        comp.push(w);
                        stack.push(w);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// The subgraph induced by a set of labels (scoped query execution:
    /// only the queried chunks and their merge partners participate).
    pub fn induced(&self, keep: impl Fn(u32) -> bool) -> MergeGraph {
        let kept: Vec<usize> = (0..self.len()).filter(|&i| keep(self.labels[i])).collect();
        let labels: Vec<u32> = kept.iter().map(|&i| self.labels[i]).collect();
        let new_index: std::collections::HashMap<usize, usize> =
            kept.iter().enumerate().map(|(n, &o)| (o, n)).collect();
        let mut adj = vec![BTreeSet::new(); kept.len()];
        for (n, &o) in kept.iter().enumerate() {
            for &w in &self.adj[o] {
                if let Some(&nw) = new_index.get(&w) {
                    adj[n].insert(nw);
                }
            }
        }
        MergeGraph { labels, adj }
    }

    /// The paper's Fig. 9 example graph (chunk labels 1, 3, 5, 6, 7, 9,
    /// 10; product p in chunks 1/5/9/10, q in 5/3, r in 10/7, s in 9/6).
    pub fn fig9() -> Self {
        MergeGraph::from_edges(
            &[1, 3, 5, 6, 7, 9, 10],
            &[(1, 5), (1, 9), (1, 10), (5, 3), (10, 7), (9, 6)],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_model::InstanceId;

    #[test]
    fn fig9_shape() {
        let g = MergeGraph::fig9();
        assert_eq!(g.len(), 7);
        assert_eq!(g.edge_count(), 6);
        let idx1 = g.labels().iter().position(|&l| l == 1).unwrap();
        assert_eq!(g.degree(idx1), 3);
    }

    #[test]
    fn fig9_costs_match_paper() {
        // "cost(1) = cost(3) = cost(6) = cost(7) = 1,
        //  cost(5) = cost(9) = cost(10) = 0".
        let g = MergeGraph::fig9();
        let cost_of = |label: u32| {
            let i = g.labels().iter().position(|&l| l == label).unwrap();
            g.cost(i)
        };
        assert_eq!(cost_of(1), 1);
        assert_eq!(cost_of(3), 1);
        assert_eq!(cost_of(6), 1);
        assert_eq!(cost_of(7), 1);
        assert_eq!(cost_of(5), 0);
        assert_eq!(cost_of(9), 0);
        assert_eq!(cost_of(10), 0);
    }

    #[test]
    fn components_found() {
        let g = MergeGraph::from_edges(&[0, 1, 2, 3, 4], &[(0, 1), (2, 3)]);
        let comps = g.components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![0, 1]);
        assert_eq!(comps[1], vec![2, 3]);
        assert_eq!(comps[2], vec![4]);
    }

    #[test]
    fn isolated_cost_zero() {
        let g = MergeGraph::from_edges(&[7], &[]);
        assert_eq!(g.cost(0), 0);
        assert!(!g.is_empty());
    }

    #[test]
    fn build_from_relocation_plan() {
        use olap_model::{Dimension, DimensionId};
        // Four members m0..m3 (one leaf chunk each with extent 1); m0 has
        // instances in "chunks" 0 and 2 (moves), m3 dropped in place.
        let mut d = Dimension::new("D");
        let a = d.add_child_of_root("A").unwrap();
        let b = d.add_child_of_root("B").unwrap();
        let m0 = d.add_member("m0", a).unwrap();
        d.add_member("m1", a).unwrap();
        d.add_member("m2", b).unwrap();
        d.seal();
        let mut v = VaryingDimension::new(DimensionId(0), DimensionId(1), 4);
        v.reclassify(&d, m0, b, 2).unwrap();
        v.rebuild(&d);
        // Instances: 0 = A/m0 {0,1}, 1 = B/m0 {2,3}, 2 = A/m1, 3 = B/m2.
        // Forward P = {0}: A/m0 owns everything; B/m0's data moves to it.
        let out_sets = crate::phi::phi(
            crate::perspective::Semantics::Forward,
            v.instances(),
            &[0],
            4,
        );
        // DestMap::build needs a cube; construct the raw table directly.
        let moments = 4u32;
        let n = v.instance_count();
        let mut flat = vec![u32::MAX; (n * moments) as usize];
        for (i, vs) in out_sets.iter().enumerate() {
            let member = v.instance(InstanceId(i as u32)).member;
            for t in vs.iter() {
                if let Some(src) = v.instance_at(member, t) {
                    flat[(src.0 * moments + t) as usize] = i as u32;
                }
            }
        }
        let map = DestMap::from_raw(flat, 4);
        let g = MergeGraph::build(&v, &map, 1);
        // Affected chunks: 0 (A/m0, receives) and 1 (B/m0, source).
        assert_eq!(g.labels(), &[0, 1]);
        assert_eq!(g.edge_count(), 1);
    }
}
