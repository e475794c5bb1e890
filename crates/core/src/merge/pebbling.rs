//! Pebbling the merge-dependency graph (Section 5.2).
//!
//! "We are given an unbounded number of pebbles. At any point, we can
//! place at most one pebble on a node. A pebble can be removed from a node
//! iff all its neighbors have been pebbled. Then determine the minimum
//! number of pebbles needed to pebble the whole graph, while reusing
//! pebbles."
//!
//! A pebble is a chunk resident in memory: placed when the chunk is read,
//! removable once every chunk it merges with has been read. The placement
//! order is the chunk read order; the peak pebble count is the peak
//! memory.
//!
//! The paper conjectures minimizing pebbles is NP-complete and gives a
//! greedy heuristic ([`heuristic_order`]); [`optimal_pebbles`] is an exact
//! bitmask DP usable up to ~20 nodes for validating the heuristic, and
//! [`pebbles_for_order`] scores any order (e.g. [`naive_order`], the
//! layout-order baseline).

use crate::merge::graph::MergeGraph;
use std::collections::BTreeSet;

/// Scores a placement order: the peak number of simultaneously held
/// pebbles, removing pebbles eagerly.
pub fn pebbles_for_order(g: &MergeGraph, order: &[usize]) -> usize {
    assert_eq!(order.len(), g.len(), "order must cover every node");
    let mut placed = vec![false; g.len()];
    let mut pebbled: BTreeSet<usize> = BTreeSet::new();
    let mut peak = 0usize;
    for &v in order {
        assert!(!placed[v], "node {v} placed twice");
        placed[v] = true;
        pebbled.insert(v);
        peak = peak.max(pebbled.len());
        // Eagerly remove every pebble whose neighbors are all placed.
        loop {
            let removable: Vec<usize> = pebbled
                .iter()
                .copied()
                .filter(|&q| g.neighbors(q).all(|w| placed[w]))
                .collect();
            if removable.is_empty() {
                break;
            }
            for q in removable {
                pebbled.remove(&q);
            }
        }
    }
    debug_assert!(pebbled.is_empty(), "all pebbles removable at the end");
    peak
}

/// The trivial baseline: place nodes in ascending label order (the
/// physical chunk layout order — the paper's "suppose we read them in the
/// order 1-10").
pub fn naive_order(g: &MergeGraph) -> Vec<usize> {
    (0..g.len()).collect()
}

/// The paper's greedy heuristic. Within each connected component:
/// start at the minimum-[`MergeGraph::cost`] node; afterwards, place a
/// pebble on a neighbor of the placed region that lets a pebble be freed,
/// breaking ties by smaller cost.
pub fn heuristic_order(g: &MergeGraph) -> Vec<usize> {
    let mut order = Vec::with_capacity(g.len());
    let mut placed = vec![false; g.len()];
    for comp in g.components() {
        let mut pebbled: BTreeSet<usize> = BTreeSet::new();
        let mut remaining = comp.len();
        // First pebble: minimum-cost node of the component.
        let start = comp
            .iter()
            .copied()
            .min_by_key(|&v| (g.cost(v), v))
            .expect("component non-empty");
        place(g, start, &mut placed, &mut pebbled, &mut order);
        remaining -= 1;
        while remaining > 0 {
            // Frontier: unplaced neighbors of the placed region.
            let frontier: Vec<usize> = comp
                .iter()
                .copied()
                .filter(|&v| !placed[v] && g.neighbors(v).any(|w| placed[w]))
                .collect();
            let pick = if frontier.is_empty() {
                // The component's placed region is exhausted (can happen
                // only for disconnected leftovers, defensive).
                comp.iter()
                    .copied()
                    .filter(|&v| !placed[v])
                    .min_by_key(|&v| (g.cost(v), v))
            } else {
                // Prefer a node whose placement frees a pebble.
                let frees = |y: usize| -> bool {
                    // After placing y, is some pebbled node (or y itself)
                    // fully surrounded?
                    let would_be_placed = |w: usize| placed[w] || w == y;
                    pebbled
                        .iter()
                        .copied()
                        .chain(std::iter::once(y))
                        .any(|q| g.neighbors(q).all(would_be_placed))
                };
                frontier
                    .iter()
                    .copied()
                    .filter(|&y| frees(y))
                    .min_by_key(|&y| (g.cost(y), y))
                    .or_else(|| frontier.iter().copied().min_by_key(|&y| (g.cost(y), y)))
            }
            .expect("some node remains");
            place(g, pick, &mut placed, &mut pebbled, &mut order);
            remaining -= 1;
        }
        debug_assert!(pebbled.is_empty(), "Lemma 5.2: pebbling completes");
    }
    order
}

fn place(
    g: &MergeGraph,
    v: usize,
    placed: &mut [bool],
    pebbled: &mut BTreeSet<usize>,
    order: &mut Vec<usize>,
) {
    placed[v] = true;
    pebbled.insert(v);
    order.push(v);
    loop {
        let removable: Vec<usize> = pebbled
            .iter()
            .copied()
            .filter(|&q| g.neighbors(q).all(|w| placed[w]))
            .collect();
        if removable.is_empty() {
            break;
        }
        for q in removable {
            pebbled.remove(&q);
        }
    }
}

/// Exact minimum peak pebbles via bitmask DP (≤ 24 nodes).
///
/// With eager removal, the set of held pebbles is a function of the set
/// of placed nodes: `Q(mask) = {v ∈ mask | ∃ neighbor ∉ mask}` — so a DP
/// over placed-sets suffices.
pub fn optimal_pebbles(g: &MergeGraph) -> usize {
    let n = g.len();
    assert!(
        n <= 24,
        "optimal pebbling is exponential; use the heuristic"
    );
    if n == 0 {
        return 0;
    }
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let q_size = |mask: u32| -> usize {
        (0..n)
            .filter(|&v| mask & (1 << v) != 0 && g.neighbors(v).any(|w| mask & (1 << w) == 0))
            .count()
    };
    let mut best = vec![usize::MAX; (full as usize) + 1];
    best[0] = 0;
    for mask in 0..=full {
        let cur = best[mask as usize];
        if cur == usize::MAX {
            continue;
        }
        let transient_base = q_size(mask) + 1;
        for v in 0..n {
            if mask & (1 << v) != 0 {
                continue;
            }
            let next = mask | (1 << v);
            let peak = cur.max(transient_base);
            if peak < best[next as usize] {
                best[next as usize] = peak;
            }
        }
    }
    best[full as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_heuristic_uses_three_pebbles() {
        // The paper: "The pebbling procedure uses just three pebbles,
        // which is also the optimum number … in this example."
        let g = MergeGraph::fig9();
        let order = heuristic_order(&g);
        assert_eq!(order.len(), 7);
        assert_eq!(pebbles_for_order(&g, &order), 3);
        assert_eq!(optimal_pebbles(&g), 3);
    }

    #[test]
    fn fig9_naive_is_worse() {
        // Reading in layout order 1, 3, 5, 6, 7, 9, 10 holds up to five
        // chunks ("until we read chunk 5, no chunk can be completely
        // processed away …").
        let g = MergeGraph::fig9();
        let naive = pebbles_for_order(&g, &naive_order(&g));
        assert!(naive > 3, "naive took {naive} pebbles");
    }

    #[test]
    fn paper_example_order_scores_three() {
        // "Consider the order 3, 5, 1, 9, 6, 10, 7 … The maximum number of
        // chunks we needed together in memory was three."
        let g = MergeGraph::fig9();
        let idx = |label: u32| g.labels().iter().position(|&l| l == label).unwrap();
        let order: Vec<usize> = [3, 5, 1, 9, 6, 10, 7].iter().map(|&l| idx(l)).collect();
        assert_eq!(pebbles_for_order(&g, &order), 3);
    }

    #[test]
    fn star_needs_two_pebbles() {
        // "a star, with node x adjacent to n nodes, can be pebbled using
        // just two pebbles."
        let g = MergeGraph::from_edges(
            &[0, 1, 2, 3, 4, 5],
            &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
        );
        assert_eq!(optimal_pebbles(&g), 2);
        let order = heuristic_order(&g);
        assert_eq!(pebbles_for_order(&g, &order), 2);
    }

    #[test]
    fn clique_needs_all_pebbles() {
        // "If a graph contains a clique of size ≥ k, then clearly we need
        // at least k pebbles."
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                edges.push((a, b));
            }
        }
        let g = MergeGraph::from_edges(&[0, 1, 2, 3], &edges);
        assert_eq!(optimal_pebbles(&g), 4);
        assert_eq!(pebbles_for_order(&g, &heuristic_order(&g)), 4);
    }

    #[test]
    fn max_degree_plus_one_upper_bound() {
        // "the minimum number of pebbles needed … is at most
        // max{deg(x)} + 1."
        for (labels, edges) in [
            (vec![0, 1, 2, 3, 4], vec![(0, 1), (1, 2), (2, 3), (3, 4)]),
            (vec![0, 1, 2, 3], vec![(0, 1), (1, 2), (2, 0), (2, 3)]),
            (vec![0, 1, 2, 3, 4, 5], vec![(0, 1), (0, 2), (1, 2), (3, 4)]),
        ] {
            let g = MergeGraph::from_edges(&labels, &edges);
            let maxdeg = (0..g.len()).map(|v| g.degree(v)).max().unwrap_or(0);
            assert!(optimal_pebbles(&g) <= maxdeg + 1);
        }
    }

    #[test]
    fn isolated_nodes_need_one_pebble() {
        let g = MergeGraph::from_edges(&[0, 1, 2], &[]);
        assert_eq!(optimal_pebbles(&g), 1);
        let order = heuristic_order(&g);
        assert_eq!(order.len(), 3);
        assert_eq!(pebbles_for_order(&g, &order), 1);
    }

    #[test]
    fn empty_graph() {
        let g = MergeGraph::from_edges(&[], &[]);
        assert_eq!(optimal_pebbles(&g), 0);
        assert!(heuristic_order(&g).is_empty());
    }

    #[test]
    fn heuristic_never_beats_optimal() {
        // Pseudo-random small graphs: heuristic ≥ optimal, and both ≤
        // max-degree + 1.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for n in [4usize, 6, 8] {
            for _ in 0..20 {
                let labels: Vec<u32> = (0..n as u32).collect();
                let mut edges = Vec::new();
                for a in 0..n as u32 {
                    for b in (a + 1)..n as u32 {
                        if rng() % 3 == 0 {
                            edges.push((a, b));
                        }
                    }
                }
                let g = MergeGraph::from_edges(&labels, &edges);
                let opt = optimal_pebbles(&g);
                let heu = pebbles_for_order(&g, &heuristic_order(&g));
                assert!(heu >= opt, "heuristic {heu} beat optimal {opt}?!");
            }
        }
    }
}
