//! Connected components and simple structural statistics.
//!
//! Used by the experiment harness to report how well a fairness graph covers
//! the population (number of individuals with at least one judgment, size of
//! the largest component, ...), which mirrors the paper's discussion of
//! sparse pairwise judgments.

use crate::sparse::SparseGraph;

/// Labels each node with the id of its connected component (0-based, in
/// order of discovery by node index: the component of node 0 is 0, the next
/// node outside it starts component 1, and so on). Isolated nodes get their
/// own component.
///
/// A union-find over the graph's blocks and residual edges: a block joins
/// all its members at once, so no block is expanded into its edges.
pub fn connected_components(graph: &SparseGraph) -> Vec<usize> {
    let n = graph.num_nodes();
    let mut parent: Vec<usize> = (0..n).collect();
    let find = |parent: &mut [usize], mut u: usize| {
        while parent[u] != u {
            // Path halving: point every other node on the way at its
            // grandparent.
            parent[u] = parent[parent[u]];
            u = parent[u];
        }
        u
    };
    for (a, b) in graph.spanning_pairs() {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        parent[ra.max(rb)] = ra.min(rb);
    }
    let mut labels = vec![usize::MAX; n];
    let mut current = 0usize;
    for node in 0..n {
        let root = find(&mut parent, node);
        if labels[root] == usize::MAX {
            labels[root] = current;
            current += 1;
        }
        labels[node] = labels[root];
    }
    labels
}

/// Summary statistics of a graph's structure.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Number of nodes with at least one incident edge.
    pub covered_nodes: usize,
    /// Number of connected components (isolated nodes each count as one).
    pub num_components: usize,
    /// Size of the largest connected component.
    pub largest_component: usize,
    /// Mean unweighted degree.
    pub mean_degree: f64,
    /// Sum of all edge weights.
    pub total_weight: f64,
}

/// Computes [`GraphStats`] for a graph.
pub fn graph_stats(graph: &SparseGraph) -> GraphStats {
    let labels = connected_components(graph);
    let num_components = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; num_components];
    for &l in &labels {
        sizes[l] += 1;
    }
    let degrees = graph.degrees();
    let covered_nodes = degrees.iter().filter(|&&d| d > 0.0).count();
    GraphStats {
        num_nodes: graph.num_nodes(),
        num_edges: graph.num_edges(),
        covered_nodes,
        num_components,
        largest_component: sizes.iter().copied().max().unwrap_or(0),
        mean_degree: graph.mean_degree(),
        total_weight: graph.total_weight(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_of_two_triangles_and_an_isolated_node() {
        let mut g = SparseGraph::new(7);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            g.add_edge(a, b, 1.0).unwrap();
        }
        let labels = connected_components(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[6], labels[0]);
        assert_ne!(labels[6], labels[3]);

        let stats = graph_stats(&g);
        assert_eq!(stats.num_components, 3);
        assert_eq!(stats.largest_component, 3);
        assert_eq!(stats.covered_nodes, 6);
        assert_eq!(stats.num_edges, 6);
    }

    #[test]
    fn labels_follow_discovery_by_node_index() {
        // Block {5 | 2, 7} and residual edge {1, 6}; 0, 3 and 4 isolated.
        let mut g = SparseGraph::new(8);
        g.add_block([vec![5], vec![2, 7]], 1.0).unwrap();
        g.add_edge(6, 1, 1.0).unwrap();
        assert_eq!(connected_components(&g), vec![0, 1, 2, 3, 4, 2, 1, 2]);
        let stats = graph_stats(&g);
        assert_eq!(stats.covered_nodes, 5);
        assert_eq!(stats.num_edges, 3);
        assert_eq!(stats.largest_component, 3);
    }

    #[test]
    fn empty_graph_stats() {
        let g = SparseGraph::new(0);
        let stats = graph_stats(&g);
        assert_eq!(stats.num_nodes, 0);
        assert_eq!(stats.num_components, 0);
        assert_eq!(stats.largest_component, 0);
    }

    #[test]
    fn fully_isolated_nodes_form_singleton_components() {
        let g = SparseGraph::new(5);
        let labels = connected_components(&g);
        let unique: std::collections::BTreeSet<usize> = labels.into_iter().collect();
        assert_eq!(unique.len(), 5);
        let stats = graph_stats(&g);
        assert_eq!(stats.covered_nodes, 0);
        assert_eq!(stats.largest_component, 1);
    }
}
