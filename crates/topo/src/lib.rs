//! Topology generators for the QMA reproduction.
//!
//! One constructor per evaluation scenario of the paper:
//!
//! * [`hidden_node`] — the 3-node hidden-terminal chain of Fig. 6,
//! * [`hidden_star`] — the same constellation generalised to `n`
//!   mutually hidden sources around one sink (campaign scale-up),
//! * [`iotlab_tree`] — the FIT IoT-LAB Strasbourg routing tree of
//!   Fig. 16 (10 nodes, depth 4, −9 dBm / −72 dBm),
//! * [`iotlab_star`] — the 17-node star of Fig. 17 (3 dBm / −90 dBm,
//!   single collision domain),
//! * [`concentric_rings`] — the scalability topology of Fig. 20
//!   (hexagonal rings: 7, 19, 43, 91 nodes),
//!
//! plus generic helpers ([`fn@line`], [`grid`]) used by tests and the
//! massive-access grid. Every topology carries positions, the
//! audibility graph (an explicit edge list), the paper's node labels,
//! the data sink and a routing tree toward it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod shapes;
pub mod testbed;

pub use shapes::{concentric_rings, grid, hidden_node, hidden_star, line};
pub use testbed::{iotlab_star, iotlab_tree};

use qma_phy::{Connectivity, Position};

/// A generated network topology.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Human-readable name ("hidden-node", "iotlab-tree", …).
    pub name: &'static str,
    /// Node positions in metres.
    pub positions: Vec<Position>,
    /// Who hears whom.
    pub connectivity: Connectivity,
    /// The paper's node labels (used on figure axes), aligned with
    /// node indices.
    pub labels: Vec<u32>,
    /// Index of the data sink.
    pub sink: usize,
    /// Routing tree: `parent[i]` is the next hop toward the sink
    /// (`None` for the sink itself).
    pub parent: Vec<Option<usize>>,
}

impl Topology {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` for an empty topology (never produced by the
    /// constructors).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// All non-sink node indices (the traffic sources in the paper's
    /// data-collection scenarios).
    pub fn sources(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(move |&i| i != self.sink)
    }

    /// Hop distance from a node to the sink along the routing tree.
    ///
    /// # Panics
    ///
    /// Panics if the parent chain is broken (cycle or detached node).
    pub fn depth(&self, node: usize) -> usize {
        let mut d = 0;
        let mut cur = node;
        while let Some(p) = self.parent[cur] {
            cur = p;
            d += 1;
            assert!(d <= self.len(), "cycle in routing tree at {node}");
        }
        assert_eq!(cur, self.sink, "node {node} not rooted at the sink");
        d
    }

    /// Validates structural invariants (the tests call it; the
    /// constructors do not): parents are audible both ways and every
    /// node reaches the sink.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len();
        if self.connectivity.len() != n || self.labels.len() != n || self.parent.len() != n {
            return Err("inconsistent table sizes".into());
        }
        if self.sink >= n {
            return Err("sink out of range".into());
        }
        if self.parent[self.sink].is_some() {
            return Err("sink must not have a parent".into());
        }
        for i in 0..n {
            if let Some(p) = self.parent[i] {
                let a = qma_phy::PhyNodeId(i as u32);
                let b = qma_phy::PhyNodeId(p as u32);
                if !self.connectivity.bidirectional(a, b) {
                    return Err(format!("parent link {i}→{p} not bidirectional"));
                }
            }
            // depth() panics on cycles; convert to an error.
            let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.depth(i)));
            if ok.is_err() {
                return Err(format!("node {i} cannot reach the sink"));
            }
        }
        Ok(())
    }

    /// Index of the node with a given paper label.
    pub fn index_of_label(&self, label: u32) -> Option<usize> {
        self.labels.iter().position(|&l| l == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtin_topologies_validate() {
        let mut all = vec![
            hidden_node(),
            hidden_star(6),
            iotlab_tree(),
            iotlab_star(),
            line(5, 10.0),
            grid(4, 4, 10.0),
        ];
        for rings in 1..=4 {
            all.push(concentric_rings(rings, 20.0));
        }
        for t in &all {
            t.validate().unwrap_or_else(|e| panic!("{}: {e}", t.name));
        }
    }

    #[test]
    fn ring_counts_match_paper() {
        // "A number of 7, 19, 43, and 91 nodes is evaluated,
        // corresponding to 1 to 4 rings around the center node."
        assert_eq!(concentric_rings(1, 20.0).len(), 7);
        assert_eq!(concentric_rings(2, 20.0).len(), 19);
        assert_eq!(concentric_rings(3, 20.0).len(), 43);
        assert_eq!(concentric_rings(4, 20.0).len(), 91);
    }

    #[test]
    fn label_lookup() {
        let t = iotlab_tree();
        let idx = t.index_of_label(28).expect("root labelled 28");
        assert_eq!(idx, t.sink);
        assert_eq!(t.index_of_label(9999), None);
    }

    #[test]
    fn depths_follow_tree() {
        let t = iotlab_tree();
        assert_eq!(t.depth(t.sink), 0);
        let max_depth = (0..t.len()).map(|i| t.depth(i)).max().unwrap();
        assert_eq!(max_depth, 3, "tree of depth 4 has 3 hops to the root");
    }

    #[test]
    fn sources_excludes_sink() {
        let t = hidden_node();
        let s: Vec<usize> = t.sources().collect();
        assert_eq!(s.len(), 2);
        assert!(!s.contains(&t.sink));
    }
}
