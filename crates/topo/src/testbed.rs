//! The FIT IoT-LAB Strasbourg testbed topologies of §6.2.
//!
//! The paper runs on physical M3 nodes; we reconstruct the two
//! deployments geometrically and derive connectivity from the stated
//! radio settings:
//!
//! * **Tree** (Fig. 16): 10 nodes, depth 4, generated with the
//!   Kauer-Turau topology-construction method at −9 dBm transmit
//!   power and −72 dBm sensitivity. "Only transmissions of parents
//!   and children and siblings in the tree interfere with each
//!   other" — we build exactly that audibility graph.
//! * **Star** (Fig. 17): 17 nodes, 3 dBm / −90 dBm, all nodes in one
//!   collision domain ("all nodes can hear each other").

use qma_phy::{Connectivity, Position};

use crate::Topology;

/// Paper labels of the tree nodes (Fig. 16), level by level.
/// The root (sink) is node 28.
const TREE_LABELS: [u32; 10] = [28, 18, 15, 36, 41, 59, 19, 2, 64, 63];

/// Parent of each tree node, as an index into [`TREE_LABELS`].
const TREE_PARENT: [Option<usize>; 10] = [
    None,    // 28 (root)
    Some(0), // 18 → 28
    Some(0), // 15 → 28
    Some(1), // 36 → 18
    Some(1), // 41 → 18
    Some(2), // 59 → 15
    Some(3), // 19 → 36
    Some(3), // 2  → 36
    Some(4), // 64 → 41
    Some(5), // 63 → 59
];

/// The Fig. 16 routing tree (10 nodes, depth 4).
///
/// Audibility: parent↔child links plus sibling↔sibling links
/// (children of the same parent hear each other) — several classic
/// hidden-node constellations result, e.g. 36 and 59 both reach
/// ancestors but not each other.
#[allow(clippy::needless_range_loop)] // parallel-array walk over TREE_PARENT
pub fn iotlab_tree() -> Topology {
    let n = TREE_LABELS.len();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..n {
        if let Some(p) = TREE_PARENT[i] {
            edges.push((i as u32, p as u32));
        }
        for j in i + 1..n {
            if TREE_PARENT[i].is_some() && TREE_PARENT[i] == TREE_PARENT[j] {
                edges.push((i as u32, j as u32)); // siblings
            }
        }
    }

    // Positions: levels stacked 12 m apart, siblings spread 10 m —
    // purely presentational (connectivity is explicit above).
    let mut positions = vec![Position::ORIGIN; n];
    let mut level_count = [0usize; 4];
    for i in 0..n {
        let depth = {
            let mut d = 0;
            let mut cur = i;
            while let Some(p) = TREE_PARENT[cur] {
                cur = p;
                d += 1;
            }
            d
        };
        positions[i] = Position::new(level_count[depth] as f64 * 10.0, depth as f64 * 12.0);
        level_count[depth] += 1;
    }

    Topology {
        name: "iotlab-tree",
        positions,
        connectivity: Connectivity::symmetric(n, &edges),
        labels: TREE_LABELS.to_vec(),
        sink: 0,
        parent: TREE_PARENT.to_vec(),
    }
}

/// Paper labels of the star nodes (Fig. 17/19). Node 34 is the sink;
/// the 16 senders are the x-axis labels of Fig. 19.
const STAR_LABELS: [u32; 17] = [
    34, // sink
    10, 2, 20, 24, 30, 38, 4, 48, 52, 54, 56, 58, 6, 60, 62, 8,
];

/// The Fig. 17 star (17 nodes, single collision domain).
pub fn iotlab_star() -> Topology {
    let n = STAR_LABELS.len();
    let mut positions = vec![Position::ORIGIN];
    for k in 0..n - 1 {
        let angle = 2.0 * std::f64::consts::PI * k as f64 / (n - 1) as f64;
        positions.push(Position::polar(Position::ORIGIN, 8.0, angle));
    }
    Topology {
        name: "iotlab-star",
        positions,
        connectivity: Connectivity::full(n),
        labels: STAR_LABELS.to_vec(),
        sink: 0,
        parent: (0..n)
            .map(|i| if i == 0 { None } else { Some(0) })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qma_phy::PhyNodeId;

    #[test]
    fn tree_shape_matches_fig16() {
        let t = iotlab_tree();
        assert_eq!(t.len(), 10);
        assert_eq!(t.labels[t.sink], 28);
        // Depth 4 = 3 hops to the root for the leaves.
        for leaf in [6usize, 7, 8, 9] {
            assert_eq!(t.depth(leaf), 3, "leaf {}", t.labels[leaf]);
        }
        t.validate().unwrap();
    }

    #[test]
    fn tree_has_hidden_nodes() {
        let t = iotlab_tree();
        // 36 (idx 3) and 59 (idx 5) hang under different subtrees:
        // they must not hear each other, yet both reach their own
        // parents — the hidden-node constellations of §6.2.1.
        assert!(!t.connectivity.hears(PhyNodeId(3), PhyNodeId(5)));
        assert!(t.connectivity.bidirectional(PhyNodeId(3), PhyNodeId(1)));
        assert!(t.connectivity.bidirectional(PhyNodeId(5), PhyNodeId(2)));
    }

    #[test]
    fn tree_siblings_interfere() {
        let t = iotlab_tree();
        // 18 (1) and 15 (2) are siblings under the root.
        assert!(t.connectivity.bidirectional(PhyNodeId(1), PhyNodeId(2)));
        // 19 (6) and 2 (7) are siblings under 36.
        assert!(t.connectivity.bidirectional(PhyNodeId(6), PhyNodeId(7)));
    }

    #[test]
    fn star_is_single_collision_domain() {
        let t = iotlab_star();
        assert_eq!(t.len(), 17);
        assert_eq!(t.labels[t.sink], 34);
        for i in 0..t.len() {
            for j in 0..t.len() {
                if i != j {
                    assert!(t
                        .connectivity
                        .hears(PhyNodeId(i as u32), PhyNodeId(j as u32)));
                }
            }
        }
        t.validate().unwrap();
    }

    #[test]
    fn star_labels_match_fig19_axis() {
        let t = iotlab_star();
        for l in [10, 2, 20, 24, 30, 38, 4, 48, 52, 54, 56, 58, 6, 60, 62, 8] {
            assert!(t.index_of_label(l).is_some(), "label {l} missing");
        }
    }
}
