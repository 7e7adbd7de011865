//! Geometric topology constructors.

use qma_phy::{Connectivity, PhyNodeId, Position};

use crate::Topology;

/// The hidden-node chain of Fig. 6: A — B — C with A and C mutually
/// inaudible and B (the sink) in the middle.
///
/// Node order: 0 = A, 1 = B (sink), 2 = C.
pub fn hidden_node() -> Topology {
    let spacing = 30.0;
    Topology {
        name: "hidden-node",
        positions: vec![
            Position::new(-spacing, 0.0),
            Position::ORIGIN,
            Position::new(spacing, 0.0),
        ],
        connectivity: Connectivity::symmetric(3, &[(0, 1), (1, 2)]),
        labels: vec![0, 1, 2],
        sink: 1,
        parent: vec![Some(1), None, Some(1)],
    }
}

/// A star of `sources` mutually hidden sources around a central
/// sink — the Fig. 6 hidden-node constellation generalised to any
/// population. Every source hears only the sink, so all
/// `sources·(sources−1)/2` pairs are hidden from each other; with
/// `sources = 2` this is exactly the paper's A — B — C chain
/// (node order: sources first, sink last, matching the chain's
/// "A, C are sources" reading).
///
/// Node order: 0..sources are the sources, `sources` is the sink.
///
/// # Panics
///
/// Panics if `sources == 0`.
pub fn hidden_star(sources: usize) -> Topology {
    assert!(sources >= 1, "a star needs at least one source");
    let n = sources + 1;
    let sink = sources;
    let radius = 30.0;
    let mut positions: Vec<Position> = (0..sources)
        .map(|i| {
            let angle = 2.0 * std::f64::consts::PI * i as f64 / sources as f64;
            Position::polar(Position::ORIGIN, radius, angle)
        })
        .collect();
    positions.push(Position::ORIGIN);
    let edges: Vec<(u32, u32)> = (0..sources as u32).map(|i| (i, sink as u32)).collect();
    Topology {
        name: "hidden-star",
        positions,
        connectivity: Connectivity::symmetric(n, &edges),
        labels: (0..n as u32).collect(),
        sink,
        parent: (0..n).map(|i| (i != sink).then_some(sink)).collect(),
    }
}

/// A line of `n` nodes spaced `spacing` metres apart; node 0 is the
/// sink and connectivity covers immediate neighbours only.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn line(n: usize, spacing: f64) -> Topology {
    assert!(n >= 2, "a line needs at least two nodes");
    let positions = (0..n)
        .map(|i| Position::new(i as f64 * spacing, 0.0))
        .collect();
    let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i as u32, i as u32 + 1)).collect();
    Topology {
        name: "line",
        positions,
        connectivity: Connectivity::symmetric(n, &edges),
        labels: (0..n as u32).collect(),
        sink: 0,
        parent: (0..n)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect(),
    }
}

/// A `w × h` grid with `spacing` metres between neighbours; the sink
/// is the upper-left corner, connectivity is 4-neighbour, and the
/// routing tree walks left then up.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(w: usize, h: usize, spacing: f64) -> Topology {
    assert!(w > 0 && h > 0, "grid dimensions must be positive");
    let n = w * h;
    let idx = |x: usize, y: usize| y * w + x;
    let mut positions = Vec::with_capacity(n);
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            positions.push(Position::new(x as f64 * spacing, y as f64 * spacing));
            if x + 1 < w {
                edges.push((idx(x, y) as u32, idx(x + 1, y) as u32));
            }
            if y + 1 < h {
                edges.push((idx(x, y) as u32, idx(x, y + 1) as u32));
            }
        }
    }
    let parent = (0..n)
        .map(|i| {
            let (x, y) = (i % w, i / w);
            if x == 0 && y == 0 {
                None
            } else if x > 0 {
                Some(idx(x - 1, y))
            } else {
                Some(idx(x, y - 1))
            }
        })
        .collect();
    Topology {
        name: "grid",
        positions,
        connectivity: Connectivity::symmetric(n, &edges),
        labels: (0..n as u32).collect(),
        sink: 0,
        parent,
    }
}

/// The concentric topology of Fig. 20: a centre sink surrounded by
/// `rings` concentric rings; ring *k* holds `6·2^(k−1)` nodes at
/// radius `k · ring_spacing`. Node counts: 7, 19, 43, 91 for 1–4
/// rings, exactly the paper's series.
///
/// Connectivity is unit-disk with radius `1.6 × ring_spacing`, which
/// connects each node to its ring neighbours and the adjacent rings —
/// dense enough for hidden-node constellations (the paper notes such
/// scenarios "often suffer from multiple hidden node problems") while
/// keeping far-apart branches independent. Each node routes to its
/// nearest audible node one ring further in.
///
/// # Panics
///
/// Panics if `rings == 0` or `ring_spacing` is not positive.
pub fn concentric_rings(rings: usize, ring_spacing: f64) -> Topology {
    assert!(rings >= 1, "need at least one ring");
    assert!(ring_spacing > 0.0, "ring spacing must be positive");

    let mut positions = vec![Position::ORIGIN];
    let mut ring_of = vec![0usize];
    for k in 1..=rings {
        let count = 6 << (k - 1);
        for j in 0..count {
            let angle = 2.0 * std::f64::consts::PI * j as f64 / count as f64
                + if k % 2 == 0 { 0.26 } else { 0.0 }; // stagger rings
            positions.push(Position::polar(
                Position::ORIGIN,
                k as f64 * ring_spacing,
                angle,
            ));
            ring_of.push(k);
        }
    }
    let n = positions.len();

    let radius = 1.6 * ring_spacing;
    let mut edges = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if positions[i].distance_to(positions[j]) <= radius {
                edges.push((i as u32, j as u32));
            }
        }
    }
    let connectivity = Connectivity::symmetric(n, &edges);

    // Parent: nearest audible node exactly one ring further in.
    let parent = (0..n)
        .map(|i| {
            if i == 0 {
                return None;
            }
            let target_ring = ring_of[i] - 1;
            let mut best: Option<(usize, f64)> = None;
            for j in 0..n {
                if ring_of[j] != target_ring || i == j {
                    continue;
                }
                if !connectivity.bidirectional(PhyNodeId(i as u32), PhyNodeId(j as u32)) {
                    continue;
                }
                let d = positions[i].distance_to(positions[j]);
                if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                    best = Some((j, d));
                }
            }
            Some(best.expect("ring spacing guarantees an inward neighbour").0)
        })
        .collect();

    Topology {
        name: "concentric-rings",
        positions,
        connectivity,
        labels: (0..n as u32).collect(),
        sink: 0,
        parent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hidden_node_is_hidden() {
        let t = hidden_node();
        let a = PhyNodeId(0);
        let b = PhyNodeId(1);
        let c = PhyNodeId(2);
        assert!(t.connectivity.bidirectional(a, b));
        assert!(t.connectivity.bidirectional(b, c));
        assert!(!t.connectivity.hears(a, c));
        assert!(!t.connectivity.hears(c, a));
        assert_eq!(t.sink, 1);
    }

    #[test]
    fn ring_one_is_fully_meshed_with_center() {
        let t = concentric_rings(1, 20.0);
        for i in 1..7 {
            assert!(t
                .connectivity
                .bidirectional(PhyNodeId(0), PhyNodeId(i as u32)));
            assert_eq!(t.parent[i], Some(0));
        }
    }

    #[test]
    fn outer_rings_route_inward() {
        let t = concentric_rings(3, 20.0);
        for i in t.sources() {
            let p = t.parent[i].unwrap();
            let di = t.positions[i].distance_to(Position::ORIGIN);
            let dp = t.positions[p].distance_to(Position::ORIGIN);
            assert!(dp < di, "parent of {i} is not closer to the centre");
        }
        // Hidden nodes exist: some pair of nodes shares a receiver
        // without hearing each other.
        let mut found_hidden = false;
        'outer: for i in 0..t.len() {
            for j in 0..t.len() {
                if i == j
                    || t.connectivity
                        .hears(PhyNodeId(i as u32), PhyNodeId(j as u32))
                {
                    continue;
                }
                for k in 0..t.len() {
                    if k != i
                        && k != j
                        && t.connectivity
                            .hears(PhyNodeId(k as u32), PhyNodeId(i as u32))
                        && t.connectivity
                            .hears(PhyNodeId(k as u32), PhyNodeId(j as u32))
                    {
                        found_hidden = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(found_hidden, "ring topology lacks hidden-node pairs");
    }

    #[test]
    fn grid_routing_reaches_corner() {
        let t = grid(3, 3, 10.0);
        assert_eq!(t.depth(8), 4); // opposite corner: 2 left + 2 up
        t.validate().unwrap();
    }

    #[test]
    fn hidden_star_sources_are_mutually_hidden() {
        for sources in [1usize, 2, 4, 8] {
            let t = hidden_star(sources);
            t.validate().unwrap();
            assert_eq!(t.len(), sources + 1);
            assert_eq!(t.sink, sources);
            let sink = PhyNodeId(t.sink as u32);
            for i in 0..sources {
                assert!(t.connectivity.bidirectional(PhyNodeId(i as u32), sink));
                for j in 0..sources {
                    if i != j {
                        assert!(
                            !t.connectivity
                                .hears(PhyNodeId(i as u32), PhyNodeId(j as u32)),
                            "sources {i} and {j} must be hidden"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hidden_star_two_sources_matches_fig6_shape() {
        // sources=2 is the A — B — C chain up to node numbering.
        let star = hidden_star(2);
        let chain = hidden_node();
        assert_eq!(star.len(), chain.len());
        // Both have exactly 2 bidirectional links and one hidden pair.
        assert_eq!(star.sources().count(), chain.sources().count());
    }

    #[test]
    fn line_is_a_chain() {
        let t = line(4, 10.0);
        assert_eq!(t.depth(3), 3);
        assert!(!t.connectivity.hears(PhyNodeId(0), PhyNodeId(2)));
    }
}
