//! Island interconnection topologies. The survey reports: ring is the
//! most frequent; Defersha & Chen \[35\] sweep ring / mesh / fully
//! connected; \[36\] uses random per-epoch routes; Asadzadeh \[27\] a virtual
//! (hyper)cube; Gu \[28\] a star; Kokosiński \[32\] broadcast-to-all;
//! Belkadi \[37\] ring and 2-D grid.

use ga::rng::stream_rng;
use rand::seq::SliceRandom;

/// Island interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Unidirectional ring `i -> (i+1) % n`.
    Ring,
    /// 2-D grid (no wraparound), row-major with `cols` columns; neighbours
    /// are the 4-neighbourhood.
    Grid2D { cols: usize },
    /// 2-D torus (grid with wraparound).
    Torus2D { cols: usize },
    /// Hypercube: neighbours differ in one bit (Asadzadeh's 8-agent cube
    /// has 3 neighbours each).
    Hypercube,
    /// Star: island 0 is the hub; leaves talk only to the hub.
    Star,
    /// Every island sends to every other.
    FullyConnected,
    /// Random routes, re-drawn each epoch from the given seed
    /// (Defersha & Chen \[36\]).
    RandomEpoch { seed: u64 },
}

impl Topology {
    /// Destinations island `i` of `n` sends migrants to during `epoch`.
    pub fn destinations(&self, i: usize, n: usize, epoch: u64) -> Vec<usize> {
        debug_assert!(i < n);
        if n <= 1 {
            return Vec::new();
        }
        match *self {
            Topology::Ring => vec![(i + 1) % n],
            Topology::Grid2D { cols } => {
                let cols = cols.max(1);
                let (r, c) = (i / cols, i % cols);
                let rows = n.div_ceil(cols);
                let mut out = Vec::new();
                if r > 0 {
                    out.push(i - cols);
                }
                if r + 1 < rows && i + cols < n {
                    out.push(i + cols);
                }
                if c > 0 {
                    out.push(i - 1);
                }
                if c + 1 < cols && i + 1 < n {
                    out.push(i + 1);
                }
                out
            }
            Topology::Torus2D { cols } => {
                let cols = cols.max(1);
                let rows = n / cols;
                debug_assert!(rows * cols == n, "torus requires rows*cols == n");
                let (r, c) = (i / cols, i % cols);
                let mut out = vec![
                    ((r + rows - 1) % rows) * cols + c,
                    ((r + 1) % rows) * cols + c,
                    r * cols + (c + cols - 1) % cols,
                    r * cols + (c + 1) % cols,
                ];
                out.sort_unstable();
                out.dedup();
                out.retain(|&d| d != i);
                out
            }
            Topology::Hypercube => {
                let mut out = Vec::new();
                let mut bit = 1usize;
                while bit < n {
                    let d = i ^ bit;
                    if d < n {
                        out.push(d);
                    }
                    bit <<= 1;
                }
                out
            }
            Topology::Star => {
                if i == 0 {
                    (1..n).collect()
                } else {
                    vec![0]
                }
            }
            Topology::FullyConnected => (0..n).filter(|&d| d != i).collect(),
            Topology::RandomEpoch { seed } => {
                // One random derangement-ish route set per epoch, shared by
                // all islands (each island sends to one random partner).
                let mut rng = stream_rng(seed, epoch);
                let mut targets: Vec<usize> = (0..n).collect();
                targets.shuffle(&mut rng);
                // Fix self-sends by rotating them onto the next slot.
                for k in 0..n {
                    if targets[k] == k {
                        let swap_with = (k + 1) % n;
                        targets.swap(k, swap_with);
                    }
                }
                vec![targets[i]]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total directed links at epoch 0 (messages per migration event).
    fn links(t: &Topology, n: usize) -> usize {
        (0..n).map(|i| t.destinations(i, n, 0).len()).sum()
    }

    #[test]
    fn ring_is_a_cycle() {
        let t = Topology::Ring;
        assert_eq!(t.destinations(0, 4, 0), vec![1]);
        assert_eq!(t.destinations(3, 4, 0), vec![0]);
        assert_eq!(links(&t, 4), 4);
    }

    #[test]
    fn hypercube_degree_is_log_n() {
        let t = Topology::Hypercube;
        for i in 0..8 {
            assert_eq!(t.destinations(i, 8, 0).len(), 3, "island {i}");
        }
        // Asadzadeh's virtual cube: 8 agents, 3 neighbours each.
        assert_eq!(links(&t, 8), 24);
    }

    #[test]
    fn star_routes_through_hub() {
        let t = Topology::Star;
        assert_eq!(t.destinations(0, 5, 0), vec![1, 2, 3, 4]);
        assert_eq!(t.destinations(3, 5, 0), vec![0]);
    }

    #[test]
    fn fully_connected_has_n_squared_minus_n_links() {
        let t = Topology::FullyConnected;
        assert_eq!(links(&t, 6), 30);
    }

    #[test]
    fn torus_neighbours_wrap() {
        let t = Topology::Torus2D { cols: 3 };
        // 3x3 torus: every island has 4 distinct neighbours.
        for i in 0..9 {
            let d = t.destinations(i, 9, 0);
            assert_eq!(d.len(), 4, "island {i}: {d:?}");
            assert!(!d.contains(&i));
        }
    }

    #[test]
    fn grid_corners_have_two_neighbours() {
        let t = Topology::Grid2D { cols: 3 };
        assert_eq!(t.destinations(0, 9, 0).len(), 2);
        assert_eq!(t.destinations(4, 9, 0).len(), 4); // centre
    }

    #[test]
    fn random_epoch_is_deterministic_and_never_self() {
        let t = Topology::RandomEpoch { seed: 5 };
        for epoch in 0..10 {
            for i in 0..7 {
                let a = t.destinations(i, 7, epoch);
                let b = t.destinations(i, 7, epoch);
                assert_eq!(a, b);
                assert_eq!(a.len(), 1);
                assert_ne!(a[0], i);
            }
        }
        // Routes change across epochs (with overwhelming probability for
        // at least one island).
        let changed = (0..7).any(|i| t.destinations(i, 7, 0) != t.destinations(i, 7, 1));
        assert!(changed);
    }

    #[test]
    fn single_island_has_no_links() {
        for t in [
            Topology::Ring,
            Topology::Star,
            Topology::FullyConnected,
            Topology::Hypercube,
        ] {
            assert!(t.destinations(0, 1, 0).is_empty());
        }
    }
}
