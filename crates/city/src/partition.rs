//! Seeded Voronoi urban partition.
//!
//! The paper uses the Shenzhen census partition: 491 irregular regions whose
//! boundaries follow the city's geography. We reproduce the *structure* that
//! the algorithms depend on — an irregular planar partition with an adjacency
//! graph and heterogeneous region sizes — with a Voronoi diagram over random
//! seed points, rasterized on a fine lattice to extract adjacency.
//!
//! Determinism: the same `(bounds, n_regions, seed)` always produces the same
//! partition, so every experiment is repeatable.

use crate::geometry::{Point, Rect};
use crate::ids::RegionId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Lattice resolution used to rasterize the Voronoi diagram for adjacency
/// extraction. 256×128 cells is fine enough that every region of a
/// ≤500-region partition touches its true neighbours.
const LATTICE_X: usize = 256;
const LATTICE_Y: usize = 128;

/// One region of the urban partition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Region {
    /// Dense region id.
    pub id: RegionId,
    /// Voronoi seed / representative point. Taxis displaced to a region
    /// travel to this point.
    pub centroid: Point,
    /// Approximate area in km² (lattice-cell count × cell area).
    pub area_km2: f64,
    /// Ids of regions sharing a boundary with this one, sorted ascending.
    pub neighbors: Vec<RegionId>,
}

/// A Voronoi partition of the city into regions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UrbanPartition {
    bounds: Rect,
    regions: Vec<Region>,
}

impl UrbanPartition {
    /// Generates a partition of `bounds` into `n_regions` Voronoi regions
    /// using the RNG `seed`.
    ///
    /// # Panics
    /// Panics if `n_regions` is zero or exceeds `u16::MAX`.
    pub fn generate(bounds: Rect, n_regions: usize, seed: u64) -> Self {
        assert!(n_regions > 0, "need at least one region");
        assert!(n_regions <= u16::MAX as usize, "too many regions");
        let mut rng = StdRng::seed_from_u64(seed);

        // Seeds are denser near the city centre (real census blocks are
        // smaller downtown): mix a uniform cloud with a centre-biased cloud.
        let center = bounds.center();
        let seeds: Vec<Point> = (0..n_regions)
            .map(|i| {
                if i % 3 == 0 {
                    // Centre-biased: lerp a uniform point halfway to centre.
                    let p = Point::new(
                        rng.gen_range(bounds.min.x..bounds.max.x),
                        rng.gen_range(bounds.min.y..bounds.max.y),
                    );
                    p.lerp(center, rng.gen_range(0.2..0.6))
                } else {
                    Point::new(
                        rng.gen_range(bounds.min.x..bounds.max.x),
                        rng.gen_range(bounds.min.y..bounds.max.y),
                    )
                }
            })
            .collect();

        // Rasterize: assign each lattice cell to its nearest seed.
        let mut owner = vec![0u16; LATTICE_X * LATTICE_Y];
        let cell_w = bounds.width() / LATTICE_X as f64;
        let cell_h = bounds.height() / LATTICE_Y as f64;
        for gy in 0..LATTICE_Y {
            for gx in 0..LATTICE_X {
                let p = Point::new(
                    bounds.min.x + (gx as f64 + 0.5) * cell_w,
                    bounds.min.y + (gy as f64 + 0.5) * cell_h,
                );
                owner[gy * LATTICE_X + gx] = nearest_seed(&seeds, p);
            }
        }

        // Extract per-region cell counts and adjacency from the raster.
        let mut cell_count = vec![0usize; n_regions];
        let mut adjacency = vec![std::collections::BTreeSet::new(); n_regions];
        for gy in 0..LATTICE_Y {
            for gx in 0..LATTICE_X {
                let o = owner[gy * LATTICE_X + gx] as usize;
                cell_count[o] += 1;
                if gx + 1 < LATTICE_X {
                    let right = owner[gy * LATTICE_X + gx + 1] as usize;
                    if right != o {
                        adjacency[o].insert(right as u16);
                        adjacency[right].insert(o as u16);
                    }
                }
                if gy + 1 < LATTICE_Y {
                    let down = owner[(gy + 1) * LATTICE_X + gx] as usize;
                    if down != o {
                        adjacency[o].insert(down as u16);
                        adjacency[down].insert(o as u16);
                    }
                }
            }
        }

        let cell_area = cell_w * cell_h;
        let regions = seeds
            .into_iter()
            .enumerate()
            .map(|(i, centroid)| Region {
                id: RegionId(i as u16),
                centroid,
                area_km2: cell_count[i] as f64 * cell_area,
                neighbors: adjacency[i].iter().map(|&n| RegionId(n)).collect(),
            })
            .collect();

        UrbanPartition { bounds, regions }
    }

    /// The city bounding box.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Number of regions.
    #[inline]
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the partition is empty (never true for generated partitions).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The region with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// All regions in id order.
    #[inline]
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region containing point `p` (nearest Voronoi seed).
    pub fn locate(&self, p: Point) -> RegionId {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, r) in self.regions.iter().enumerate() {
            let d = r.centroid.distance_sq(p);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        RegionId(best as u16)
    }

    /// Whether regions `a` and `b` share a boundary.
    pub fn are_adjacent(&self, a: RegionId, b: RegionId) -> bool {
        self.region(a).neighbors.binary_search(&b).is_ok()
    }

    /// Centroid-to-centroid Euclidean distance between two regions, km.
    #[inline]
    pub fn centroid_distance(&self, a: RegionId, b: RegionId) -> f64 {
        self.region(a).centroid.distance(self.region(b).centroid)
    }

    /// Whether the region adjacency graph is connected (BFS from region 0).
    pub fn is_connected(&self) -> bool {
        if self.regions.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.regions.len()];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(i) = queue.pop_front() {
            for &n in &self.regions[i].neighbors {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    count += 1;
                    queue.push_back(n.index());
                }
            }
        }
        count == self.regions.len()
    }
}

fn nearest_seed(seeds: &[Point], p: Point) -> u16 {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, s) in seeds.iter().enumerate() {
        let d = s.distance_sq(p);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> UrbanPartition {
        UrbanPartition::generate(Rect::with_size(50.0, 25.0), 60, 7)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.regions().iter().zip(b.regions()) {
            assert_eq!(ra.centroid, rb.centroid);
            assert_eq!(ra.neighbors, rb.neighbors);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = UrbanPartition::generate(Rect::with_size(50.0, 25.0), 60, 1);
        let b = UrbanPartition::generate(Rect::with_size(50.0, 25.0), 60, 2);
        let same = a
            .regions()
            .iter()
            .zip(b.regions())
            .all(|(x, y)| x.centroid == y.centroid);
        assert!(!same);
    }

    #[test]
    fn region_count_matches_request() {
        assert_eq!(small().len(), 60);
        assert_eq!(
            UrbanPartition::generate(Rect::with_size(60.0, 30.0), 491, 3).len(),
            491
        );
    }

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let p = small();
        for r in p.regions() {
            for &n in &r.neighbors {
                assert_ne!(n, r.id, "region adjacent to itself");
                assert!(
                    p.region(n).neighbors.contains(&r.id),
                    "asymmetric adjacency {} -> {}",
                    r.id,
                    n
                );
            }
        }
    }

    #[test]
    fn neighbors_are_sorted() {
        let p = small();
        for r in p.regions() {
            let mut sorted = r.neighbors.clone();
            sorted.sort();
            assert_eq!(sorted, r.neighbors);
        }
    }

    #[test]
    fn partition_graph_is_connected() {
        assert!(small().is_connected());
        assert!(UrbanPartition::generate(Rect::with_size(60.0, 30.0), 491, 11).is_connected());
    }

    #[test]
    fn every_region_has_a_neighbor() {
        // A Voronoi region in a partition of >1 regions always borders another.
        let p = small();
        for r in p.regions() {
            assert!(!r.neighbors.is_empty(), "{} has no neighbors", r.id);
        }
    }

    #[test]
    fn locate_returns_owning_region() {
        let p = small();
        for r in p.regions() {
            assert_eq!(p.locate(r.centroid), r.id);
        }
    }

    #[test]
    fn areas_sum_to_city_area() {
        let p = small();
        let total: f64 = p.regions().iter().map(|r| r.area_km2).sum();
        assert!((total - p.bounds().area()).abs() < 1e-6);
    }

    #[test]
    fn are_adjacent_agrees_with_lists() {
        let p = small();
        let r0 = &p.regions()[0];
        let n = r0.neighbors[0];
        assert!(p.are_adjacent(r0.id, n));
        // Find some region not adjacent to r0.
        let far = p
            .regions()
            .iter()
            .find(|r| r.id != r0.id && !r0.neighbors.contains(&r.id))
            .expect("60-region partition has non-neighbors");
        assert!(!p.are_adjacent(r0.id, far.id));
    }

    #[test]
    fn centroid_distance_is_symmetric() {
        let p = small();
        let a = RegionId(0);
        let b = RegionId(5);
        assert!((p.centroid_distance(a, b) - p.centroid_distance(b, a)).abs() < 1e-12);
        assert_eq!(p.centroid_distance(a, a), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn zero_regions_rejected() {
        let _ = UrbanPartition::generate(Rect::with_size(10.0, 10.0), 0, 1);
    }

    #[test]
    fn region_sizes_are_heterogeneous() {
        // The centre-bias should produce meaningfully unequal region areas,
        // like real census partitions.
        let p = small();
        let areas: Vec<f64> = p.regions().iter().map(|r| r.area_km2).collect();
        let max = areas.iter().cloned().fold(f64::MIN, f64::max);
        let min = areas.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 2.0 * min.max(1e-9), "areas suspiciously uniform");
    }
}
