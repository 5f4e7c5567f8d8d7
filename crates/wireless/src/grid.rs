//! Deterministic uniform-grid neighbor index over node positions.
//!
//! [`NeighborGrid`] buckets nodes, with their positions, into square cells
//! of a fixed size (the medium derives it by inverting the path-loss model
//! at the fan-out pruning threshold, so one cell ring always covers the
//! maximum reach of a transmission). Candidate queries return the 3×3 cell
//! neighborhood around a position, **sorted by [`NodeId`]** — the same
//! relative order as the brute-force `BTreeMap` scan it replaces, which
//! keeps interceptor call sequences and therefore whole runs
//! bit-identical.
//!
//! Only ordered structures are used (`BTreeMap` + sorted `Vec`s), so
//! iteration order is a pure function of the stored keys — never of hash
//! state — per the determinism rules enforced by `comfase-lint`.

use std::collections::BTreeMap;

use crate::frame::NodeId;
use crate::geom::Position;

/// Cell coordinate: `floor(x / cell)`, `floor(y / cell)` as `i64`.
type Cell = (i64, i64);

/// A uniform grid over the ground plane mapping cells to the nodes inside
/// them. Cloneable so it survives `World` snapshots (PrefixFork).
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborGrid {
    cell_m: f64,
    /// Nodes per occupied cell with their current positions, each `Vec`
    /// kept sorted by `NodeId`.
    cells: BTreeMap<Cell, Vec<(NodeId, Position)>>,
    /// Reverse index: which cell each node currently occupies.
    node_cells: BTreeMap<NodeId, Cell>,
}

impl NeighborGrid {
    /// Creates an empty grid with the given cell edge length in metres.
    ///
    /// # Panics
    ///
    /// Panics unless `cell_m` is positive and finite.
    pub fn new(cell_m: f64) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "grid cell size must be positive and finite, got {cell_m}"
        );
        NeighborGrid {
            cell_m,
            cells: BTreeMap::new(),
            node_cells: BTreeMap::new(),
        }
    }

    /// The cell edge length, metres.
    pub fn cell_size_m(&self) -> f64 {
        self.cell_m
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.node_cells.len()
    }

    /// `true` if no node is indexed.
    pub fn is_empty(&self) -> bool {
        self.node_cells.is_empty()
    }

    fn cell_of(&self, pos: &Position) -> Cell {
        // `as i64` saturates (and maps NaN to 0) deterministically, so even
        // pathological coordinates land in a well-defined cell.
        (
            (pos.x / self.cell_m).floor() as i64,
            (pos.y / self.cell_m).floor() as i64,
        )
    }

    /// Inserts a node or moves it to `pos`.
    pub fn update_position(&mut self, node: NodeId, pos: &Position) {
        let new_cell = self.cell_of(pos);
        if let Some(&old_cell) = self.node_cells.get(&node) {
            if old_cell == new_cell {
                let bucket = self.cells.get_mut(&old_cell).expect("occupied cell");
                let at = bucket.binary_search_by_key(&node, |&(n, _)| n);
                bucket[at.expect("node in its cell")].1 = *pos;
                return;
            }
            self.remove_from_cell(node, old_cell);
        }
        self.node_cells.insert(node, new_cell);
        let bucket = self.cells.entry(new_cell).or_default();
        let at = bucket.partition_point(|&(n, _)| n < node);
        bucket.insert(at, (node, *pos));
    }

    /// Removes a node from the index (no-op if absent).
    pub fn remove(&mut self, node: NodeId) {
        if let Some(cell) = self.node_cells.remove(&node) {
            self.remove_from_cell(node, cell);
        }
    }

    fn remove_from_cell(&mut self, node: NodeId, cell: Cell) {
        if let Some(bucket) = self.cells.get_mut(&cell) {
            if let Ok(at) = bucket.binary_search_by_key(&node, |&(n, _)| n) {
                bucket.remove(at);
            }
            if bucket.is_empty() {
                self.cells.remove(&cell);
            }
        }
    }

    /// Replaces the contents of `out` with all nodes in the 3×3 cell
    /// neighborhood around `pos` and their positions, sorted by `NodeId`.
    /// With the cell size at least the maximum transmission range, this is
    /// a superset of every node within range of `pos`. The buffer is the
    /// caller's, so a query reuses its capacity instead of allocating.
    pub fn candidates(&self, pos: &Position, out: &mut Vec<(NodeId, Position)>) {
        let (cx, cy) = self.cell_of(pos);
        out.clear();
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                let cell = (cx.saturating_add(dx), cy.saturating_add(dy));
                if let Some(bucket) = self.cells.get(&cell) {
                    out.extend_from_slice(bucket);
                }
            }
        }
        out.sort_unstable_by_key(|&(n, _)| n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Position {
        Position::on_road(x, y)
    }

    /// The candidate ids around `pos`.
    fn cands(g: &NeighborGrid, pos: &Position) -> Vec<NodeId> {
        let mut out = Vec::new();
        g.candidates(pos, &mut out);
        out.into_iter().map(|(n, _)| n).collect()
    }

    #[test]
    fn candidates_cover_everything_within_cell_size() {
        let mut g = NeighborGrid::new(100.0);
        for i in 0..50u32 {
            g.update_position(NodeId(i), &p(i as f64 * 13.0, (i % 7) as f64));
        }
        assert_eq!(g.len(), 50);
        // One buffer for every query: each call replaces its contents.
        let mut found = Vec::new();
        for i in 0..50u32 {
            let me = p(i as f64 * 13.0, (i % 7) as f64);
            g.candidates(&me, &mut found);
            let ids: Vec<NodeId> = found.iter().map(|&(n, _)| n).collect();
            assert_eq!(ids, cands(&g, &me), "reused buffer for {i}");
            for j in 0..50u32 {
                let other = p(j as f64 * 13.0, (j % 7) as f64);
                if me.ground_distance_to(&other) <= 100.0 {
                    assert!(found.contains(&(NodeId(j), other)), "{i} must see {j}");
                }
            }
        }
    }

    #[test]
    fn candidates_are_sorted_and_deduplicated() {
        let mut g = NeighborGrid::new(50.0);
        for i in [9u32, 3, 7, 1, 5] {
            g.update_position(NodeId(i), &p(i as f64, 0.0));
        }
        let found = cands(&g, &p(5.0, 0.0));
        let mut sorted = found.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(found, sorted);
        assert_eq!(found.len(), 5);
    }

    #[test]
    fn update_moves_between_cells() {
        let mut g = NeighborGrid::new(10.0);
        g.update_position(NodeId(1), &p(5.0, 0.0));
        assert!(cands(&g, &p(5.0, 0.0)).contains(&NodeId(1)));
        g.update_position(NodeId(1), &p(500.0, 0.0));
        assert!(!cands(&g, &p(5.0, 0.0)).contains(&NodeId(1)));
        assert!(cands(&g, &p(500.0, 0.0)).contains(&NodeId(1)));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn candidates_carry_current_positions() {
        let mut g = NeighborGrid::new(100.0);
        g.update_position(NodeId(1), &p(5.0, 0.0));
        g.update_position(NodeId(2), &p(8.0, 0.0));
        // A move within the cell updates the stored position.
        g.update_position(NodeId(1), &p(7.0, 1.0));
        let mut found = Vec::new();
        g.candidates(&p(0.0, 0.0), &mut found);
        assert_eq!(
            found,
            vec![(NodeId(1), p(7.0, 1.0)), (NodeId(2), p(8.0, 0.0))]
        );
        // So does a move to another cell.
        g.update_position(NodeId(2), &p(150.0, 0.0));
        g.candidates(&p(0.0, 0.0), &mut found);
        assert_eq!(
            found,
            vec![(NodeId(1), p(7.0, 1.0)), (NodeId(2), p(150.0, 0.0))]
        );
    }

    #[test]
    fn remove_drops_node_and_empty_cells() {
        let mut g = NeighborGrid::new(10.0);
        g.update_position(NodeId(1), &p(5.0, 0.0));
        g.update_position(NodeId(2), &p(6.0, 0.0));
        g.remove(NodeId(1));
        assert_eq!(g.len(), 1);
        assert_eq!(cands(&g, &p(5.0, 0.0)), vec![NodeId(2)]);
        g.remove(NodeId(2));
        assert!(g.is_empty());
        assert!(g.cells.is_empty(), "empty cells are garbage-collected");
        // Removing an absent node is a no-op.
        g.remove(NodeId(7));
    }

    #[test]
    fn survives_clone() {
        let mut g = NeighborGrid::new(25.0);
        for i in 0..10u32 {
            g.update_position(NodeId(i), &p(i as f64 * 20.0, 0.0));
        }
        let fork = g.clone();
        assert_eq!(g, fork);
        assert_eq!(cands(&g, &p(100.0, 0.0)), cands(&fork, &p(100.0, 0.0)));
    }

    #[test]
    fn pathological_coordinates_stay_deterministic() {
        let mut g = NeighborGrid::new(10.0);
        g.update_position(NodeId(1), &p(f64::NAN, 0.0));
        g.update_position(NodeId(2), &p(1e300, 0.0));
        let a = cands(&g, &p(f64::NAN, 0.0));
        let b = cands(&g, &p(f64::NAN, 0.0));
        assert_eq!(a, b);
        assert_eq!(g.len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_cell_size_rejected() {
        NeighborGrid::new(0.0);
    }
}
