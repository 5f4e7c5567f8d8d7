//! Equivalence properties: the uniform-grid fan-out index must be
//! reception-for-reception identical to the brute-force scan it replaces —
//! same receivers, same powers, same decider results, same counters (up to
//! the grid's own pruning diagnostic) — for every path-loss model,
//! including the stochastic shadowing field.
//!
//! Every property runs `CASES` fixed cases: case `case` draws its inputs
//! from `RngStream::derive(SEED, StreamId(case))`, and a failure message
//! names the case and its inputs.
use comfase_des::rng::{RngStream, StreamId};
use comfase_des::time::SimTime;
use comfase_wireless::channel::{FanoutStrategy, Medium};
use comfase_wireless::frame::{NodeId, WaveChannel, Wsm};
use comfase_wireless::geom::Position;
use comfase_wireless::pathloss::{FreeSpace, LogNormalShadowing, PathLoss, TwoRayInterference};
use comfase_wireless::phy::PhyConfig;
use comfase_wireless::units::CCH_FREQ_HZ;

const SEED: u64 = 42;
const CASES: u64 = 256;

/// A randomly parameterised path-loss model covering every implementation.
fn any_model(g: &mut RngStream) -> PathLoss {
    match g.below(3) {
        0 => PathLoss::FreeSpace(FreeSpace {
            alpha: g.uniform_range(2.0, 3.5),
        }),
        1 => PathLoss::TwoRayInterference(TwoRayInterference::default()),
        _ => PathLoss::LogNormalShadowing(LogNormalShadowing {
            alpha: g.uniform_range(2.0, 3.0),
            sigma_db: g.uniform_range(1.0, 8.0),
            correlation_m: 50.0,
            seed: g.next_u64(),
        }),
    }
}

/// Random positions of 2–19 nodes, spread widely enough that, at the
/// larger path-loss exponents, some links fall outside the grid's pruning
/// radius.
fn any_fleet(g: &mut RngStream) -> Vec<(f64, f64)> {
    (0..2 + g.below(18)).map(|_| any_position(g)).collect()
}

fn any_position(g: &mut RngStream) -> (f64, f64) {
    (g.uniform_range(0.0, 20_000.0), g.uniform_range(0.0, 100.0))
}

fn beacon(src: u32) -> Wsm {
    Wsm {
        source: NodeId(src),
        sequence: src,
        created: SimTime::ZERO,
        channel: WaveChannel::Cch,
        payload: b"x".as_slice().into(),
    }
}

fn medium(model: PathLoss, strategy: FanoutStrategy) -> Medium {
    let mut m = Medium::with_models(model, CCH_FREQ_HZ, PhyConfig::default());
    m.set_fanout_strategy(strategy);
    m
}

/// Every transmission fans out identically under the grid index and
/// the brute-force scan: the same planned receptions in the same
/// order, the same decider results, and the same channel counters up
/// to `links_pruned_by_grid` (the grid's own diagnostic).
#[test]
fn grid_fan_out_matches_brute_force() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let fleet = any_fleet(&mut g);
        let model = any_model(&mut g);
        let inputs = format!("case {case}: {model:?} over {fleet:?}");
        let mut grid = medium(model, FanoutStrategy::Grid);
        let mut brute = medium(model, FanoutStrategy::BruteForce);
        for (i, (x, y)) in fleet.iter().enumerate() {
            let pos = Position::on_road(*x, *y);
            grid.update_position(NodeId(i as u32), pos);
            brute.update_position(NodeId(i as u32), pos);
        }

        for i in 0..fleet.len() as u32 {
            let now = SimTime::from_micros(200 * i64::from(i));
            let fanned = grid.transmit(NodeId(i), beacon(i), now);
            let scanned = brute.transmit(NodeId(i), beacon(i), now);
            assert_eq!(fanned, scanned, "{inputs}: fan-out diverged for sender {i}");
            for r in &fanned.receptions {
                grid.reception_started(r);
                brute.reception_started(r);
            }
            for r in &fanned.receptions {
                assert_eq!(
                    grid.reception_finished(r),
                    brute.reception_finished(r),
                    "{inputs}: decision diverged for frame {} at {}",
                    r.frame_id,
                    r.rx
                );
            }
        }

        let mut g_stats = grid.stats();
        assert!(
            grid.grid_cell_size_m().is_some(),
            "{inputs}: every bundled model must invert to a finite pruning radius"
        );
        g_stats.links_pruned_by_grid = 0;
        assert_eq!(g_stats, brute.stats(), "{inputs}");
    }
}

/// Moving and removing nodes keeps the index coherent: after any
/// sequence of relocations and removals, fan-out still matches.
#[test]
fn grid_tracks_moves_and_removals() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let fleet = any_fleet(&mut g);
        let n = fleet.len() as u64;
        let moves: Vec<(u32, (f64, f64))> = (0..1 + g.below(15))
            .map(|_| (g.below(n) as u32, any_position(&mut g)))
            .collect();
        let gone = NodeId(g.below(n) as u32);
        let alpha = g.uniform_range(2.0, 3.5);
        let inputs =
            format!("case {case}: alpha {alpha}, {fleet:?} moved by {moves:?}, {gone} removed");
        let model = PathLoss::FreeSpace(FreeSpace { alpha });
        let mut grid = medium(model, FanoutStrategy::Grid);
        let mut brute = medium(model, FanoutStrategy::BruteForce);
        for (i, (x, y)) in fleet.iter().enumerate() {
            let pos = Position::on_road(*x, *y);
            grid.update_position(NodeId(i as u32), pos);
            brute.update_position(NodeId(i as u32), pos);
        }
        for &(who, (x, y)) in &moves {
            let pos = Position::on_road(x, y);
            grid.update_position(NodeId(who), pos);
            brute.update_position(NodeId(who), pos);
        }
        grid.remove_node(gone);
        brute.remove_node(gone);

        for i in 0..fleet.len() as u32 {
            let fanned = grid.transmit(NodeId(i), beacon(i), SimTime::ZERO);
            let scanned = brute.transmit(NodeId(i), beacon(i), SimTime::ZERO);
            assert_eq!(fanned, scanned, "{inputs}: fan-out diverged for sender {i}");
        }
    }
}

/// A cloned grid medium (the PrefixFork snapshot path) behaves exactly
/// like its original.
#[test]
fn cloned_medium_keeps_its_index() {
    for case in 0..CASES {
        let mut g = RngStream::derive(SEED, StreamId(case));
        let fleet = any_fleet(&mut g);
        let alpha = g.uniform_range(2.0, 3.5);
        let inputs = format!("case {case}: alpha {alpha}, {fleet:?}");
        let model = PathLoss::FreeSpace(FreeSpace { alpha });
        let mut original = medium(model, FanoutStrategy::Grid);
        for (i, (x, y)) in fleet.iter().enumerate() {
            original.update_position(NodeId(i as u32), Position::on_road(*x, *y));
        }
        let mut fork = original.clone();
        for i in 0..fleet.len() as u32 {
            let a = original.transmit(NodeId(i), beacon(i), SimTime::ZERO);
            let b = fork.transmit(NodeId(i), beacon(i), SimTime::ZERO);
            assert_eq!(a, b, "{inputs}: sender {i}");
        }
        assert_eq!(original.stats(), fork.stats(), "{inputs}");
    }
}
