// comfase-lint: host-region(reason = "scaling benchmark harness: wall-clock timing of the indexed vs brute-force hot paths; the identity checks it performs compare deterministic sim outputs")

//! Fleet-size scaling benchmark for the hot-path spatial indexes.
//!
//! Drives the two indexed substrates directly — the wireless fan-out
//! ([`Medium`] with its uniform neighbor grid) and the traffic leader
//! lookup ([`TrafficSim`] with its per-lane sorted orderings) — at growing
//! fleet sizes, once with the indexes enabled and once with the retained
//! brute-force scans, and checks bit-identical outcomes along the way.
//!
//! The wireless model is free space with α = 3.0: at the paper's α = 2.0
//! the 20 mW transmit power reaches past the 9.4 km highway, so every node
//! hears every transmission and there is nothing a spatial index could
//! prune. α = 3.0 yields a ~110 m usable radius — the regime the grid is
//! built for — while exercising exactly the same code paths.
//!
//! Wall-clock numbers live only in the returned report (and in
//! `BENCH_scale.json`); nothing here flows back into any simulation.

use std::time::{Duration, Instant};

use comfase_des::rng::RngStream;
use comfase_des::time::SimTime;
use comfase_traffic::network::{LaneIndex, Road};
use comfase_traffic::simulation::{LeaderLookup, TrafficSim};
use comfase_traffic::vehicle::{Vehicle, VehicleId, VehicleSpec};
use comfase_wireless::channel::{ChannelStats, FanoutStrategy, Medium};
use comfase_wireless::frame::{NodeId, WaveChannel, Wsm};
use comfase_wireless::pathloss::{FreeSpace, PathLoss};
use comfase_wireless::phy::PhyConfig;
use comfase_wireless::units::CCH_FREQ_HZ;

/// Path-loss exponent used by the scale bench (see module docs).
pub const SCALE_ALPHA: f64 = 3.0;

/// Every `SENDER_STRIDE`-th vehicle transmits a beacon each round.
pub const SENDER_STRIDE: u32 = 5;

/// Lane count / lane width of the bench road (the paper's highway).
const NR_LANES: u32 = 4;
const LANE_WIDTH_M: f64 = 3.2;

/// One (fleet size, substrate) measurement.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Number of vehicles (== wireless nodes).
    pub fleet: usize,
    /// Simulation rounds driven (one traffic step + one beacon volley each).
    pub rounds: usize,
    /// Wall-clock with grid fan-out + indexed leader lookup.
    pub indexed_wall: Duration,
    /// Wall-clock with brute-force fan-out + linear leader lookup.
    pub brute_wall: Duration,
    /// `brute_wall / indexed_wall`.
    pub speedup: f64,
    /// Links planned per substrate run (identical in both).
    pub links_planned: u64,
    /// Links the grid pruned without evaluating the path-loss model.
    pub links_pruned_by_grid: u64,
    /// Lane-index rebuilds in the indexed run.
    pub lane_rebuilds: u64,
    /// Grid cell size derived from the path-loss inversion.
    pub grid_cell_m: f64,
}

struct SubstrateRun {
    wall: Duration,
    stats: ChannelStats,
    lane_rebuilds: u64,
    grid_cell_m: Option<f64>,
    /// Bit-exact (pos, speed) per vehicle, for cross-substrate comparison.
    fingerprint: Vec<(u64, u64)>,
    /// Total receptions decided, as a second cross-substrate invariant.
    decisions: u64,
}

fn beacon(src: u32, sequence: u64, now: SimTime) -> Wsm {
    Wsm {
        source: NodeId(src),
        sequence: sequence as u32,
        created: now,
        channel: WaveChannel::Cch,
        payload: b"x".as_slice().into(),
    }
}

fn run_substrates(fleet: usize, rounds: usize, indexed: bool) -> SubstrateRun {
    let mut sim = TrafficSim::new(Road::paper_highway(), RngStream::new(7));
    let mut medium = Medium::with_models(
        PathLoss::FreeSpace(FreeSpace { alpha: SCALE_ALPHA }),
        CCH_FREQ_HZ,
        PhyConfig::default(),
    );
    if !indexed {
        sim.set_leader_lookup(LeaderLookup::Linear);
        medium.set_fanout_strategy(FanoutStrategy::BruteForce);
    }
    for i in 0..fleet as u32 {
        let lane = i % NR_LANES;
        let pos = 5.0 + f64::from(i / NR_LANES) * 30.0;
        sim.add_vehicle(Vehicle::new(
            VehicleId(i + 1),
            VehicleSpec::paper_platooning_car(),
            pos,
            LaneIndex(lane as u8),
            20.0,
        ))
        .expect("bench fleet fits on the paper highway");
        medium.update_position(NodeId(i + 1), node_position(pos, lane as u8));
    }

    let t0 = Instant::now();
    let mut decisions = 0u64;
    for round in 0..rounds {
        sim.step();
        for v in sim.vehicles() {
            medium.update_position(NodeId(v.id.0), node_position(v.state.pos_m, v.state.lane.0));
        }
        let now = SimTime::from_millis(10 * (round as i64 + 1));
        let mut planned = Vec::new();
        for v in sim.vehicles() {
            if v.id.0 % SENDER_STRIDE != 0 {
                continue;
            }
            let out = medium.transmit(NodeId(v.id.0), beacon(v.id.0, round as u64, now), now);
            for r in &out.receptions {
                medium.reception_started(r);
            }
            planned.extend(out.receptions);
        }
        for r in &planned {
            medium.reception_finished(r);
            decisions += 1;
        }
    }
    let wall = t0.elapsed();

    SubstrateRun {
        wall,
        stats: medium.stats(),
        lane_rebuilds: sim.index_rebuilds(),
        grid_cell_m: medium.grid_cell_size_m(),
        fingerprint: sim
            .vehicles()
            .iter()
            .map(|v| (v.state.pos_m.to_bits(), v.state.speed_mps.to_bits()))
            .collect(),
        decisions,
    }
}

fn node_position(pos_m: f64, lane: u8) -> comfase_wireless::geom::Position {
    comfase_wireless::geom::Position::on_road(pos_m, f64::from(lane) * LANE_WIDTH_M)
}

/// Measures one fleet size with both substrates and asserts they produced
/// bit-identical simulation outcomes.
///
/// # Panics
///
/// Panics if the indexed and brute-force runs disagree on any vehicle
/// state bit or on any channel counter other than the grid's own pruning
/// diagnostic — that would be an index correctness bug, and a speedup
/// number over diverging simulations would be meaningless.
pub fn run_scale_point(fleet: usize, rounds: usize) -> ScalePoint {
    let indexed = run_substrates(fleet, rounds, true);
    let brute = run_substrates(fleet, rounds, false);

    assert_eq!(
        indexed.fingerprint, brute.fingerprint,
        "indexed and brute-force substrates must move vehicles identically"
    );
    assert_eq!(indexed.decisions, brute.decisions);
    let mut normalized = indexed.stats;
    normalized.links_pruned_by_grid = 0;
    assert_eq!(
        normalized, brute.stats,
        "indexed and brute-force substrates must agree on every channel counter"
    );

    ScalePoint {
        fleet,
        rounds,
        indexed_wall: indexed.wall,
        brute_wall: brute.wall,
        speedup: brute.wall.as_secs_f64() / indexed.wall.as_secs_f64(),
        links_planned: indexed.stats.links_planned,
        links_pruned_by_grid: indexed.stats.links_pruned_by_grid,
        lane_rebuilds: indexed.lane_rebuilds,
        grid_cell_m: indexed.grid_cell_m.expect("grid active in indexed run"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline number behind `repro --bench-scale`: at a
    /// 1000-vehicle fleet the indexed hot paths must beat the brute-force
    /// scans by at least 5x end to end. Ignored by default (it is a
    /// wall-clock measurement, meaningless in debug builds and on
    /// oversubscribed machines); run with
    /// `cargo test --release -p comfase-bench -- --ignored`.
    #[test]
    #[ignore = "wall-clock measurement; run explicitly in release"]
    fn thousand_vehicle_fleet_speedup_is_at_least_5x() {
        let mut at_1000 = 0.0;
        for fleet in [50, 200, 1000] {
            let p = run_scale_point(fleet, 50);
            eprintln!(
                "fleet {:>4}: indexed {:?}, brute {:?}, speedup {:.2}x",
                p.fleet, p.indexed_wall, p.brute_wall, p.speedup
            );
            if fleet == 1000 {
                at_1000 = p.speedup;
            }
        }
        assert!(
            at_1000 >= 5.0,
            "expected >= 5x at 1000 vehicles, measured {at_1000:.2}x"
        );
    }

    #[test]
    fn substrates_agree_and_the_grid_prunes() {
        let p = run_scale_point(60, 5);
        assert_eq!(p.fleet, 60);
        assert!(p.links_planned > 0, "some links must be in range");
        assert!(
            p.links_pruned_by_grid > 0,
            "at alpha = 3.0 a 60-vehicle fleet spans ~300 m per lane, well \
             beyond the ~110 m radius, so the grid must prune something"
        );
        assert!(p.lane_rebuilds >= 1);
        assert!(p.grid_cell_m > 1.0 && p.grid_cell_m < 1000.0);
    }
}
