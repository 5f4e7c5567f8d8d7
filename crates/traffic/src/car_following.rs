//! The car-following model for background traffic: [`Krauss`], SUMO's
//! default stochastic safe-speed model (we default its driver imperfection
//! σ to 0 for deterministic experiments).
//!
//! It produces a commanded acceleration from the ego state and the gap to
//! the leader; the commanded value is then subject to the vehicle dynamics
//! in [`crate::dynamics`].

/// What a car-following model sees each step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfInput {
    /// Ego speed, m/s.
    pub speed_mps: f64,
    /// Bumper-to-bumper gap to the leader, metres (`None` = free road).
    pub gap_m: Option<f64>,
    /// Leader speed, m/s (ignored when `gap_m` is `None`).
    pub leader_speed_mps: f64,
    /// Applicable speed limit (min of lane limit and vehicle max), m/s.
    pub speed_limit_mps: f64,
    /// Ego maximum acceleration, m/s².
    pub max_accel_mps2: f64,
    /// Ego comfortable/service deceleration, m/s² (positive).
    pub service_decel_mps2: f64,
    /// Step length, seconds.
    pub dt_s: f64,
    /// Uniform random draw in `[0, 1)` for stochastic models.
    pub noise: f64,
}

/// SUMO's Krauss model (Krauß 1998): drive as fast as allowed while always
/// being able to stop if the leader brakes at full service deceleration.
#[derive(Debug, Clone, PartialEq)]
pub struct Krauss {
    /// Driver reaction time, seconds (SUMO `tau`, default 1.0).
    pub reaction_time_s: f64,
    /// Driver imperfection `sigma` in `[0, 1]`; 0 = deterministic.
    pub sigma: f64,
}

impl Default for Krauss {
    fn default() -> Self {
        Krauss {
            reaction_time_s: 1.0,
            sigma: 0.0,
        }
    }
}

impl Krauss {
    /// Safe speed so that the follower can always stop behind the leader
    /// (classic Krauss formulation).
    pub fn safe_speed(&self, gap_m: f64, leader_speed_mps: f64, decel: f64) -> f64 {
        let tb = self.reaction_time_s * decel;
        let term = tb * tb + leader_speed_mps * leader_speed_mps + 2.0 * decel * gap_m.max(0.0);
        (-tb + term.sqrt()).max(0.0)
    }

    /// Commanded acceleration for this step, m/s² (may exceed vehicle
    /// limits; dynamics clamp it).
    pub fn accel(&self, input: &CfInput) -> f64 {
        let v = input.speed_mps;
        let v_free = (v + input.max_accel_mps2 * input.dt_s).min(input.speed_limit_mps);
        let v_des = match input.gap_m {
            Some(gap) => {
                let v_safe = self.safe_speed(gap, input.leader_speed_mps, input.service_decel_mps2);
                v_free.min(v_safe)
            }
            None => v_free,
        };
        // Driver imperfection: randomly drive slightly slower than possible.
        let dawdle = self.sigma * input.max_accel_mps2 * input.dt_s * input.noise;
        let v_next = (v_des - dawdle).max(0.0);
        (v_next - v) / input.dt_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn free_input(speed: f64) -> CfInput {
        CfInput {
            speed_mps: speed,
            gap_m: None,
            leader_speed_mps: 0.0,
            speed_limit_mps: 30.0,
            max_accel_mps2: 2.0,
            service_decel_mps2: 4.5,
            dt_s: 0.1,
            noise: 0.0,
        }
    }

    #[test]
    fn krauss_accelerates_on_free_road() {
        let k = Krauss::default();
        let a = k.accel(&free_input(10.0));
        assert!(
            (a - 2.0).abs() < 1e-9,
            "should accelerate at full ability, got {a}"
        );
    }

    #[test]
    fn krauss_respects_speed_limit() {
        let k = Krauss::default();
        let a = k.accel(&free_input(30.0));
        assert!(
            a.abs() < 1e-9,
            "at the limit, no further acceleration, got {a}"
        );
    }

    #[test]
    fn krauss_brakes_for_stopped_leader() {
        let k = Krauss::default();
        let mut input = free_input(20.0);
        input.gap_m = Some(10.0);
        input.leader_speed_mps = 0.0;
        let a = k.accel(&input);
        assert!(a < -1.0, "must brake hard, got {a}");
    }

    #[test]
    fn krauss_safe_speed_is_zero_at_zero_gap_zero_leader() {
        let k = Krauss::default();
        assert_eq!(k.safe_speed(0.0, 0.0, 4.5), 0.0);
    }

    #[test]
    fn krauss_safe_speed_grows_with_gap() {
        let k = Krauss::default();
        let near = k.safe_speed(5.0, 0.0, 4.5);
        let far = k.safe_speed(50.0, 0.0, 4.5);
        assert!(far > near);
    }

    #[test]
    fn krauss_never_commands_negative_speed() {
        let k = Krauss::default();
        let mut input = free_input(0.5);
        input.gap_m = Some(0.0);
        input.leader_speed_mps = 0.0;
        let a = k.accel(&input);
        // Δv >= -v, so speed stays >= 0 after one step.
        assert!(a * input.dt_s >= -input.speed_mps - 1e-12);
    }

    #[test]
    fn krauss_sigma_dawdles() {
        let k = Krauss {
            sigma: 1.0,
            ..Krauss::default()
        };
        let mut input = free_input(10.0);
        input.noise = 1.0;
        let a_noisy = k.accel(&input);
        input.noise = 0.0;
        let a_clean = k.accel(&input);
        assert!(a_noisy < a_clean);
    }

    #[test]
    fn krauss_follower_never_collides() {
        // Follow a leader that brutally brakes; Krauss must keep gap > 0.
        let k = Krauss::default();
        let dt = 0.1;
        let mut lead_pos = 30.0;
        let mut lead_speed = 25.0;
        let mut pos = 0.0;
        let mut speed = 25.0;
        for step in 0..400 {
            // Leader brakes at 6 m/s^2 after 1 s.
            let lead_acc = if step >= 10 { -6.0f64 } else { 0.0 };
            lead_speed = (lead_speed + lead_acc * dt).max(0.0);
            lead_pos += lead_speed * dt;
            let gap = lead_pos - 5.0 - pos; // leader length 5 m
            let input = CfInput {
                speed_mps: speed,
                gap_m: Some(gap),
                leader_speed_mps: lead_speed,
                speed_limit_mps: 30.0,
                max_accel_mps2: 2.0,
                service_decel_mps2: 6.0,
                dt_s: dt,
                noise: 0.0,
            };
            let a = k.accel(&input);
            speed = (speed + a * dt).max(0.0);
            pos += speed * dt;
            assert!(gap > -1e-9, "Krauss collided at step {step}, gap {gap}");
        }
    }
}
