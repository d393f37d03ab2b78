//! The paper's Figure 9 SAN: "modeling SIFT-induced application
//! failures".
//!
//! Places: `app_okay`, `app_block`, `app_interface`, `app_fail`,
//! `sift_okay`, `sift_fail`. Activities: `app_interface_rate` (the app
//! calls into its local SIFT process), an instantaneous activity enabled
//! while the SIFT process is okay (the call completes), `app_timeout`
//! (the blocked app gives up), `sift_lambda` (SIFT failure), `sift_mu`
//! (SIFT recovery), and `app_rho` (application recovery, conditioned on
//! the SIFT process being healthy). "The application process does not
//! independently fail in this model — all failures are induced by the
//! SIFT process being unavailable to process application requests within
//! an application-defined timeout period."

use crate::san::{Activity, Delay, Place, San};
use ree_sim::SimRng;

/// Place indices of the Figure 9 model.
mod places {
    use super::Place;
    /// Application operating normally.
    pub(super) const APP_OKAY: Place = Place(0);
    /// Application blocked on a SIFT-interface call.
    pub(super) const APP_BLOCK: Place = Place(1);
    /// Application inside a completed interface call (transient).
    pub(super) const APP_INTERFACE: Place = Place(2);
    /// Application failed (timed out on the SIFT process).
    pub(super) const APP_FAIL: Place = Place(3);
    /// SIFT process healthy.
    pub(super) const SIFT_OKAY: Place = Place(4);
    /// SIFT process failed/recovering.
    pub(super) const SIFT_FAIL: Place = Place(5);
}

/// Parameters of the Figure 9 model (rates per second).
#[derive(Clone, Debug)]
pub struct ReeModelParams {
    /// Rate at which the application calls the SIFT interface
    /// (progress indicators etc.); ~1/20 s in the experiments.
    pub app_interface_rate: f64,
    /// SIFT-process failure rate (the experiment variable).
    pub sift_failure_rate: f64,
    /// SIFT-process recovery rate (≈ 1/0.5 s measured).
    pub sift_recovery_rate: f64,
    /// Blocked-application timeout (seconds; `app_block_timeout`).
    pub app_timeout: f64,
    /// Application recovery rate once the SIFT process is healthy
    /// (restart + rollback redo; ≈ 1/15 s measured).
    pub app_recovery_rate: f64,
}

impl Default for ReeModelParams {
    fn default() -> Self {
        ReeModelParams {
            app_interface_rate: 1.0 / 20.0,
            sift_failure_rate: 1.0 / 3600.0,
            sift_recovery_rate: 1.0 / 0.5,
            app_timeout: 30.0,
            app_recovery_rate: 1.0 / 15.0,
        }
    }
}

/// Builds the Figure 9 SAN.
fn build(params: &ReeModelParams) -> San {
    use places::{APP_BLOCK, APP_FAIL, APP_INTERFACE, APP_OKAY, SIFT_FAIL, SIFT_OKAY};
    // Initially one token each in app_okay and sift_okay.
    let mut san = San::new(vec![1, 0, 0, 0, 1, 0]);
    let p = params.clone();
    // app_okay --app_interface_rate--> app_block
    san.add_activity(Activity {
        delay: Delay::Exponential(p.app_interface_rate),
        enabled: Box::new(|m| m[APP_OKAY.0] > 0),
        fire: Box::new(|m| {
            m[APP_OKAY.0] -= 1;
            m[APP_BLOCK.0] += 1;
        }),
    });
    // app_block --instantaneous (if sift_okay)--> app_interface
    san.add_activity(Activity {
        delay: Delay::Instantaneous,
        enabled: Box::new(|m| m[APP_BLOCK.0] > 0 && m[SIFT_OKAY.0] > 0),
        fire: Box::new(|m| {
            m[APP_BLOCK.0] -= 1;
            m[APP_INTERFACE.0] += 1;
        }),
    });
    // app_interface returns to app_okay immediately after the reply
    // ("once the SIFT process receives a request, it is able to send a
    // reply without failing" — the model's simplification).
    san.add_activity(Activity {
        delay: Delay::Instantaneous,
        enabled: Box::new(|m| m[APP_INTERFACE.0] > 0),
        fire: Box::new(|m| {
            m[APP_INTERFACE.0] -= 1;
            m[APP_OKAY.0] += 1;
        }),
    });
    // app_block --app_timeout--> app_fail (only while the SIFT process
    // is down; otherwise the instantaneous activity wins).
    san.add_activity(Activity {
        delay: Delay::Deterministic(p.app_timeout),
        enabled: Box::new(|m| m[APP_BLOCK.0] > 0 && m[SIFT_OKAY.0] == 0),
        fire: Box::new(|m| {
            m[APP_BLOCK.0] -= 1;
            m[APP_FAIL.0] += 1;
        }),
    });
    // sift_okay --lambda--> sift_fail
    san.add_activity(Activity {
        delay: Delay::Exponential(p.sift_failure_rate),
        enabled: Box::new(|m| m[SIFT_OKAY.0] > 0),
        fire: Box::new(|m| {
            m[SIFT_OKAY.0] -= 1;
            m[SIFT_FAIL.0] += 1;
        }),
    });
    // sift_fail --mu--> sift_okay
    san.add_activity(Activity {
        delay: Delay::Exponential(p.sift_recovery_rate),
        enabled: Box::new(|m| m[SIFT_FAIL.0] > 0),
        fire: Box::new(|m| {
            m[SIFT_FAIL.0] -= 1;
            m[SIFT_OKAY.0] += 1;
        }),
    });
    // app_fail --rho (requires sift_okay)--> app_okay: "application
    // recovery is conditioned on the SIFT process being in the
    // non-failed state".
    san.add_activity(Activity {
        delay: Delay::Exponential(p.app_recovery_rate),
        enabled: Box::new(|m| m[APP_FAIL.0] > 0 && m[SIFT_OKAY.0] > 0),
        fire: Box::new(|m| {
            m[APP_FAIL.0] -= 1;
            m[APP_OKAY.0] += 1;
        }),
    });
    san
}

/// Solution of one model configuration.
#[derive(Clone, Debug)]
pub struct ReeModelSolution {
    /// Fraction of time the application is unavailable (blocked or
    /// failed).
    pub app_unavailability: f64,
    /// SIFT-process failures observed.
    pub sift_failures: u64,
    /// Application failures induced (timeouts while blocked).
    pub app_failures: u64,
    /// P(SIFT failure induces an application failure).
    pub correlated_failure_probability: f64,
}

/// Solves the model by simulation over `horizon` seconds.
pub fn solve(params: &ReeModelParams, horizon: f64, seed: u64) -> ReeModelSolution {
    let mut san = build(params);
    let mut rng = SimRng::new(seed);
    let (fractions, firings) = san.solve(&mut rng, horizon);
    let sift_failures = firings[4];
    let app_failures = firings[3];
    ReeModelSolution {
        app_unavailability: fractions[places::APP_BLOCK.0] + fractions[places::APP_FAIL.0],
        sift_failures,
        app_failures,
        correlated_failure_probability: if sift_failures == 0 {
            0.0
        } else {
            app_failures as f64 / sift_failures as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_sift_means_no_app_failures() {
        // With a negligible failure rate the app never times out.
        let params = ReeModelParams { sift_failure_rate: 1e-12, ..ReeModelParams::default() };
        let sol = solve(&params, 200_000.0, 1);
        assert_eq!(sol.app_failures, 0);
        assert!(sol.app_unavailability < 1e-3, "{}", sol.app_unavailability);
    }

    #[test]
    fn fast_recovery_prevents_correlated_failures() {
        // Recovery (0.5 s) is much faster than the 30 s timeout: even
        // frequent SIFT failures rarely take the application down — the
        // paper's observation that only ~1.6% of SIFT failures induced
        // application failures.
        let params = ReeModelParams { sift_failure_rate: 1.0 / 600.0, ..ReeModelParams::default() };
        let sol = solve(&params, 2_000_000.0, 2);
        assert!(sol.sift_failures > 1000);
        assert!(
            sol.correlated_failure_probability < 0.05,
            "p = {}",
            sol.correlated_failure_probability
        );
    }

    #[test]
    fn slow_recovery_induces_correlated_failures() {
        // If SIFT recovery takes ~60 s (≫ the 30 s timeout), most
        // failures that catch the app mid-call become app failures.
        let params = ReeModelParams {
            sift_failure_rate: 1.0 / 600.0,
            sift_recovery_rate: 1.0 / 60.0,
            ..ReeModelParams::default()
        };
        let sol = solve(&params, 2_000_000.0, 3);
        assert!(
            sol.correlated_failure_probability > 0.2,
            "p = {}",
            sol.correlated_failure_probability
        );
        // And availability suffers disproportionately (the paper's [33]
        // point about correlation).
        assert!(sol.app_unavailability > 0.01);
    }

    #[test]
    fn unavailability_grows_with_failure_rate() {
        let mut last = 0.0;
        for (i, rate) in [1.0 / 7200.0, 1.0 / 1800.0, 1.0 / 450.0].into_iter().enumerate() {
            let params = ReeModelParams { sift_failure_rate: rate, ..ReeModelParams::default() };
            let sol = solve(&params, 1_000_000.0, 10 + i as u64);
            assert!(
                sol.app_unavailability >= last,
                "unavailability should grow: {} then {}",
                last,
                sol.app_unavailability
            );
            last = sol.app_unavailability;
        }
    }
}
