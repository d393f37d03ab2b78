//! # ree-san — the paper's Figure 9 model, solved in closed form
//!
//! "The likelihood of correlated failures depends upon the failure rate
//! of the SIFT process and several performance parameters … These factors
//! can be incorporated into the stochastic activity network (SAN) shown
//! in Figure 9, which models one application's behavior when attempting
//! to interface with the local SIFT process" (§5.2).
//!
//! The SAN's places are `app_okay`, `app_block`, `app_interface`,
//! `app_fail`, `sift_okay` and `sift_fail`. Its activities: the app calls
//! into its local SIFT process (`app_interface_rate`); the call completes
//! at once while the SIFT process is okay ("once the SIFT process
//! receives a request, it is able to send a reply without failing");
//! the blocked app gives up after `app_timeout`; the SIFT process fails
//! (`sift_lambda`) and recovers (`sift_mu`); the failed app recovers
//! (`app_rho`), but only while the SIFT process is healthy. "The
//! application process does not independently fail in this model — all
//! failures are induced by the SIFT process being unavailable to process
//! application requests within an application-defined timeout period."
//!
//! Only five joint (application, SIFT process) states are reachable:
//! - app okay, SIFT okay: a call completes at once, so only a SIFT
//!   failure leaves this state;
//! - app okay, SIFT down: the next call races the SIFT recovery;
//! - app blocked, SIFT down: the SIFT recovery races the timeout;
//! - app failed, SIFT down: waits for the SIFT recovery;
//! - app failed, SIFT okay: the app recovery races the next SIFT failure.
//!
//! Each SIFT failure out of "both okay" starts a cycle that ends when
//! both are okay again, and the one deterministic activity races a single
//! exponential. So [`solve`] is the renewal-reward solution, exact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

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
    /// Blocked-application timeout (seconds; `ree_sift::APP_BLOCK_TIMEOUT`).
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

/// Solution of one model configuration.
#[derive(Clone, Debug)]
pub struct ReeModelSolution {
    /// Fraction of time the application is unavailable (blocked or
    /// failed).
    pub app_unavailability: f64,
    /// P(SIFT failure induces an application failure).
    pub correlated_failure_probability: f64,
}

/// Solves the model exactly.
///
/// With call rate a, SIFT failure rate λ, SIFT recovery rate μ, timeout
/// T and app recovery rate ρ, a cycle spends 1/λ with both okay and
/// 1/(a+μ) with the app okay and the SIFT process down. The app then
/// blocks with p = a/(a+μ). Blocked, it waits (1−q)/μ on average and
/// fails with q = e^(−μT), the chance the recovery outlasts the timeout.
/// Failed, it waits F = (ρ+λ)/(μρ) + 1/ρ: on average (ρ+λ)/ρ rounds of
/// a SIFT recovery (1/μ), then the app recovery racing the next SIFT
/// failure (1/(ρ+λ)); every round but the last ends in that SIFT
/// failure. Per cycle the app is down
/// U = p·((1−q)/μ + q·F), and the SIFT process fails 1 + p·q·λ/ρ times.
pub fn solve(params: &ReeModelParams) -> ReeModelSolution {
    let ReeModelParams {
        app_interface_rate: a,
        sift_failure_rate: lambda,
        sift_recovery_rate: mu,
        app_timeout: t,
        app_recovery_rate: rho,
    } = *params;
    let p = a / (a + mu);
    let q = (-mu * t).exp();
    let failed = (rho + lambda) / (mu * rho) + 1.0 / rho;
    let down = p * ((1.0 - q) / mu + q * failed);
    ReeModelSolution {
        app_unavailability: down / (1.0 / lambda + 1.0 / (a + mu) + down),
        correlated_failure_probability: p * q / (1.0 + p * q * lambda / rho),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ree_sim::SimRng;

    /// One cycle of the five-state chain, drawn directly from its races:
    /// `[time, app down time, app failures, SIFT failures]`.
    fn cycle(m: &ReeModelParams, rng: &mut SimRng) -> [f64; 4] {
        let mut draw = |rate: f64| rng.exp_duration(rate).as_secs_f64();
        let up = draw(m.sift_failure_rate);
        // App okay, SIFT down: the next call races the recovery.
        let (call, recover) = (draw(m.app_interface_rate), draw(m.sift_recovery_rate));
        if recover < call {
            return [up + recover, 0.0, 0.0, 1.0];
        }
        // Blocked: the recovery races the timeout.
        let recover = draw(m.sift_recovery_rate);
        if recover < m.app_timeout {
            return [up + call + recover, recover, 0.0, 1.0];
        }
        // Failed: wait out the SIFT recovery, then the app recovery races
        // the next SIFT failure.
        let (mut down, mut sift_failures) = (m.app_timeout, 1.0);
        loop {
            down += draw(m.sift_recovery_rate);
            let (heal, fail) = (draw(m.app_recovery_rate), draw(m.sift_failure_rate));
            down += heal.min(fail);
            if heal < fail {
                return [up + call + down, down, 1.0, sift_failures];
            }
            sift_failures += 1.0;
        }
    }

    /// (estimate, batch-means standard error) of the unavailability and
    /// of P(correlated), over 50 batches of whole cycles.
    fn simulate(m: &ReeModelParams, seed: u64) -> [(f64, f64); 2] {
        const BATCHES: usize = 50;
        let mut rng = SimRng::new(seed);
        let batches: Vec<[f64; 2]> = (0..BATCHES)
            .map(|_| {
                let mut sum = [0.0; 4];
                for _ in 0..4_000 {
                    for (s, x) in sum.iter_mut().zip(cycle(m, &mut rng)) {
                        *s += x;
                    }
                }
                [sum[1] / sum[0], sum[2] / sum[3]]
            })
            .collect();
        [0, 1].map(|k| {
            let n = BATCHES as f64;
            let mean = batches.iter().map(|b| b[k]).sum::<f64>() / n;
            let var = batches.iter().map(|b| (b[k] - mean).powi(2)).sum::<f64>() / (n - 1.0);
            (mean, (var / n).sqrt())
        })
    }

    /// Asserts that `solve` and the direct simulation agree within 4
    /// standard errors at each (SIFT MTBF, SIFT recovery time) point.
    fn agrees_with_the_simulation(points: impl IntoIterator<Item = (f64, f64)>) {
        for (i, (mtbf, recovery)) in points.into_iter().enumerate() {
            let m = ReeModelParams {
                sift_failure_rate: 1.0 / mtbf,
                sift_recovery_rate: 1.0 / recovery,
                ..ReeModelParams::default()
            };
            let exact = solve(&m);
            let exact = [exact.app_unavailability, exact.correlated_failure_probability];
            for ((est, se), want) in simulate(&m, i as u64).into_iter().zip(exact) {
                // The floor admits 0.5 s recovery's P(correlated): about
                // e^-60, so no batch ever observes one.
                assert!(
                    (est - want).abs() <= 4.0 * se + 1e-12,
                    "MTBF {mtbf} s, recovery {recovery} s: simulated {est} ± {se}, exact {want}"
                );
            }
        }
    }

    #[test]
    fn closed_form_matches_the_simulation_at_the_fig9_points() {
        agrees_with_the_simulation(
            [3600.0, 1800.0, 600.0, 120.0].into_iter().flat_map(|mtbf| [(mtbf, 0.5), (mtbf, 60.0)]),
        );
    }

    #[test]
    fn closed_form_matches_the_simulation_at_the_example_recovery_times() {
        agrees_with_the_simulation([0.5, 5.0, 20.0, 40.0, 80.0].map(|recovery| (600.0, recovery)));
    }

    #[test]
    fn zero_timeout_fails_the_app_on_every_blocked_call() {
        let m = ReeModelParams { app_timeout: 0.0, ..ReeModelParams::default() };
        let p = m.app_interface_rate / (m.app_interface_rate + m.sift_recovery_rate);
        let want = p / (1.0 + p * m.sift_failure_rate / m.app_recovery_rate);
        let got = solve(&m).correlated_failure_probability;
        assert!((got - want).abs() <= 1e-15 * want, "{got} vs {want}");
    }

    #[test]
    fn healthy_sift_means_no_app_failures() {
        // With a negligible failure rate the app is almost never down.
        let params = ReeModelParams { sift_failure_rate: 1e-12, ..ReeModelParams::default() };
        let sol = solve(&params);
        assert!(sol.app_unavailability < 1e-3, "{}", sol.app_unavailability);
    }

    #[test]
    fn fast_recovery_prevents_correlated_failures() {
        // Recovery (0.5 s) is much faster than the 30 s timeout: even
        // frequent SIFT failures rarely take the application down.
        let params = ReeModelParams { sift_failure_rate: 1.0 / 600.0, ..ReeModelParams::default() };
        let sol = solve(&params);
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
        let sol = solve(&params);
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
        for rate in [1.0 / 7200.0, 1.0 / 1800.0, 1.0 / 450.0] {
            let params = ReeModelParams { sift_failure_rate: rate, ..ReeModelParams::default() };
            let sol = solve(&params);
            assert!(
                sol.app_unavailability > last,
                "unavailability should grow: {} then {}",
                last,
                sol.app_unavailability
            );
            last = sol.app_unavailability;
        }
    }
}
