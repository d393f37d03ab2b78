//! A general stochastic activity network (SAN) simulator.
//!
//! SANs extend Petri nets with *timed activities* (stochastic firing
//! delays), *instantaneous activities*, enabling predicates over the
//! marking (input gates), and marking-transformation functions (output
//! gates). The paper models SIFT-induced application failures as the SAN
//! of Figure 9 and solves it for availability; we solve by Monte-Carlo
//! simulation over the same structure.

use ree_sim::SimRng;

/// Index of a place in the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Place(pub usize);

/// Firing-delay distribution of an activity.
#[derive(Clone, Debug)]
pub(crate) enum Delay {
    /// Exponential with the given rate (events per unit time).
    Exponential(f64),
    /// Fixed delay.
    Deterministic(f64),
    /// Instantaneous (fires as soon as enabled, before any timed
    /// activity).
    Instantaneous,
}

/// Enabling predicate over a marking (an input gate).
type GatePredicate = Box<dyn Fn(&[u64]) -> bool>;

/// Marking transformation applied on firing (an output gate).
type GateEffect = Box<dyn Fn(&mut [u64])>;

/// One activity: enabling condition + marking transformation + delay.
pub(crate) struct Activity {
    /// Firing-delay distribution.
    pub delay: Delay,
    /// Enabling predicate over the marking (the input gate).
    pub enabled: GatePredicate,
    /// Marking transformation applied on firing (the output gate).
    pub fire: GateEffect,
}

/// A stochastic activity network: places (with a marking) + activities.
pub(crate) struct San {
    marking: Vec<u64>,
    activities: Vec<Activity>,
    time: f64,
}

impl San {
    /// Creates a network with the given initial marking.
    pub(crate) fn new(initial_marking: Vec<u64>) -> Self {
        San { marking: initial_marking, activities: Vec::new(), time: 0.0 }
    }

    /// Adds an activity; returns its index.
    pub(crate) fn add_activity(&mut self, activity: Activity) -> usize {
        self.activities.push(activity);
        self.activities.len() - 1
    }

    /// Advances the model by firing the next activity. Returns the index
    /// of the fired activity, or `None` if nothing is enabled (absorbing
    /// marking).
    ///
    /// Instantaneous activities take priority; among several enabled
    /// timed activities the winner is the one sampling the smallest
    /// delay (race semantics).
    fn step(&mut self, rng: &mut SimRng) -> Option<usize> {
        // Instantaneous first.
        for (i, act) in self.activities.iter().enumerate() {
            if matches!(act.delay, Delay::Instantaneous) && (act.enabled)(&self.marking) {
                let fire = &self.activities[i].fire;
                let mut m = self.marking.clone();
                fire(&mut m);
                self.marking = m;
                return Some(i);
            }
        }
        // Race among enabled timed activities.
        let mut winner: Option<(usize, f64)> = None;
        for (i, act) in self.activities.iter().enumerate() {
            if !(act.enabled)(&self.marking) {
                continue;
            }
            let sample = match act.delay {
                Delay::Exponential(rate) => rng.exp_duration(rate).as_secs_f64(),
                Delay::Deterministic(d) => d,
                Delay::Instantaneous => unreachable!("handled above"),
            };
            match winner {
                Some((_, best)) if sample >= best => {}
                _ => winner = Some((i, sample)),
            }
        }
        let (i, dt) = winner?;
        self.time += dt;
        let mut m = self.marking.clone();
        (self.activities[i].fire)(&mut m);
        self.marking = m;
        Some(i)
    }

    /// Runs until `horizon` model time, accumulating the total time each
    /// place was non-empty. Returns per-place occupancy fractions and the
    /// per-activity firing counts.
    pub(crate) fn solve(&mut self, rng: &mut SimRng, horizon: f64) -> (Vec<f64>, Vec<u64>) {
        let places = self.marking.len();
        let mut occupied = vec![0.0; places];
        let mut firings = vec![0u64; self.activities.len()];
        let mut last = self.time;
        while self.time < horizon {
            let before = self.marking.clone();
            let Some(fired) = self.step(rng) else { break };
            firings[fired] += 1;
            let dt = (self.time - last).min(horizon - last);
            for (p, tokens) in before.iter().enumerate() {
                if *tokens > 0 {
                    occupied[p] += dt;
                }
            }
            last = self.time;
        }
        // Tail interval.
        if last < horizon {
            for (p, tokens) in self.marking.iter().enumerate() {
                if *tokens > 0 {
                    occupied[p] += horizon - last;
                }
            }
        }
        let fractions = occupied.into_iter().map(|t| t / horizon).collect();
        (fractions, firings)
    }
}

impl std::fmt::Debug for San {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("San")
            .field("marking", &self.marking)
            .field("activities", &self.activities.len())
            .field("time", &self.time)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm1(lambda: f64, mu: f64) -> San {
        // Single-server queue with capacity 1: place 0 = idle, 1 = busy.
        let mut san = San::new(vec![1, 0]);
        san.add_activity(Activity {
            delay: Delay::Exponential(lambda),
            enabled: Box::new(|m| m[0] > 0),
            fire: Box::new(|m| {
                m[0] -= 1;
                m[1] += 1;
            }),
        });
        san.add_activity(Activity {
            delay: Delay::Exponential(mu),
            enabled: Box::new(|m| m[1] > 0),
            fire: Box::new(|m| {
                m[1] -= 1;
                m[0] += 1;
            }),
        });
        san
    }

    #[test]
    fn two_state_chain_occupancy_matches_theory() {
        // Alternating renewal process: availability = mu/(lambda+mu).
        let mut rng = SimRng::new(7);
        let mut san = mm1(1.0, 3.0);
        let (fractions, firings) = san.solve(&mut rng, 50_000.0);
        let expect_idle = 3.0 / 4.0;
        assert!((fractions[0] - expect_idle).abs() < 0.02, "idle {}", fractions[0]);
        assert!((fractions[1] - (1.0 - expect_idle)).abs() < 0.02);
        assert!(firings[0] > 0 && firings[1] > 0);
    }

    #[test]
    fn instantaneous_fires_before_timed() {
        let mut san = San::new(vec![1, 0]);
        san.add_activity(Activity {
            delay: Delay::Exponential(0.001),
            enabled: Box::new(|m| m[0] > 0),
            fire: Box::new(|m| m[0] -= 1),
        });
        san.add_activity(Activity {
            delay: Delay::Instantaneous,
            enabled: Box::new(|m| m[0] > 0),
            fire: Box::new(|m| {
                m[0] -= 1;
                m[1] += 1;
            }),
        });
        let mut rng = SimRng::new(1);
        let fired = san.step(&mut rng).unwrap();
        assert_eq!(san.marking[1], 1);
        assert_eq!(fired, 1, "instantaneous activity must win");
        assert_eq!(san.time, 0.0, "instantaneous firing consumes no time");
    }

    #[test]
    fn absorbing_marking_stops() {
        let mut san = San::new(vec![0]);
        san.add_activity(Activity {
            delay: Delay::Exponential(1.0),
            enabled: Box::new(|m| m[0] > 0),
            fire: Box::new(|_| {}),
        });
        let mut rng = SimRng::new(1);
        assert!(san.step(&mut rng).is_none());
    }

    #[test]
    fn deterministic_delay_advances_time_exactly() {
        let mut san = San::new(vec![1]);
        san.add_activity(Activity {
            delay: Delay::Deterministic(2.5),
            enabled: Box::new(|m| m[0] > 0),
            fire: Box::new(|m| m[0] -= 1),
        });
        let mut rng = SimRng::new(1);
        san.step(&mut rng);
        assert!((san.time - 2.5).abs() < 1e-12);
    }
}
