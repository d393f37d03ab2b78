//! Integration tests for the settings the paper's experiments vary — the
//! progress-indicator design (§5.1) and the heartbeat period (Table 5) —
//! for the §8 two-application configuration, and for the MPI startup
//! window behind Figure 8.

use ree::experiments::{figures, Effort, Scenario};
use ree::sift::MPI_INIT_TIMEOUT;
use ree::sim::{SimDuration, SimTime};

#[test]
fn interrupt_driven_progress_indicators_halve_detection_latency() {
    // §5.1: "By resetting the timer to expire 20 s from the last progress
    // indicator update, any future hang will be detected within a
    // 20-second window" — versus up to 2× the period for polling.
    let fig6 = figures::fig6(Effort::Quick, 17);
    assert!(fig6.polling.n() >= 3, "need polling samples, got {}", fig6.polling.n());
    assert!(fig6.interrupt.n() >= 3, "need interrupt samples");
    // Polling can exceed one period; interrupt-driven must not (modulo
    // modest protocol slack).
    assert!(
        fig6.polling.max() > fig6.period_s,
        "polling max {} should exceed one period",
        fig6.polling.max()
    );
    assert!(
        fig6.polling.max() <= 2.0 * fig6.period_s + 8.0,
        "polling max {} must stay under ~2 periods",
        fig6.polling.max()
    );
    assert!(
        fig6.interrupt.max() <= fig6.period_s + 8.0,
        "interrupt-driven max {} must stay near one period",
        fig6.interrupt.max()
    );
    assert!(
        fig6.interrupt.mean() < fig6.polling.mean(),
        "interrupt mean {} must beat polling mean {}",
        fig6.interrupt.mean(),
        fig6.polling.mean()
    );
}

#[test]
fn two_applications_complete_simultaneously() {
    // §8: the six-node two-application configuration, fault-free.
    let scenario = Scenario::two_apps(37);
    let mut run = scenario.start();
    assert!(run.run_until_done(SimTime::from_secs(700)), "both apps must complete");
    let rover = run.job_times(0).unwrap();
    let otis = run.job_times(1).unwrap();
    let rover_actual = rover.actual().unwrap().as_secs_f64();
    let otis_actual = otis.actual().unwrap().as_secs_f64();
    // Paper shape: Rover ~151 s (two images), OTIS ~191 s.
    assert!((120.0..200.0).contains(&rover_actual), "rover {rover_actual}");
    assert!((150.0..260.0).contains(&otis_actual), "otis {otis_actual}");
    assert!(otis_actual > rover_actual, "OTIS is the longer-running app");
}

#[test]
fn heartbeat_period_trades_perceived_time_for_network_quiet() {
    // Table 5 shape at quick scale: perceived grows with the period.
    let t5 = ree::experiments::table5::run(Effort::Quick, 41);
    assert_eq!(t5.rows.len(), 4);
    let (first_perceived, first_actual) = t5.times(0);
    let (last_perceived, last_actual) = t5.times(3);
    assert!(
        last_perceived.mean() > first_perceived.mean(),
        "perceived with 30 s HB ({}) must exceed 5 s HB ({})",
        last_perceived.mean(),
        first_perceived.mean()
    );
    // Actual time stays within a few percent.
    let spread = (last_actual.mean() - first_actual.mean()).abs();
    assert!(spread < 5.0, "actual-time spread {spread} too large");
}

#[test]
fn mpi_init_timeout_knob_reaches_rank_zero() {
    use ree::os::{Signal, TraceEvent};
    // Rank 1 is held stopped from its spawn, so rank 0 waits in the init
    // barrier for as long as the stall lasts.
    let aborts = |stall: SimDuration| {
        let mut run = Scenario::single_texture(41).start();
        let peer = |c: &ree::os::Cluster| c.find_by_name("texture-r1-a0");
        assert!(run.cluster.run_until_pred(SimTime::from_secs(30), |c| peer(c).is_some()));
        let rank1 = peer(&run.cluster).expect("rank 1 spawned");
        run.cluster.send_signal(rank1, Signal::Stop);
        let resume = run.cluster.now() + stall;
        run.run_until(resume);
        run.cluster.send_signal(rank1, Signal::Cont);
        run.run_until(resume + SimDuration::from_secs(5));
        run.cluster.trace().count_of(TraceEvent::MpiInitTimeout)
    };
    assert_eq!(aborts(SimDuration::from_secs(5)), 0, "the window rides out a 5 s stall");
    let longer = MPI_INIT_TIMEOUT + SimDuration::from_secs(5);
    assert_eq!(aborts(longer), 1, "a stall past the window aborts the start once");
}
