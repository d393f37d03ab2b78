//! Shard accounting for distributed campaign sweeps.
//!
//! A distributed supervisor (`ree-dist`) shards a campaign's seed range
//! into batches and hands them to worker processes; workers crash, hang,
//! and get quarantined, and batches get re-queued. [`ShardLedger`]
//! records who actually did what — per-worker batch/run counters,
//! per-batch wall-clock summaries, failure and retry tallies, and the
//! runs that fell back to in-process execution — so the supervisor's
//! operational report is separable from the (deterministic) campaign
//! aggregate. Everything here is bookkeeping about *real* time and
//! *real* processes; nothing in it feeds back into the simulated
//! results, which stay byte-identical regardless of how work was
//! sharded.

use crate::summary::Summary;

/// What one worker shard did over a distributed campaign.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Batches this worker completed successfully.
    pub batches_done: u64,
    /// Runs inside those completed batches.
    pub runs_done: u64,
    /// Failures attributed to this worker (crash, hang past the stall
    /// timeout, corrupt frame, or an error frame for its batch).
    pub failures: u64,
    /// Was the worker quarantined (failed its batch twice)?
    pub quarantined: bool,
    /// Wall-clock seconds per completed batch.
    pub batch_wall: Summary,
}

/// Per-worker [`ShardStats`] plus campaign-wide supervision tallies.
///
/// # Examples
///
/// ```
/// use ree_stats::ShardLedger;
/// let mut ledger = ShardLedger::new(2);
/// ledger.record_batch(0, 32, 1.5);
/// ledger.record_failure(1);
/// ledger.record_requeue();
/// assert_eq!(ledger.runs_done(), 32);
/// assert_eq!(ledger.shard(1).failures, 1);
/// assert_eq!(ledger.failures(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardLedger {
    shards: Vec<ShardStats>,
    /// Batches re-queued after a worker failure or deadline miss.
    pub requeued: u64,
    /// Runs executed in-process after the worker pool was lost or a
    /// batch exhausted its retry budget.
    pub fallback_runs: u64,
}

impl ShardLedger {
    /// A ledger for `workers` shards, all idle.
    pub fn new(workers: usize) -> Self {
        ShardLedger { shards: vec![ShardStats::default(); workers], requeued: 0, fallback_runs: 0 }
    }

    /// Number of worker shards tracked.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// One shard's stats.
    pub fn shard(&self, worker: usize) -> &ShardStats {
        &self.shards[worker]
    }

    /// All shards, indexed by worker id.
    pub fn shards(&self) -> &[ShardStats] {
        &self.shards
    }

    /// Records a batch of `runs` completed by `worker` in `wall_secs`
    /// of real time.
    pub fn record_batch(&mut self, worker: usize, runs: u64, wall_secs: f64) {
        let s = &mut self.shards[worker];
        s.batches_done += 1;
        s.runs_done += runs;
        s.batch_wall.push(wall_secs);
    }

    /// Records a failure attributed to `worker`.
    pub fn record_failure(&mut self, worker: usize) {
        self.shards[worker].failures += 1;
    }

    /// Marks `worker` quarantined.
    pub fn quarantine(&mut self, worker: usize) {
        self.shards[worker].quarantined = true;
    }

    /// Records a batch being re-queued for another worker.
    pub fn record_requeue(&mut self) {
        self.requeued += 1;
    }

    /// Records `runs` executed in-process as a fallback.
    pub fn record_fallback(&mut self, runs: u64) {
        self.fallback_runs += runs;
    }

    /// Total runs completed by workers (excluding fallback runs).
    pub fn runs_done(&self) -> u64 {
        self.shards.iter().map(|s| s.runs_done).sum()
    }

    /// Total failures across all shards.
    pub fn failures(&self) -> u64 {
        self.shards.iter().map(|s| s.failures).sum()
    }

    /// Number of quarantined workers.
    pub fn quarantined(&self) -> usize {
        self.shards.iter().filter(|s| s.quarantined).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tallies() {
        let mut ledger = ShardLedger::new(3);
        ledger.record_batch(0, 16, 0.5);
        ledger.record_batch(0, 16, 0.7);
        ledger.record_batch(2, 16, 0.6);
        ledger.record_failure(1);
        ledger.record_failure(1);
        ledger.quarantine(1);
        ledger.record_requeue();
        ledger.record_requeue();
        ledger.record_fallback(16);
        assert_eq!(ledger.runs_done(), 48);
        assert_eq!(ledger.failures(), 2);
        assert_eq!(ledger.quarantined(), 1);
        assert_eq!(ledger.requeued, 2);
        assert_eq!(ledger.fallback_runs, 16);
        assert_eq!(ledger.shard(0).batches_done, 2);
        assert!((ledger.shard(0).batch_wall.mean() - 0.6).abs() < 1e-12);
    }
}
