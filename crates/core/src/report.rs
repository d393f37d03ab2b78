//! Reports exchanged between the FTM and the SCC, and the job-timing
//! records the SCC persists to the remote file system for the
//! experiment harness.

use ree_armor::ArmorId;
use ree_os::Pid;
use ree_sim::SimTime;

/// Status report from the FTM to the Spacecraft Control Computer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum SccReport {
    /// The application's first MPI process started.
    Started {
        /// Application slot.
        slot: u64,
        /// Launch attempt (0 = first).
        attempt: u64,
    },
    /// The application was restarted after a failure.
    Restarted {
        /// Application slot.
        slot: u64,
        /// Launch attempt.
        attempt: u64,
    },
    /// All ranks terminated cleanly (actual end of execution); takedown
    /// follows.
    Ended {
        /// Application slot.
        slot: u64,
        /// Virtual time (µs) of the last rank's clean exit.
        end_us: u64,
    },
    /// Execution ARMORs uninstalled and completion reported (perceived
    /// end of execution).
    Completed {
        /// Application slot.
        slot: u64,
    },
}

/// Daemon → SCC notification that an ARMOR was (re)installed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArmorInstalled {
    /// The ARMOR's identity.
    pub armor: ArmorId,
    /// Its new process id.
    pub pid: Pid,
    /// Its kind (`ftm`, `heartbeat`, `exec`).
    pub kind: String,
}

/// Timing record for one submitted job, persisted by the SCC.
///
/// The harness derives the paper's two headline measurements from it:
/// *perceived* execution time (submit → completion report, Figure 5) and
/// *actual* execution time (first start → completion).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobTimes {
    /// When the SCC submitted the job.
    pub submitted: Option<SimTime>,
    /// When the FTM first reported the application started.
    pub started: Option<SimTime>,
    /// When all ranks had terminated (actual end).
    pub ended: Option<SimTime>,
    /// When the FTM reported completion after takedown (perceived end).
    pub completed: Option<SimTime>,
    /// Number of application restarts observed.
    pub restarts: u64,
}

impl JobTimes {
    /// Remote-FS path for a slot's record.
    pub fn path(slot: u64) -> String {
        format!("scc/report/{slot}")
    }

    /// Serialises to the stable on-FS text format.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let f = |t: Option<SimTime>| t.map(|x| x.as_micros() as i64).unwrap_or(-1);
        format!(
            "submit={};started={};ended={};completed={};restarts={}",
            f(self.submitted),
            f(self.started),
            f(self.ended),
            f(self.completed),
            self.restarts,
        )
        .into_bytes()
    }

    /// Parses the on-FS format.
    pub fn decode(bytes: &[u8]) -> Option<JobTimes> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut out = JobTimes::default();
        for part in text.split(';') {
            let (key, value) = part.split_once('=')?;
            let n: i64 = value.parse().ok()?;
            let t = if n < 0 { None } else { Some(SimTime::from_micros(n as u64)) };
            match key {
                "submit" => out.submitted = t,
                "started" => out.started = t,
                "ended" => out.ended = t,
                "completed" => out.completed = t,
                "restarts" => out.restarts = n.max(0) as u64,
                _ => return None,
            }
        }
        Some(out)
    }

    /// Perceived application execution time (Figure 5): submission to
    /// completion report.
    pub fn perceived(&self) -> Option<ree_sim::SimDuration> {
        Some(self.completed?.since(self.submitted?))
    }

    /// Actual application execution time (Figure 5): first start to the
    /// last rank's termination.
    pub fn actual(&self) -> Option<ree_sim::SimDuration> {
        Some(self.ended.or(self.completed)?.since(self.started?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let t = JobTimes {
            submitted: Some(SimTime::from_secs(5)),
            started: Some(SimTime::from_secs(7)),
            ended: Some(SimTime::from_secs(79)),
            completed: Some(SimTime::from_secs(80)),
            restarts: 2,
        };
        let back = JobTimes::decode(&t.encode()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn partial_times_encode_as_missing() {
        let t = JobTimes { submitted: Some(SimTime::from_secs(5)), ..Default::default() };
        let back = JobTimes::decode(&t.encode()).unwrap();
        assert_eq!(back.started, None);
        assert_eq!(back.completed, None);
        assert!(back.perceived().is_none());
    }

    #[test]
    fn perceived_and_actual_derivations() {
        let t = JobTimes {
            submitted: Some(SimTime::from_secs(5)),
            started: Some(SimTime::from_secs(8)),
            ended: Some(SimTime::from_secs(78)),
            completed: Some(SimTime::from_secs(80)),
            ..Default::default()
        };
        assert_eq!(t.perceived().unwrap().as_secs_f64(), 75.0);
        assert_eq!(t.actual().unwrap().as_secs_f64(), 70.0);
    }

    #[test]
    fn garbage_decode_fails() {
        assert!(JobTimes::decode(b"not-a-record").is_none());
        assert!(JobTimes::decode(&[0xFF, 0xFE]).is_none());
    }
}
