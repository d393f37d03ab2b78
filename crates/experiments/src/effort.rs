//! Experiment sizing: tests run scaled-down campaigns, the `repro`
//! binary runs paper-scale ones.

/// How much compute to spend reproducing an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// Small run counts for CI/tests (minutes of virtual time).
    Quick,
    /// Paper-scale run counts (the full tables).
    Paper,
}

impl Effort {
    /// Scales a paper-scale run count.
    pub(crate) fn scale(&self, paper_runs: u32) -> u32 {
        match self {
            Effort::Paper => paper_runs,
            Effort::Quick => (paper_runs / 10).clamp(4, 30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling() {
        assert_eq!(Effort::Paper.scale(100), 100);
        assert_eq!(Effort::Quick.scale(100), 10);
        assert_eq!(Effort::Quick.scale(1000), 30);
        assert_eq!(Effort::Quick.scale(30), 4);
    }
}
