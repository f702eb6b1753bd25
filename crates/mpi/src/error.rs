//! Machine construction and run-time errors.

use std::fmt;

/// Why a [`crate::Machine`] could not be constructed or run.
#[derive(Debug, PartialEq, Eq)]
pub enum MachineError {
    /// The placement uses more nodes than the cluster provides.
    PlacementTooLarge { needed: usize, available: usize },
    /// The placement was built for a different node shape than the cluster.
    NodeShapeMismatch,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::PlacementTooLarge { needed, available } => {
                write!(f, "placement needs {needed} nodes, cluster has {available}")
            }
            MachineError::NodeShapeMismatch => {
                write!(f, "placement node shape differs from cluster node shape")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// What kind of event ended a run — what a caller matches on; the wording
/// lives in [`Abort::detail`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum AbortKind {
    /// A planned fault fired: a rank crash, a message lost past the retry
    /// budget, a monitoring rank's death.
    InjectedFault,
    /// Every unfinished rank is blocked and none can be woken — also when
    /// the peers a rank waits on have already finished.
    Deadlock,
    /// A rank broke a collective's calling contract
    /// ([`CollContractError`]).
    CollectiveContract,
    /// A solver returned an error on some rank.
    Solver,
    /// The monitoring protocol failed on some rank.
    Monitor,
    /// A rank body panicked on its own — a bug, never a legitimate death.
    Panic,
}

/// Why a run did not finish: the one rank that caused it, the kind of
/// event, and the full human-readable diagnostic. Recorded once, at the
/// cause ([`crate::RankCtx::abort`]), before any other rank can notice the
/// run is failing; [`crate::Machine::try_run`] hands it back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Abort {
    /// Global rank on which the cause occurred.
    pub rank: usize,
    pub kind: AbortKind,
    /// The diagnostic, as [`fmt::Display`] prints it.
    pub detail: String,
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for Abort {}

/// A rank broke a collective's calling contract (e.g. contributed a
/// reduce buffer of the wrong length, or asked for more chunks than the
/// tag layout has ids for). The runtime aborts the run as
/// [`AbortKind::CollectiveContract`] with this diagnostic instead of a
/// bare assert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollContractError {
    /// Two ranks contributed different element counts to one reduction.
    ReduceLengthMismatch {
        comm: u64,
        rank: usize,
        got: usize,
        expected: usize,
    },
    /// A pipelined broadcast or a ring allgather needs `chunks` data
    /// chunk ids, more than the `max` the collective tag layout has.
    TagChunksExhausted {
        comm: u64,
        rank: usize,
        chunks: u64,
        max: u64,
    },
}

impl fmt::Display for CollContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollContractError::ReduceLengthMismatch {
                comm,
                rank,
                got,
                expected,
            } => write!(
                f,
                "collective contract violated: reduce length mismatch on comm {comm} \
                 (rank {rank} combined {got} elems into a {expected}-elem accumulator)"
            ),
            CollContractError::TagChunksExhausted {
                comm,
                rank,
                chunks,
                max,
            } => write!(
                f,
                "collective contract violated: a collective on comm {comm} needs {chunks} \
                 tag chunks on rank {rank}, but the tag layout has ids for {max}"
            ),
        }
    }
}

impl std::error::Error for CollContractError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_errors_render_the_stable_prefix() {
        // Wording only: callers match on `AbortKind::CollectiveContract`.
        let e = CollContractError::ReduceLengthMismatch {
            comm: 0,
            rank: 3,
            got: 7,
            expected: 8,
        };
        assert!(e.to_string().starts_with("collective contract violated"));
    }

    #[test]
    fn an_abort_displays_its_detail_verbatim() {
        let a = Abort {
            rank: 3,
            kind: AbortKind::InjectedFault,
            detail: "injected fault: rank 3 crashed at call 2".into(),
        };
        assert_eq!(a.to_string(), a.detail);
    }
}
