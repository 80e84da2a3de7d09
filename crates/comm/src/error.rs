//! Error types for communicator construction and use.
//!
//! Runtime message-passing bugs (tag type mismatches, out-of-range ranks)
//! are programming errors and panic; recoverable configuration problems
//! and *fault-model* outcomes surface as [`CommError`].
//!
//! The fault-model variants ([`CommError::RankFailed`] and
//! [`CommError::Timeout`]) are raised by unwinding with the error as the
//! panic payload (`std::panic::panic_any`), because the [`crate::Communicator`]
//! methods are deliberately infallible — real MPI aborts the job on a
//! peer failure too. [`crate::runtime::run_ranks_opts`] catches those
//! unwinds at the rank boundary and returns them as per-rank `Result`s,
//! so a chaos test or a resilient training driver observes a structured
//! error instead of a crashed process or a hung CI job.

use std::fmt;

/// Errors arising from invalid communicator configuration or, under the
/// fault model, from rank failures and watchdog/timeout aborts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A world or group of zero ranks was requested.
    EmptyWorld,
    /// A rank index was outside `0..size`.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// The communicator size.
        size: usize,
    },
    /// A sub-communicator group referenced a rank not in the parent.
    InvalidGroup {
        /// The offending parent rank.
        rank: usize,
    },
    /// Rank `rank` terminated (injected kill, panic, or early exit while
    /// peers still depended on it), observed by rank `observer`. When a
    /// rank reports its own injected death, `observer == rank`.
    RankFailed {
        /// The rank that failed.
        rank: usize,
        /// The rank that observed the failure.
        observer: usize,
        /// Human-readable context: the awaited tag, the injected fault,
        /// or the recorded death reason of the failed rank.
        detail: String,
    },
    /// The deadlock watchdog aborted the world; `detail` carries the
    /// wait-graph diagnostic.
    Timeout {
        /// The rank whose receive was aborted.
        rank: usize,
        /// Diagnostic: either the per-receive timeout description or the
        /// watchdog's wait graph (who waits on whom, which tag).
        detail: String,
    },
    /// The integrity layer detected payload corruption on `link` that it
    /// could not repair within its retry budget (every retransmission
    /// was also corrupted, or the sender's replay window no longer holds
    /// the message). `seq` is the corrupted message's position in its
    /// `(link, tag)` stream.
    Corrupt {
        /// The `(src, dst)` ordered pair the corrupted message traveled.
        link: (usize, usize),
        /// Stream sequence number of the unrepairable message.
        seq: u64,
        /// Context: the tag, the retry budget, what each retry saw.
        detail: String,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::EmptyWorld => write!(f, "communicator must have at least one rank"),
            CommError::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for communicator of size {size}")
            }
            CommError::InvalidGroup { rank } => {
                write!(f, "group references rank {rank} not present in parent communicator")
            }
            CommError::RankFailed { rank, observer, detail } => {
                write!(f, "rank {rank} failed (observed by rank {observer}): {detail}")
            }
            CommError::Timeout { rank, detail } => {
                write!(f, "rank {rank} timed out: {detail}")
            }
            CommError::Corrupt { link: (src, dst), seq, detail } => {
                write!(f, "unrepairable corruption on link {src} -> {dst} (seq {seq}): {detail}")
            }
        }
    }
}

impl std::error::Error for CommError {}

impl CommError {
    /// The rank this error blames for a death, if it records one: the
    /// victim of a [`CommError::RankFailed`] (self-reported or observed
    /// by a peer). Timeouts and corruption name links and waiters, not
    /// deaths, so they attribute nothing.
    fn failed_rank(&self) -> Option<usize> {
        match self {
            CommError::RankFailed { rank, .. } => Some(*rank),
            _ => None,
        }
    }
}

/// Attribute permanent deaths from a failure history: the ranks blamed
/// by [`CommError::RankFailed`] errors, preferring *self-reported*
/// deaths (victim == observer — the rank recorded its own demise, the
/// strongest evidence) and falling back to peer observations when no
/// rank self-reported. Returns sorted, deduplicated ranks; empty when
/// the history contains no rank failures (e.g. pure timeouts).
///
/// This is the diagnostic a degradation rung keys on: after repeated
/// same-size rebuilds keep failing, the consistently-blamed rank is the
/// one to shrink the world around.
pub fn attribute_dead_ranks(errors: &[CommError]) -> Vec<usize> {
    let self_reported: Vec<usize> = errors
        .iter()
        .filter_map(|e| match e {
            CommError::RankFailed { rank, observer, .. } if rank == observer => Some(*rank),
            _ => None,
        })
        .collect();
    let mut dead = if self_reported.is_empty() {
        errors.iter().filter_map(|e| e.failed_rank()).collect()
    } else {
        self_reported
    };
    dead.sort_unstable();
    dead.dedup();
    dead
}

/// The one shrink rule, shared by the trainer's degradation rung and the
/// serving tier's replica rebuild: the survivors of a failed `world`
/// (old-world ids, lowest first, every rank not in `dead`) and the
/// largest world they may form. With no attributable death (e.g.
/// watchdog-only evidence) one rank is shed on the heuristic that the
/// failure is localized, so that is `world − 1`; it is 0 when nobody
/// survives, and so for a one-rank world.
pub fn shrink_survivors(world: usize, dead: &[usize]) -> (Vec<usize>, usize) {
    let survivors: Vec<usize> = (0..world).filter(|r| !dead.contains(r)).collect();
    let max_world =
        if survivors.len() == world { world.saturating_sub(1) } else { survivors.len() };
    (survivors, max_world)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_world_construction_and_display() {
        let e = CommError::EmptyWorld;
        assert_eq!(e, CommError::EmptyWorld);
        assert_eq!(e.to_string(), "communicator must have at least one rank");
    }

    #[test]
    fn rank_out_of_range_carries_rank_and_size() {
        let e = CommError::RankOutOfRange { rank: 9, size: 4 };
        assert_eq!(e, CommError::RankOutOfRange { rank: 9, size: 4 });
        assert_ne!(e, CommError::RankOutOfRange { rank: 3, size: 4 });
        assert_eq!(e.to_string(), "rank 9 out of range for communicator of size 4");
    }

    #[test]
    fn invalid_group_names_the_outsider() {
        let e = CommError::InvalidGroup { rank: 2 };
        assert_eq!(e.to_string(), "group references rank 2 not present in parent communicator");
    }

    #[test]
    fn rank_failed_names_victim_observer_and_context() {
        let e = CommError::RankFailed {
            rank: 1,
            observer: 3,
            detail: "hung up while rank 3 waited on tag 7".into(),
        };
        assert_eq!(
            e.to_string(),
            "rank 1 failed (observed by rank 3): hung up while rank 3 waited on tag 7"
        );
    }

    #[test]
    fn timeout_carries_the_diagnostic() {
        let e = CommError::Timeout { rank: 0, detail: "deadlock: rank 0 waits on rank 1".into() };
        assert_eq!(e.to_string(), "rank 0 timed out: deadlock: rank 0 waits on rank 1");
    }

    #[test]
    fn corrupt_names_link_seq_and_context() {
        let e = CommError::Corrupt {
            link: (0, 1),
            seq: 42,
            detail: "tag 7: 3 retransmissions, all corrupted".into(),
        };
        assert_eq!(
            e.to_string(),
            "unrepairable corruption on link 0 -> 1 (seq 42): tag 7: 3 retransmissions, \
             all corrupted"
        );
        assert_ne!(e, CommError::Corrupt { link: (0, 1), seq: 43, detail: String::new() });
    }

    #[test]
    fn dead_rank_attribution_prefers_self_reports() {
        let self_report = |rank| CommError::RankFailed { rank, observer: rank, detail: "x".into() };
        let observed =
            |rank, observer| CommError::RankFailed { rank, observer, detail: "x".into() };
        let timeout = CommError::Timeout { rank: 0, detail: "watchdog".into() };
        // Self-reports win over peer observations (a peer may blame the
        // wrong neighbor when the whole world is tearing down).
        let hist =
            vec![observed(1, 3), self_report(2), timeout.clone(), self_report(2), observed(0, 2)];
        assert_eq!(attribute_dead_ranks(&hist), vec![2]);
        // No self-report: fall back to observed victims, deduplicated.
        let hist = vec![observed(3, 0), observed(3, 1), observed(1, 0)];
        assert_eq!(attribute_dead_ranks(&hist), vec![1, 3]);
        // Nothing to attribute.
        assert!(attribute_dead_ranks(&[timeout]).is_empty());
        assert_eq!(observed(4, 0).failed_rank(), Some(4));
        assert_eq!(CommError::EmptyWorld.failed_rank(), None);
    }

    #[test]
    fn shrink_sheds_one_rank_when_nobody_is_blamed_and_none_when_nobody_survives() {
        // Nobody attributed dead: every rank survives, one is shed.
        assert_eq!(shrink_survivors(4, &[]), (vec![0, 1, 2, 3], 3));
        assert_eq!(shrink_survivors(1, &[]), (vec![0], 0));
        // Nobody survives: no world to form.
        assert_eq!(shrink_survivors(4, &[0, 1, 2, 3]), (vec![], 0));
        assert_eq!(shrink_survivors(1, &[0]), (vec![], 0));
        // Otherwise the survivors carry on, lowest ids first.
        assert_eq!(shrink_survivors(4, &[1]), (vec![0, 2, 3], 3));
        assert_eq!(shrink_survivors(4, &[0, 2]), (vec![1, 3], 2));
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&CommError::EmptyWorld);
        takes_err(&CommError::Timeout { rank: 0, detail: String::new() });
    }
}
