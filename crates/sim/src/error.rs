//! Simulator error types.

use std::error::Error;
use std::fmt;

use crate::ids::{ProcessId, Round};

/// An error raised while driving an execution.
///
/// Most variants indicate a *protocol* bug (violating the computational
/// model) or an *adversary* bug (violating omission-validity); the executor
/// surfaces them instead of producing an invalid execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The resilience bound is invalid: the model requires `t < n`.
    InvalidResilience {
        /// Number of processes in the system.
        n: usize,
        /// The offending resilience bound.
        t: usize,
    },
    /// A process addressed a message to itself, which the model forbids.
    SelfSend {
        /// The offending process.
        process: ProcessId,
        /// The round in which the message would have been sent.
        round: Round,
    },
    /// A process addressed a message to a non-existent receiver.
    InvalidReceiver {
        /// The offending sender.
        process: ProcessId,
        /// The invalid receiver identifier.
        receiver: ProcessId,
        /// The number of processes in the system.
        n: usize,
    },
    /// The fault model's omission blamed a process that is not currently
    /// corrupted.
    OmissionByCorrect {
        /// The correct process the model tried to blame.
        process: ProcessId,
        /// The round of the offending routing decision.
        round: Round,
    },
    /// The fault model forged a message from a sender that is not currently
    /// corrupted.
    ForgeByCorrect {
        /// The correct sender whose message the model tried to forge.
        process: ProcessId,
        /// The round of the offending routing decision.
        round: Round,
    },
    /// The fault model's broadcast fan-out
    /// ([`FaultModel::route_broadcast`](crate::FaultModel::route_broadcast))
    /// decided a different number of routings than the broadcast has
    /// receivers; it must decide exactly one per receiver.
    RoutingCount {
        /// The broadcasting sender.
        sender: ProcessId,
        /// The round of the broadcast.
        round: Round,
        /// Number of receivers, the routings the model had to decide.
        expected: usize,
        /// Number of routings the model decided.
        got: usize,
    },
    /// A protocol changed its decision after deciding (decisions are
    /// irrevocable).
    DecisionChanged {
        /// The offending process.
        process: ProcessId,
        /// The round at the start of which the change was observed.
        round: Round,
    },
    /// The number of proposals supplied does not match `n`.
    ProposalCount {
        /// Number of proposals supplied.
        got: usize,
        /// Number of processes in the system.
        expected: usize,
    },
    /// More than `t` processes were declared faulty.
    TooManyFaulty {
        /// Number of faulty processes declared.
        got: usize,
        /// The resilience bound `t`.
        t: usize,
    },
    /// A Byzantine behavior was supplied for a process not in the fault set,
    /// or vice versa.
    BehaviorMismatch {
        /// The process whose behavior assignment is inconsistent.
        process: ProcessId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidResilience { n, t } => {
                write!(
                    f,
                    "invalid resilience bound: require t < n (got t = {t}, n = {n})"
                )
            }
            SimError::SelfSend { process, round } => {
                write!(f, "{process} sent a message to itself in {round}")
            }
            SimError::InvalidReceiver {
                process,
                receiver,
                n,
            } => {
                write!(
                    f,
                    "{process} addressed non-existent receiver {receiver} (n = {n})"
                )
            }
            SimError::OmissionByCorrect { process, round } => {
                write!(
                    f,
                    "omission plan blamed correct process {process} in {round}"
                )
            }
            SimError::ForgeByCorrect { process, round } => {
                write!(
                    f,
                    "fault model forged a message from correct process {process} in {round}"
                )
            }
            SimError::RoutingCount {
                sender,
                round,
                expected,
                got,
            } => {
                write!(
                    f,
                    "fault model decided {got} routings for the {expected} receivers of \
                     {sender}'s broadcast in {round}"
                )
            }
            SimError::DecisionChanged { process, round } => {
                write!(f, "{process} changed its decision at the start of {round}")
            }
            SimError::ProposalCount { got, expected } => {
                write!(f, "got {got} proposals for {expected} processes")
            }
            SimError::TooManyFaulty { got, t } => {
                write!(f, "{got} faulty processes exceed the bound t = {t}")
            }
            SimError::BehaviorMismatch { process } => {
                write!(
                    f,
                    "behavior assignment for {process} is inconsistent with the fault set"
                )
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_informatively() {
        let e = SimError::SelfSend {
            process: ProcessId(3),
            round: Round(2),
        };
        assert_eq!(e.to_string(), "p3 sent a message to itself in round 2");
        let e = SimError::TooManyFaulty { got: 5, t: 2 };
        assert!(e.to_string().contains("exceed"));
        let e = SimError::RoutingCount {
            sender: ProcessId(1),
            round: Round(3),
            expected: 3,
            got: 2,
        };
        assert_eq!(
            e.to_string(),
            "fault model decided 2 routings for the 3 receivers of p1's broadcast in round 3"
        );
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: Error>() {}
        assert_err::<SimError>();
    }
}
