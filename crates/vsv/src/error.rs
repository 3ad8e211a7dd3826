//! Typed simulation failures — the error half of the fault-tolerant
//! sweep contract.
//!
//! Every way a run can fail is a [`SimError`] variant, so a sweep can
//! record a failure as *data* (one grid cell's [`crate::JobOutcome`])
//! instead of tearing down the whole grid. The variants carry enough
//! context to act as self-contained bug reports: a deadlock names the
//! workload, the controller mode, and the last few mode transitions
//! leading up to the hang.
//!
//! Every entry point that builds or runs a simulation
//! ([`crate::System::try_run`], [`crate::Experiment::try_run`], …)
//! returns these errors; none panics on them.

use crate::controller::Mode;

/// One controller mode change, as kept in the always-on diagnostic
/// ring ([`SimError::Deadlock::recent_transitions`]).
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeTransition {
    /// Simulated nanosecond at which the controller entered `mode`.
    pub at_ns: u64,
    /// The mode entered.
    pub mode: Mode,
}

impl std::fmt::Display for ModeTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={}→{:?}", self.at_ns, self.mode)
    }
}

/// A fault forced by [`crate::SystemConfig::inject_fault`] — the
/// test-only hook that exercises the sweep engine's error paths
/// deterministically, end to end, without needing a real model bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The run reports a [`SimError::Deadlock`] (through the same
    /// construction path as the real no-progress detector).
    Deadlock,
    /// The run panics, exercising the sweep's `catch_unwind`
    /// isolation and bounded-retry policy.
    Panic,
    /// Every cache-read delivery errs until one read exhausts its
    /// retry budget, exercising the low-voltage escalation path
    /// ([`SimError::UnrecoverableRead`]) end to end.
    UnrecoverableRead,
}

/// Why a simulation run failed.
///
/// Produced by the `try_*` entry points ([`crate::System::try_run`],
/// [`crate::Experiment::try_run`]) and recorded per grid cell by
/// [`crate::Sweep`] as [`crate::JobOutcome::Failed`].
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The machine stopped making forward progress — no instruction
    /// committed for the watchdog window (a model deadlock; indicates
    /// a simulator bug, or an injected [`FaultKind::Deadlock`]).
    Deadlock {
        /// Simulated time when the deadlock was declared, ns.
        at: u64,
        /// Instructions committed up to that point.
        committed: u64,
        /// Workload name (empty if unset).
        workload: String,
        /// Controller mode at declaration time.
        mode: Mode,
        /// The last (up to 8) controller mode transitions before the
        /// hang, oldest first — the trace-ring tail that turns the
        /// error into a self-contained bug report.
        recent_transitions: Vec<ModeTransition>,
    },
    /// A configuration failed validation before the run started.
    InvalidConfig {
        /// Human-readable description of the first inconsistency.
        reason: String,
    },
    /// The run exceeded its [`crate::SystemConfig::max_sim_ns`]
    /// simulated-time budget without completing its instruction
    /// window.
    BudgetExhausted {
        /// The configured budget, simulated ns per window.
        limit_ns: u64,
        /// Simulated time when the budget ran out, ns.
        at: u64,
        /// Instructions committed up to that point.
        committed: u64,
        /// Workload name (empty if unset).
        workload: String,
    },
    /// The simulation panicked and the panic was caught at the sweep
    /// boundary (per-job isolation).
    Panic {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A low-voltage cache read kept failing after its full retry
    /// budget (see `MAX_READ_RETRIES` in `vsv-mem`) — the modeled
    /// machine cannot guarantee the architectural value, so the run
    /// aborts rather than propagate silent corruption.
    UnrecoverableRead {
        /// Simulated time of the final failed attempt, ns.
        at: u64,
        /// Instructions committed up to that point.
        committed: u64,
        /// Workload name (empty if unset).
        workload: String,
        /// Retries attempted before escalation (the read was tried
        /// `retries + 1` times in total).
        retries: u8,
        /// Controller mode at escalation time (the operating point
        /// whose error rate burned the budget).
        mode: Mode,
    },
}

impl SimError {
    /// Wraps a validation message as [`SimError::InvalidConfig`].
    #[must_use]
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        SimError::InvalidConfig {
            reason: reason.into(),
        }
    }

    /// A short stable label for the variant (`deadlock`,
    /// `invalid-config`, `budget-exhausted`, `panic`) — used in
    /// one-line summaries (CLI failure tables, CI logs).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Deadlock { .. } => "deadlock",
            SimError::InvalidConfig { .. } => "invalid-config",
            SimError::BudgetExhausted { .. } => "budget-exhausted",
            SimError::Panic { .. } => "panic",
            SimError::UnrecoverableRead { .. } => "unrecoverable-read",
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock {
                at,
                committed,
                workload,
                mode,
                recent_transitions,
            } => {
                write!(
                    f,
                    "simulator deadlock: no commit progress at t={at} \
                     (committed={committed}, workload={workload:?}, mode={mode:?}); \
                     recent mode transitions: "
                )?;
                if recent_transitions.is_empty() {
                    write!(f, "none recorded")
                } else {
                    let mut first = true;
                    for t in recent_transitions {
                        if !first {
                            write!(f, ", ")?;
                        }
                        first = false;
                        write!(f, "{t}")?;
                    }
                    Ok(())
                }
            }
            SimError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            SimError::BudgetExhausted {
                limit_ns,
                at,
                committed,
                workload,
            } => write!(
                f,
                "simulation budget exhausted: window exceeded {limit_ns} simulated ns \
                 at t={at} (committed={committed}, workload={workload:?})"
            ),
            SimError::Panic { message } => write!(f, "simulation panicked: {message}"),
            SimError::UnrecoverableRead {
                at,
                committed,
                workload,
                retries,
                mode,
            } => write!(
                f,
                "unrecoverable read: a low-voltage cache read failed {retries} retries \
                 at t={at} (committed={committed}, workload={workload:?}, mode={mode:?})"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::Deadlock {
            at: 1234,
            committed: 56,
            workload: "mcf".to_owned(),
            mode: Mode::Low,
            recent_transitions: vec![
                ModeTransition {
                    at_ns: 1000,
                    mode: Mode::High,
                },
                ModeTransition {
                    at_ns: 1100,
                    mode: Mode::Low,
                },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("deadlock"), "{s}");
        assert!(s.contains("mcf"), "{s}");
        assert!(s.contains("t=1100→Low"), "{s}");
        assert_eq!(e.kind(), "deadlock");
    }

    #[test]
    fn deadlock_without_transitions_still_displays() {
        let e = SimError::Deadlock {
            at: 0,
            committed: 0,
            workload: String::new(),
            mode: Mode::High,
            recent_transitions: Vec::new(),
        };
        assert!(e.to_string().contains("none recorded"));
    }

    #[test]
    fn kinds_are_distinct() {
        let errors = [
            SimError::invalid_config("nope"),
            SimError::BudgetExhausted {
                limit_ns: 1,
                at: 2,
                committed: 3,
                workload: String::new(),
            },
            SimError::Panic {
                message: "boom".to_owned(),
            },
            SimError::UnrecoverableRead {
                at: 99,
                committed: 5,
                workload: "mcf".to_owned(),
                retries: 3,
                mode: Mode::Low,
            },
        ];
        let kinds: std::collections::HashSet<_> = errors.iter().map(SimError::kind).collect();
        assert_eq!(kinds.len(), errors.len());
        assert!(errors[0].to_string().contains("nope"));
        assert!(errors[1].to_string().contains("exceeded 1 simulated ns"));
        assert!(errors[2].to_string().contains("boom"));
        assert!(
            errors[3].to_string().contains("failed 3 retries"),
            "{}",
            errors[3]
        );
        assert_eq!(errors[3].kind(), "unrecoverable-read");
    }
}
