//! Typed errors for the experiment harness.
//!
//! The simulation core is assertion-heavy by design — the invariant
//! checker and `debug_assert`s are how it earns trust — but the harness
//! boundary (CLI parsing, artefact execution, file IO) must not abort a
//! whole sweep because one run misbehaved. [`RunError`] is the carrier:
//! [`try_run_config`](crate::runner::try_run_config) catches panics and
//! converts them, the `repro` binary quarantines artefacts that fail all
//! retries, and IO/argument problems surface as structured variants
//! instead of `expect` aborts.

use std::fmt;

/// Why an experiment run (or an artefact wrapping several runs) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The simulation panicked on every attempt; `what` is the final
    /// panic payload.
    Panicked {
        /// How many attempts were made before giving up.
        attempts: u32,
        /// The last panic message observed.
        what: String,
    },
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error, rendered.
        what: String,
    },
    /// A configuration or argument was rejected before simulating.
    InvalidConfig {
        /// Human-readable description of the rejection.
        what: String,
    },
    /// Every attempt exceeded the wall-clock watchdog
    /// (`--run-timeout`). The hung simulation threads were abandoned;
    /// the artefact is quarantined like a panicking one.
    Timeout {
        /// How many attempts were made before giving up.
        attempts: u32,
        /// The per-attempt budget that was exceeded, seconds.
        seconds: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panicked { attempts, what } => {
                write!(f, "run panicked on all {attempts} attempts: {what}")
            }
            RunError::Io { path, what } => write!(f, "io error on {path}: {what}"),
            RunError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            RunError::Timeout { attempts, seconds } => {
                write!(
                    f,
                    "run exceeded the {seconds}s watchdog on all {attempts} attempts"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// Wraps a [`std::io::Error`] with the path it struck.
    pub fn io(path: impl Into<String>, err: std::io::Error) -> Self {
        RunError::Io {
            path: path.into(),
            what: err.to_string(),
        }
    }

    /// A rejected configuration or argument.
    pub fn invalid(what: impl Into<String>) -> Self {
        RunError::InvalidConfig { what: what.into() }
    }
}

/// Renders a caught panic payload (`&str` or `String`, the two shapes
/// `panic!` produces) into a displayable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases = [
            (
                RunError::Panicked {
                    attempts: 3,
                    what: "boom".into(),
                },
                "panicked on all 3 attempts: boom",
            ),
            (
                RunError::Io {
                    path: "/tmp/x".into(),
                    what: "denied".into(),
                },
                "io error on /tmp/x: denied",
            ),
            (
                RunError::InvalidConfig { what: "bad".into() },
                "invalid configuration: bad",
            ),
            (
                RunError::Timeout {
                    attempts: 3,
                    seconds: 30,
                },
                "exceeded the 30s watchdog on all 3 attempts",
            ),
        ];
        for (err, fragment) in cases {
            assert!(
                err.to_string().contains(fragment),
                "{err} missing {fragment}"
            );
        }
    }

    #[test]
    fn panic_payloads_render() {
        let p = std::panic::catch_unwind(|| panic!("static message")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static message");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
    }
}
