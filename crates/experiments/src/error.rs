//! Typed errors for the experiment harness.
//!
//! The simulation core is assertion-heavy by design — the invariant
//! checker and `debug_assert`s are how it earns trust — but the harness
//! boundary (CLI parsing, file IO) reports its failures as [`RunError`]
//! values instead of `expect` aborts. A simulation that panics is not a
//! `RunError`: `Executor::map` finishes the rest of its batch before
//! re-raising the panic, and the `repro` binary catches it per artefact
//! and quarantines that artefact ([`panic_message`] renders the reason).

use std::fmt;

/// Why the harness refused or failed an operation: a rejected argument
/// or configuration, or a failed filesystem operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
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
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Io { path, what } => write!(f, "io error on {path}: {what}"),
            RunError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
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
