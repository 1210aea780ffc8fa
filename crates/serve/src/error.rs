//! Error type shared by the serving subsystem.

use std::fmt;

/// Errors produced by the serving subsystem.
#[derive(Debug)]
pub enum ServeError {
    /// A model could not be loaded, parsed or applied.
    Model(String),
    /// A socket or file operation failed.
    Io(std::io::Error),
    /// A protocol line could not be parsed.
    Protocol(String),
    /// The requested model name is not in the registry.
    ModelNotFound(String),
    /// The worker pool or batcher has shut down and can take no more work.
    Shutdown,
    /// The write-ahead journal rejected or could not durably record a
    /// request — the request fails rather than silently losing its frame.
    Journal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Model(msg) => write!(f, "model error: {msg}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::ModelNotFound(name) => write!(
                f,
                "{} '{}' is loaded",
                crate::protocol::MODEL_NOT_FOUND_PREFIX,
                crate::protocol::echo(name)
            ),
            ServeError::Shutdown => write!(f, "serving subsystem is shut down"),
            ServeError::Journal(msg) => write!(f, "journal error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl ServeError {
    /// Wraps any displayable error as a model error.
    pub fn model(e: impl fmt::Display) -> Self {
        ServeError::Model(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_every_variant() {
        let io: ServeError = std::io::Error::other("boom").into();
        for (err, needle) in [
            (ServeError::Model("bad".into()), "model error"),
            (io, "boom"),
            (ServeError::Protocol("eh".into()), "protocol error"),
            (ServeError::ModelNotFound("m".into()), "no model named"),
            (ServeError::Shutdown, "shut down"),
            (ServeError::Journal("disk full".into()), "journal error"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn io_errors_expose_a_source() {
        use std::error::Error;
        let err: ServeError = std::io::Error::other("x").into();
        assert!(err.source().is_some());
        assert!(ServeError::Shutdown.source().is_none());
    }
}
