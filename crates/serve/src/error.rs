//! Serving-layer errors.
//!
//! [`ServeError`] implements [`std::error::Error`] (as does the engine's
//! [`EngineError`]), so application code can propagate either with `?`
//! into a `Box<dyn Error>`:
//!
//! ```
//! use zskip_serve::{ServeConfig, Server};
//! use zskip_runtime::FrozenCharLm;
//!
//! fn serve_one() -> Result<usize, Box<dyn std::error::Error>> {
//!     let server = Server::start(
//!         FrozenCharLm::random(16, 8, 1),
//!         ServeConfig::for_threshold(0.2).with_shards(1),
//!     );
//!     let mut client = server.client();
//!     let stream = client.open()?;
//!     client.send(stream, 3)?;
//!     let result = client.recv(stream)?;
//!     client.close(stream)?;
//!     Ok(result.argmax)
//! }
//! assert!(serve_one().is_ok());
//! ```

use zskip_runtime::EngineError;

/// Errors from the sharded serving API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// An engine-level error surfaced through the serving layer (e.g. a
    /// token outside the model's vocabulary).
    Engine(EngineError),
    /// The stream id is not managed by this client (never opened here,
    /// or already closed).
    UnknownStream,
    /// `try_send` found the shard's bounded request queue full — the
    /// backpressure signal. Retry later or use the blocking `send`.
    Backpressure,
    /// The server has shut down; no further requests can be delivered.
    ServerClosed,
    /// The stream's session is gone server-side — evicted idle past the
    /// configured TTL, evicted as a slow consumer (`result_capacity` of
    /// its results sat unread), or the server shut down — reported once
    /// all buffered results have been drained. (Tokens the engine accepted
    /// before shutdown are always served first; see
    /// `Server::shutdown`.)
    Evicted,
    /// A blocking `recv` exceeded the client's receive timeout.
    RecvTimeout,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::UnknownStream => write!(f, "unknown or closed stream id"),
            ServeError::Backpressure => write!(f, "shard request queue full (backpressure)"),
            ServeError::ServerClosed => write!(f, "server has shut down"),
            ServeError::Evicted => write!(
                f,
                "session gone server-side (evicted for idle TTL or too many \
                 unread results, or the server shut down)"
            ),
            ServeError::RecvTimeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_stable_and_source_chains() {
        use std::error::Error;
        let e = ServeError::from(EngineError::InvalidInput);
        assert!(e.to_string().contains("vocabulary"));
        assert!(e.source().is_some());
        assert!(ServeError::Backpressure.source().is_none());
        // `?` into a boxed error works for both error types.
        fn engine_level() -> Result<(), Box<dyn Error>> {
            Err(EngineError::UnknownSession)?
        }
        fn serve_level() -> Result<(), Box<dyn Error>> {
            Err(ServeError::Evicted)?
        }
        assert!(engine_level().is_err());
        assert!(serve_level().is_err());
    }
}
