//! Error type for the online-refit subsystem.

use std::fmt;

/// Anything that can go wrong while tailing, refitting, gating or swapping.
#[derive(Debug)]
pub enum RefitError {
    /// Journal tailing / checkpointing failed.
    Journal(pfr_journal::JournalError),
    /// The PFR re-fit itself failed.
    Core(pfr_core::PfrError),
    /// Graph construction over the window failed.
    Graph(pfr_graph::GraphError),
    /// Classifier distillation failed.
    Opt(pfr_opt::OptError),
    /// Dense linear algebra failed.
    Linalg(pfr_linalg::LinalgError),
    /// Materializing or scoring a bundle failed.
    Serve(pfr_serve::ServeError),
    /// Shipping the candidate through the routing tier failed: no
    /// replica accepted it.
    Router(pfr_router::RouterError),
    /// The sliding window cannot satisfy the request (too small, feature
    /// count mismatch, empty holdback, ...).
    Window(String),
    /// Invalid worker configuration.
    Config(String),
}

impl fmt::Display for RefitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefitError::Journal(e) => write!(f, "journal: {e}"),
            RefitError::Core(e) => write!(f, "pfr fit: {e}"),
            RefitError::Graph(e) => write!(f, "graph: {e}"),
            RefitError::Opt(e) => write!(f, "classifier: {e}"),
            RefitError::Linalg(e) => write!(f, "linalg: {e}"),
            RefitError::Serve(e) => write!(f, "serve: {e}"),
            RefitError::Router(e) => write!(f, "router: {e}"),
            RefitError::Window(msg) => write!(f, "window: {msg}"),
            RefitError::Config(msg) => write!(f, "config: {msg}"),
        }
    }
}

impl std::error::Error for RefitError {}

impl From<pfr_journal::JournalError> for RefitError {
    fn from(e: pfr_journal::JournalError) -> Self {
        RefitError::Journal(e)
    }
}

impl From<pfr_core::PfrError> for RefitError {
    fn from(e: pfr_core::PfrError) -> Self {
        RefitError::Core(e)
    }
}

impl From<pfr_graph::GraphError> for RefitError {
    fn from(e: pfr_graph::GraphError) -> Self {
        RefitError::Graph(e)
    }
}

impl From<pfr_opt::OptError> for RefitError {
    fn from(e: pfr_opt::OptError) -> Self {
        RefitError::Opt(e)
    }
}

impl From<pfr_linalg::LinalgError> for RefitError {
    fn from(e: pfr_linalg::LinalgError) -> Self {
        RefitError::Linalg(e)
    }
}

impl From<pfr_serve::ServeError> for RefitError {
    fn from(e: pfr_serve::ServeError) -> Self {
        RefitError::Serve(e)
    }
}

impl From<pfr_router::RouterError> for RefitError {
    fn from(e: pfr_router::RouterError) -> Self {
        RefitError::Router(e)
    }
}
