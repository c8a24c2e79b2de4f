//! The facade's unified [`Error`] type and its conversions from the lower crates' errors.

use graphflow_graph::loader::LoadError;
use graphflow_graph::PropError;
use graphflow_storage::StorageError;

/// The unified error type of the facade, covering parsing, planning and execution.
///
/// Underlying causes are reachable through [`std::error::Error::source`]:
///
/// ```
/// use std::error::Error as _;
/// use graphflow_core::{Error, GraphflowDB};
/// use graphflow_graph::GraphBuilder;
/// let db = GraphflowDB::from_graph(GraphBuilder::new().build());
/// let err = db.count("(a)->").unwrap_err();
/// assert!(matches!(err, Error::Parse(_)));
/// assert!(err.source().is_some()); // the underlying ParseError, with byte position
/// ```
#[derive(Debug)]
pub enum Error {
    /// The query pattern could not be parsed; the underlying
    /// [`ParseError`](graphflow_query::ParseError) (with its byte position) is the
    /// [`source`](std::error::Error::source).
    Parse(graphflow_query::ParseError),
    /// No plan exists for the query in the configured plan space.
    NoPlan,
    /// The query cannot be executed the way it was asked to be (for example
    /// [`PreparedQuery::stream_rows`](crate::PreparedQuery::stream_rows) on a `RETURN` clause
    /// that must buffer its rows).
    InvalidOptions(String),
    /// A property write failed (type mismatch against an existing column, or the addressed
    /// vertex/edge does not exist); the underlying [`PropError`] is the
    /// [`source`](std::error::Error::source).
    Property(PropError),
    /// The query was cancelled through its [`CancellationToken`](crate::CancellationToken)
    /// (attached with [`QueryOptions::cancel_token`](crate::QueryOptions::cancel_token) or
    /// created by [`PreparedQuery::execute_handle`](crate::PreparedQuery::execute_handle))
    /// before it completed. Materialising entry points discard their partial results; a
    /// sink-streaming run ([`run_with_sink`](crate::GraphflowDB::run_with_sink)) has already
    /// delivered the matches found before the cancellation to the caller's sink.
    Cancelled,
    /// The query ran past its wall-clock deadline
    /// ([`QueryOptions::timeout`](crate::QueryOptions::timeout)) and was
    /// stopped. Materialising entry points discard their partial results; a sink-streaming
    /// run has already delivered the matches found before the deadline to the caller's sink.
    Timeout,
    /// The durability subsystem failed: a write-ahead-log append, snapshot write, or recovery
    /// read hit an I/O error or found a corrupt/incompatible file. The underlying
    /// [`StorageError`] (which itself chains down to the OS error where one exists) is the
    /// [`source`](std::error::Error::source).
    Storage(StorageError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // The underlying ParseError (with position and reason) is exposed through
            // `source()`, so chain-aware reporters print it exactly once; Display keeps to
            // the high-level fact per the API guidelines.
            Error::Parse(_) => write!(f, "failed to parse query pattern"),
            Error::NoPlan => write!(
                f,
                "no plan found for the query in the configured plan space"
            ),
            Error::InvalidOptions(msg) => write!(f, "invalid query options: {msg}"),
            Error::Property(_) => write!(f, "property write rejected"),
            Error::Cancelled => write!(f, "query cancelled"),
            Error::Timeout => write!(f, "query timed out"),
            Error::Storage(_) => write!(f, "durable storage operation failed"),
        }
    }
}

impl Error {
    /// A stable machine-readable error code, used by the HTTP wire protocol (and anything
    /// else that must dispatch on the error without string-matching `Display` output).
    pub fn code(&self) -> &'static str {
        match self {
            Error::Parse(_) => "parse_error",
            Error::NoPlan => "no_plan",
            Error::InvalidOptions(_) => "invalid_options",
            Error::Property(_) => "property_error",
            Error::Cancelled => "cancelled",
            Error::Timeout => "timeout",
            Error::Storage(_) => "storage_error",
        }
    }

    /// Serialize the error as a structured JSON object:
    /// `{"error": {"code": "...", "message": "...", "chain": ["...", ...]}}`, where `chain`
    /// walks the [`source`](std::error::Error::source) links — so a parse failure carries the
    /// parser's actionable byte-position text, not just the facade's one-line summary.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"error\":{\"code\":");
        out.push_str(&crate::json::quote(self.code()));
        out.push_str(",\"message\":");
        out.push_str(&crate::json::quote(&self.to_string()));
        out.push_str(",\"chain\":[");
        let mut source = std::error::Error::source(self);
        let mut first = true;
        while let Some(cause) = source {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&crate::json::quote(&cause.to_string()));
            source = cause.source();
        }
        out.push_str("]}}");
        out
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Property(e) => Some(e),
            Error::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<graphflow_query::ParseError> for Error {
    fn from(e: graphflow_query::ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<PropError> for Error {
    fn from(e: PropError) -> Self {
        Error::Property(e)
    }
}

impl From<StorageError> for Error {
    fn from(e: StorageError) -> Self {
        Error::Storage(e)
    }
}

impl From<LoadError> for Error {
    fn from(e: LoadError) -> Self {
        Error::Storage(StorageError::Load(e))
    }
}
