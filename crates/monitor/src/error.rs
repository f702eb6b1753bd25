//! Monitoring failures.

use greenla_rapl::MsrError;
use std::fmt;

/// Why monitoring could not be set up or completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorError {
    /// An energy-counter read failed on the monitoring rank.
    Counter(MsrError),
    /// Result file could not be written.
    Io(String),
}

impl From<MsrError> for MonitorError {
    fn from(e: MsrError) -> Self {
        MonitorError::Counter(e)
    }
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::Counter(e) => write!(f, "counter read failed on monitoring rank: {e}"),
            MonitorError::Io(m) => write!(f, "monitor file i/o: {m}"),
        }
    }
}

impl std::error::Error for MonitorError {}
