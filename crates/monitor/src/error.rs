//! Monitoring failures.

use greenla_papi::PapiError;
use std::fmt;

/// Why monitoring could not be set up or completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorError {
    /// PAPI failed on the monitoring rank, with this C return code.
    Papi(i32),
    /// Result file could not be written.
    Io(String),
}

impl From<PapiError> for MonitorError {
    fn from(e: PapiError) -> Self {
        MonitorError::Papi(e.code())
    }
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::Papi(code) => match PapiError::from_code(*code) {
                Some(e) => write!(f, "PAPI failure on monitoring rank: {e}"),
                None => write!(f, "PAPI failure on monitoring rank: code {code}"),
            },
            MonitorError::Io(m) => write!(f, "monitor file i/o: {m}"),
        }
    }
}

impl std::error::Error for MonitorError {}
