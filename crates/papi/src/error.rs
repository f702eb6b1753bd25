//! PAPI error codes.
//!
//! Numeric values match the C library so diagnostics read identically.

use std::fmt;

/// PAPI return codes (negative values of the C API).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PapiError {
    /// `PAPI_EINVAL` (−1): invalid argument.
    InvalidArgument,
    /// `PAPI_ENOMEM` (−2): insufficient resources.
    NoMemory,
    /// `PAPI_ECMP` (−4): component error (e.g. RAPL read failed).
    Component,
    /// `PAPI_ENOEVNT` (−7): event does not exist.
    NoSuchEvent,
    /// `PAPI_ECNFLCT` (−8): event cannot be counted with others in the set.
    Conflict,
    /// `PAPI_ENOTRUN` (−9): event set is not running.
    NotRunning,
    /// `PAPI_EISRUN` (−10): event set is already running.
    IsRunning,
    /// `PAPI_ENOEVST` (−12): no such event set.
    NoSuchEventSet,
    /// `PAPI_ENOINIT` (−14): the library is not initialised.
    NotInitialized,
    /// `PAPI_EVERSION` (−25): version mismatch at `PAPI_library_init`.
    Version,
}

impl PapiError {
    /// The C API's numeric code.
    pub fn code(&self) -> i32 {
        match self {
            PapiError::InvalidArgument => -1,
            PapiError::NoMemory => -2,
            PapiError::Component => -4,
            PapiError::NoSuchEvent => -7,
            PapiError::Conflict => -8,
            PapiError::NotRunning => -9,
            PapiError::IsRunning => -10,
            PapiError::NoSuchEventSet => -12,
            PapiError::NotInitialized => -14,
            PapiError::Version => -25,
        }
    }

    /// The error with this C return code, for layers that carry only the
    /// number.
    pub fn from_code(code: i32) -> Option<PapiError> {
        use PapiError::*;
        [
            InvalidArgument,
            NoMemory,
            Component,
            NoSuchEvent,
            Conflict,
            NotRunning,
            IsRunning,
            NoSuchEventSet,
            NotInitialized,
            Version,
        ]
        .into_iter()
        .find(|e| e.code() == code)
    }

    /// `PAPI_strerror` equivalent.
    pub fn strerror(&self) -> &'static str {
        match self {
            PapiError::InvalidArgument => "Invalid argument",
            PapiError::NoMemory => "Insufficient memory",
            PapiError::Component => "Component error",
            PapiError::NoSuchEvent => "Event does not exist",
            PapiError::Conflict => "Event exists, but cannot be counted",
            PapiError::NotRunning => "EventSet is currently not running",
            PapiError::IsRunning => "EventSet is currently counting",
            PapiError::NoSuchEventSet => "No such EventSet available",
            PapiError::NotInitialized => "PAPI hasn't been initialized yet",
            PapiError::Version => "Version mismatch",
        }
    }
}

impl fmt::Display for PapiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PAPI error {}: {}", self.code(), self.strerror())
    }
}

impl std::error::Error for PapiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_c_library() {
        assert_eq!(PapiError::InvalidArgument.code(), -1);
        assert_eq!(PapiError::NoSuchEvent.code(), -7);
        assert_eq!(PapiError::NotRunning.code(), -9);
        assert_eq!(PapiError::IsRunning.code(), -10);
        assert_eq!(PapiError::NotInitialized.code(), -14);
        assert_eq!(PapiError::from_code(-7), Some(PapiError::NoSuchEvent));
        assert_eq!(PapiError::from_code(-3), None);
    }

    #[test]
    fn display_is_strerror_like() {
        let s = format!("{}", PapiError::NoSuchEvent);
        assert!(s.contains("-7") && s.contains("Event does not exist"));
    }
}
