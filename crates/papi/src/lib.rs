#![forbid(unsafe_code)]
//! # greenla-papi
//!
//! A PAPI-like performance/energy counter API over the simulated RAPL
//! layer, reproducing the architecture of the paper's Figure 1:
//!
//! * a **Portable Layer** with the low-level API ([`low::Papi`]: library and
//!   thread initialisation, event sets, named-event translation,
//!   start/stop/read/reset with PAPI's state machine and error codes);
//! * a **Machine Specific Layer** (the [`reader::EnergyReader`] trait plus
//!   the [`powercap`] component) that performs the actual counter access —
//!   in this workspace, reads of the simulated RAPL device.
//!
//! The monitoring framework, like the paper's Figure 2, drives the
//! low-level API directly; Figure 1's high-level API, a convenience wrapper
//! over the same calls, is not emulated.
//!
//! One deliberate deviation from the C API: because time in this workspace
//! is *virtual*, the operations that sample counters (`start`, `stop`,
//! `read`, `reset`) take the caller's current virtual time explicitly. The
//! paper's own wrappers (`PAPI_start_AND_time`) bundle time with counter
//! access in the same way.

pub mod error;
pub mod events;
pub mod low;
pub mod powercap;
pub mod reader;
pub mod timer;

pub use error::PapiError;
pub use events::{EventCode, EventKind};
pub use low::{EventSetId, Papi, PAPI_VER_CURRENT};
pub use reader::EnergyReader;
