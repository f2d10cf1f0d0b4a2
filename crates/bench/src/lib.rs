//! Experiment library for regenerating the paper's tables and figures.
//!
//! Every table/figure of the DATE'21 paper has a function here returning
//! structured rows; the `repro <name>` binary prints them. The other
//! binaries (`campaign`, `conformance`, `cosim`, `fleet`, `perf`,
//! `perf_check`, `schema_check`) share [`cli`] for their flags and
//! [`export`] for validated metrics files. See `EXPERIMENTS.md` at the
//! repository root for the paper-vs-measured record.

pub mod cli;
pub mod experiments;
pub mod export;
pub mod format;
pub mod perf;

pub use experiments::*;
pub use export::ExportOptions;
