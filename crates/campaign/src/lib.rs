//! `autoplat-campaign` — deterministic map-reduce sweeps over the
//! platform design space.
//!
//! The paper's headline quantitative claim is that *unmanaged*
//! interference varies execution time by up to ~8× across platform
//! configurations. One `CoSim` run measures one configuration; this
//! crate turns the claim into a measured **distribution** by sweeping a
//! seeded grid — NoC topology × task set × MemGuard budgets ×
//! control-plane fault plan, crossed with an arbiter axis that only
//! picks each point's conformance family (`CoSim` always uses the
//! in-order `DramChannel`) — and reducing every point's raw outcome into
//! a single byte-deterministic `autoplat.metrics.v1` report.
//!
//! The architecture is a small map-reduce:
//!
//! * [`CampaignSpec`] (the *grid*) enumerates points in a pinned
//!   row-major order and derives a splitmix seed per point, so the
//!   numbering is the corpus identity;
//! * [`point::run_point`] (the *map*) runs a point's loaded/solo
//!   co-simulation pair (slowdown) plus one conformance case of its
//!   arbiter's family (WCD-bound tightness), yielding a raw
//!   [`PointOutcome`];
//! * [`runner::reduce`] (the *reduce*) sorts outcomes into serial point
//!   order and folds them, deriving the distribution gauges
//!   (`campaign.interference.variation_ratio`,
//!   `campaign.wcd_tightness.p*`);
//! * [`checkpoint`] persists completed chunks with content hashes, so a
//!   killed campaign resumes to a **byte-identical** report.
//!
//! Workers only affect wall-clock time: the reduction never observes
//! scheduling order, and shard round trips are bit-exact.

pub mod checkpoint;
pub mod point;
pub mod runner;
pub mod spec;

pub use checkpoint::{
    fnv1a64, shard_file, validate_manifest_json, validate_shard_json, CampaignError,
    CheckpointStore, ChunkRecord, DirStore, Manifest, MemStore, MANIFEST_FILE, MANIFEST_SCHEMA,
    SHARD_SCHEMA,
};
pub use point::{run_point, PointOutcome};
pub use runner::{
    merge_outcomes, reduce, run, run_checkpointed, CampaignConfig, CampaignReport, CampaignStatus,
};
pub use spec::{ArbiterPolicy, CampaignPoint, CampaignSpec};
