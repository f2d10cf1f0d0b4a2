//! The map-reduce coordinator: fan points across workers, reduce in
//! serial order, checkpoint after each chunk.
//!
//! Workers pull the next pending chunk from a shared counter, so a slow
//! chunk never leaves the other workers idle behind a barrier. Finished
//! chunks travel over a channel to the calling thread, which alone
//! touches the checkpoint store: it persists each chunk as it arrives
//! (shard first, then the sorted manifest), so a kill loses at most the
//! chunks in flight.
//!
//! Determinism contract: the final report depends only on the spec and
//! the executed point set — never on worker count, scheduling order or
//! where a run was interrupted. The *map* phase may compute chunks in
//! any order; the *reduce* phase sorts outcomes back into serial point
//! order before folding them into a [`MetricsRegistry`], whose JSON
//! export is already byte-deterministic. Checkpointed chunks round-trip
//! through shard files exactly, so a resumed reduction folds the same
//! bits as an uninterrupted one.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use autoplat_conformance::Oracle;
use autoplat_sim::MetricsRegistry;

use crate::checkpoint::{
    fnv1a64, shard_file, shard_to_json, validate_manifest_json, validate_shard_json, CampaignError,
    CheckpointStore, ChunkRecord, Manifest, MANIFEST_FILE,
};
use crate::point::{run_point, PointOutcome};
use crate::spec::CampaignSpec;

/// How to run a campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The grid to sweep.
    pub spec: CampaignSpec,
    /// Optional truncation: run only the first `points` of the grid.
    pub points: Option<u64>,
    /// Points per checkpoint chunk (also the unit of work handed to a
    /// worker). Clamped to at least 1.
    pub chunk_points: u64,
    /// Worker threads pulling chunks. Clamped to at least 1.
    pub workers: usize,
    /// The conformance oracle each point's scenario is checked against.
    pub oracle: Oracle,
}

impl CampaignConfig {
    /// Defaults: full grid, chunks of 8, one worker.
    pub fn new(spec: CampaignSpec) -> CampaignConfig {
        CampaignConfig {
            spec,
            points: None,
            chunk_points: 8,
            workers: 1,
            oracle: Oracle::default(),
        }
    }

    /// Points this run will execute (grid size, possibly truncated).
    pub fn total_points(&self) -> u64 {
        match self.points {
            Some(p) => p.min(self.spec.len()),
            None => self.spec.len(),
        }
    }

    fn chunk_points(&self) -> u64 {
        self.chunk_points.max(1)
    }

    /// Chunks this run is divided into.
    pub fn total_chunks(&self) -> u64 {
        self.total_points().div_ceil(self.chunk_points())
    }

    fn chunk_range(&self, chunk: u64) -> (u64, u64) {
        let start = chunk * self.chunk_points();
        (
            start,
            (start + self.chunk_points()).min(self.total_points()),
        )
    }
}

/// A completed campaign: the reduced, export-ready registry.
#[derive(Debug)]
pub struct CampaignReport {
    /// The reduced metrics (counters, histograms and derived
    /// distribution gauges), ready for `autoplat.metrics.v1` export.
    pub metrics: MetricsRegistry,
}

/// What a checkpointed run ended as.
#[derive(Debug)]
pub enum CampaignStatus {
    /// Every chunk ran; the reduction is final.
    Complete(Box<CampaignReport>),
    /// The run stopped at a chunk limit; resume to continue.
    Paused {
        /// Chunks recorded in the manifest so far.
        completed_chunks: u64,
        /// Chunks the full run needs.
        total_chunks: u64,
    },
}

/// Merges per-chunk outcome lists into one list in serial point order.
/// This is the shard-merge the algebra tests pin: because every point
/// index is unique, concatenation followed by a sort by index is
/// associative and commutative, so any chunking or permutation of the
/// same outcomes merges to the same sequence.
pub fn merge_outcomes(chunks: impl IntoIterator<Item = Vec<PointOutcome>>) -> Vec<PointOutcome> {
    let mut all: Vec<PointOutcome> = chunks.into_iter().flatten().collect();
    all.sort_by_key(|o| o.index);
    all
}

/// Folds outcomes (sorted into serial point order first) into the final
/// registry and derives the campaign's distribution gauges.
pub fn reduce(outcomes: Vec<PointOutcome>) -> MetricsRegistry {
    let outcomes = merge_outcomes([outcomes]);
    let mut reg = MetricsRegistry::new();
    // Present even for an empty campaign, so exports always carry the
    // point count.
    reg.counter_add("campaign.points", 0);
    for o in &outcomes {
        for (name, v) in &o.counters {
            reg.counter_add(name.clone(), *v);
        }
        for (name, v) in &o.observations {
            reg.observe(name.clone(), *v);
        }
    }
    reg.gauge_set("campaign.total_points", outcomes.len() as f64);
    let slowdown = reg
        .histogram("campaign.slowdown")
        .map(|h| (h.min().unwrap_or(1.0), h.max().unwrap_or(1.0)));
    if let Some((min, max)) = slowdown {
        reg.gauge_set("campaign.interference.min_slowdown", min);
        reg.gauge_set("campaign.interference.max_slowdown", max);
        reg.gauge_set(
            "campaign.interference.variation_ratio",
            if min > 0.0 { max / min } else { 0.0 },
        );
    }
    let unthrottled = reg
        .histogram("campaign.slowdown.unthrottled")
        .map(|h| (h.min().unwrap_or(1.0), h.max().unwrap_or(1.0)));
    if let Some((min, max)) = unthrottled {
        reg.gauge_set(
            "campaign.interference.unthrottled_variation_ratio",
            if min > 0.0 { max / min } else { 0.0 },
        );
    }
    let tightness = reg
        .histogram("campaign.wcd_tightness")
        .map(|h| (h.p50(), h.p95(), h.p99()));
    if let Some((p50, p95, p99)) = tightness {
        reg.gauge_set("campaign.wcd_tightness.p50", p50.unwrap_or(0.0));
        reg.gauge_set("campaign.wcd_tightness.p95", p95.unwrap_or(0.0));
        reg.gauge_set("campaign.wcd_tightness.p99", p99.unwrap_or(0.0));
    }
    reg
}

fn run_chunk(cfg: &CampaignConfig, chunk: u64) -> Vec<PointOutcome> {
    let (start, end) = cfg.chunk_range(chunk);
    (start..end)
        .map(|i| run_point(&cfg.oracle, &cfg.spec.point(i)))
        .collect()
}

/// Writes one finished chunk's shard, then the manifest that records
/// it, so every manifest on disk lists only chunks whose shards were
/// written before it.
fn persist_chunk(
    cfg: &CampaignConfig,
    store: &mut dyn CheckpointStore,
    manifest: &mut Manifest,
    chunk: u64,
    outs: &[PointOutcome],
) -> Result<(), CampaignError> {
    let (start, end) = cfg.chunk_range(chunk);
    let mut rec = ChunkRecord {
        chunk,
        start,
        end,
        hash: 0,
    };
    let json = shard_to_json(&rec, outs);
    rec.hash = fnv1a64(json.as_bytes());
    store.write(&shard_file(chunk), &json)?;
    manifest.chunks.push(rec);
    manifest.chunks.sort_by_key(|c| c.chunk);
    store.write(MANIFEST_FILE, &manifest.to_json())
}

/// Runs the whole campaign in memory (no resumable state on disk) and
/// returns the reduced report. Internally identical to a checkpointed
/// run against an in-memory store, so both paths serialize shards —
/// the byte-exactness of the round trip is exercised on every run,
/// not only on resumed ones.
pub fn run(cfg: &CampaignConfig) -> CampaignReport {
    let mut store = crate::checkpoint::MemStore::new();
    match run_checkpointed(cfg, &mut store, false, None) {
        Ok(CampaignStatus::Complete(report)) => *report,
        Ok(CampaignStatus::Paused { .. }) => {
            unreachable!("unlimited run cannot pause")
        }
        Err(e) => unreachable!("in-memory store cannot fail: {e}"),
    }
}

/// Runs (or resumes) a campaign against a checkpoint store.
///
/// * Fresh run (`resume == false`): fails with
///   [`CampaignError::CheckpointExists`] if the store already holds a
///   manifest, so stale state is never silently mixed in.
/// * Resume (`resume == true`): validates the manifest (schema, spec
///   fingerprint, sharding shape) and every recorded shard (content
///   hash, schema, point range) before running only the missing chunks.
/// * `chunk_limit` stops the run after that many *new* chunks — the
///   hook the kill-and-resume tests (and the `--kill-after-chunks`
///   bench flag) use to interrupt a campaign at a precise point.
///
/// # Errors
///
/// Any [`CampaignError`] from checkpoint validation or I/O.
pub fn run_checkpointed(
    cfg: &CampaignConfig,
    store: &mut dyn CheckpointStore,
    resume: bool,
    chunk_limit: Option<u64>,
) -> Result<CampaignStatus, CampaignError> {
    let total_points = cfg.total_points();
    let chunk_points = cfg.chunk_points();
    let total_chunks = cfg.total_chunks();
    let fingerprint = cfg.spec.fingerprint();

    let mut outcomes: Vec<PointOutcome> = Vec::new();
    let mut manifest = match store.read(MANIFEST_FILE)? {
        Some(text) => {
            if !resume {
                return Err(CampaignError::CheckpointExists {
                    path: store.location(),
                });
            }
            let m = validate_manifest_json(&text)?;
            if m.spec_fingerprint != fingerprint {
                return Err(CampaignError::SpecMismatch {
                    expected: format!("0x{fingerprint:016x}"),
                    found: format!("0x{:016x}", m.spec_fingerprint),
                });
            }
            if m.total_points != total_points || m.chunk_points != chunk_points {
                return Err(CampaignError::ShapeMismatch {
                    detail: format!(
                        "manifest has {} points in chunks of {}, this run wants {} in chunks of {}",
                        m.total_points, m.chunk_points, total_points, chunk_points
                    ),
                });
            }
            for rec in &m.chunks {
                let file = shard_file(rec.chunk);
                let text = store.read(&file)?.ok_or(CampaignError::ShardMissing {
                    chunk: rec.chunk,
                    file: file.clone(),
                })?;
                let found = fnv1a64(text.as_bytes());
                if found != rec.hash {
                    return Err(CampaignError::ShardHashMismatch {
                        chunk: rec.chunk,
                        expected: format!("0x{:016x}", rec.hash),
                        found: format!("0x{found:016x}"),
                    });
                }
                outcomes.extend(validate_shard_json(&text, rec)?);
            }
            m
        }
        None => {
            if resume {
                return Err(CampaignError::NothingToResume {
                    path: store.location(),
                });
            }
            Manifest {
                spec_fingerprint: fingerprint,
                total_points,
                chunk_points,
                chunks: Vec::new(),
            }
        }
    };

    let done: BTreeSet<u64> = manifest.chunks.iter().map(|c| c.chunk).collect();
    let mut pending: Vec<u64> = (0..total_chunks).filter(|c| !done.contains(c)).collect();
    if let Some(limit) = chunk_limit {
        pending.truncate(limit as usize);
    }

    // Map: each worker pulls the next pending chunk until none is left;
    // chunks finish in any order. Persist: this thread writes each
    // finished chunk's shard, then the manifest, as it arrives. A store
    // error moves `next` past the end, so workers stop pulling, and is
    // returned once the scope has joined them. `Relaxed` suffices: the
    // counter only hands out indices into the immutable `pending`, and
    // chunk results travel over the channel.
    let next = AtomicUsize::new(0);
    let workers = cfg.workers.max(1).min(pending.len());
    let persisted = std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(u64, Vec<PointOutcome>)>();
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, pending) = (&next, &pending);
            s.spawn(move || {
                while let Some(&chunk) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                    if tx.send((chunk, run_chunk(cfg, chunk))).is_err() {
                        break;
                    }
                }
            });
        }
        // Only the workers hold senders now, so the receive loop ends
        // when the last of them finishes.
        drop(tx);
        for (chunk, outs) in rx {
            if let Err(e) = persist_chunk(cfg, store, &mut manifest, chunk, &outs) {
                next.store(pending.len(), Ordering::Relaxed);
                return Err(e);
            }
            outcomes.extend(outs);
        }
        Ok(())
    });
    persisted?;

    let completed_chunks = manifest.chunks.len() as u64;
    if completed_chunks == total_chunks {
        Ok(CampaignStatus::Complete(Box::new(CampaignReport {
            metrics: reduce(outcomes),
        })))
    } else {
        Ok(CampaignStatus::Paused {
            completed_chunks,
            total_chunks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MemStore;

    fn small_cfg(workers: usize) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(CampaignSpec::smoke(3));
        cfg.points = Some(6);
        cfg.chunk_points = 2;
        cfg.workers = workers;
        cfg
    }

    #[test]
    fn worker_count_does_not_change_the_bytes() {
        let a = run(&small_cfg(1)).metrics.to_json();
        let b = run(&small_cfg(3)).metrics.to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn fresh_run_refuses_an_existing_checkpoint() {
        let cfg = small_cfg(2);
        let mut store = MemStore::new();
        let status = run_checkpointed(&cfg, &mut store, false, Some(1)).unwrap();
        assert!(matches!(status, CampaignStatus::Paused { .. }));
        let err = run_checkpointed(&cfg, &mut store, false, None).unwrap_err();
        assert!(matches!(err, CampaignError::CheckpointExists { .. }));
    }

    #[test]
    fn resume_without_a_checkpoint_is_an_error() {
        let cfg = small_cfg(1);
        let mut store = MemStore::new();
        let err = run_checkpointed(&cfg, &mut store, true, None).unwrap_err();
        assert!(matches!(err, CampaignError::NothingToResume { .. }));
    }

    #[test]
    fn resume_against_a_different_spec_is_rejected() {
        let cfg = small_cfg(1);
        let mut store = MemStore::new();
        run_checkpointed(&cfg, &mut store, false, Some(1)).unwrap();
        let mut other = cfg.clone();
        other.spec.seed ^= 1;
        let err = run_checkpointed(&other, &mut store, true, None).unwrap_err();
        assert!(matches!(err, CampaignError::SpecMismatch { .. }));
    }

    #[test]
    fn empty_grid_completes_with_an_empty_report() {
        let mut cfg = CampaignConfig::new(CampaignSpec::smoke(1));
        cfg.spec.arbiters.clear();
        let report = run(&cfg);
        assert_eq!(report.metrics.counter("campaign.points"), 0);
        assert_eq!(report.metrics.gauge("campaign.total_points"), Some(0.0));
    }
}
