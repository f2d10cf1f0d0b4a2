//! Robustness of the pull-based runner against a failing checkpoint
//! store: the error comes back as a value (no panic, no hang), what was
//! persisted before it resumes to the uninterrupted bytes, and every
//! manifest ever written is backed by shards written before it.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;

use autoplat_campaign::{
    fnv1a64, run, run_checkpointed, shard_file, validate_manifest_json, CampaignConfig,
    CampaignError, CampaignSpec, CampaignStatus, CheckpointStore, MemStore, MANIFEST_FILE,
};

/// Passes writes through to a [`MemStore`] and logs them in order, but
/// fails the `fail_at`-th write (1-based; 0 never fails).
struct FailingStore {
    inner: MemStore,
    fail_at: usize,
    writes: usize,
    log: Vec<(String, String)>,
}

impl FailingStore {
    fn new(fail_at: usize) -> FailingStore {
        FailingStore {
            inner: MemStore::new(),
            fail_at,
            writes: 0,
            log: Vec::new(),
        }
    }
}

impl CheckpointStore for FailingStore {
    fn read(&self, name: &str) -> Result<Option<String>, CampaignError> {
        self.inner.read(name)
    }

    fn write(&mut self, name: &str, contents: &str) -> Result<(), CampaignError> {
        self.writes += 1;
        if self.writes == self.fail_at {
            return Err(injected(self.fail_at));
        }
        self.log.push((name.to_string(), contents.to_string()));
        self.inner.write(name, contents)
    }

    fn location(&self) -> String {
        "<failing>".into()
    }
}

fn injected(k: usize) -> CampaignError {
    CampaignError::Io(format!("injected failure on write {k}"))
}

/// Five one-point chunks: each chunk is one shard write plus one
/// manifest write, so an uninterrupted run makes ten writes.
fn cfg(workers: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(CampaignSpec::smoke(11));
    cfg.points = Some(5);
    cfg.chunk_points = 1;
    cfg.workers = workers;
    cfg
}

const WRITES: usize = 10;

/// Runs a fresh checkpointed campaign on its own thread and waits for
/// it with a deadline, so a runner that hangs fails the test instead of
/// stalling it. The run returning at all means its thread scope ended,
/// which joins every worker.
fn run_with_deadline(
    cfg: CampaignConfig,
    store: FailingStore,
) -> (Result<CampaignStatus, CampaignError>, FailingStore) {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let mut store = store;
        let result = run_checkpointed(&cfg, &mut store, false, None);
        tx.send((result, store)).expect("test thread waits");
    });
    let out = rx
        .recv_timeout(Duration::from_secs(300))
        .expect("runner returned within the deadline");
    runner.join().expect("runner thread did not panic");
    out
}

/// Checks the write log: every manifest parses, lists strictly
/// ascending chunks, and each chunk's shard was written earlier with
/// exactly the content hash the manifest records.
fn assert_manifests_backed_by_earlier_shards(log: &[(String, String)]) {
    let mut shards: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, contents) in log {
        if name != MANIFEST_FILE {
            shards.insert(name, fnv1a64(contents.as_bytes()));
            continue;
        }
        let m = validate_manifest_json(contents).expect("every written manifest parses");
        assert!(
            m.chunks.windows(2).all(|w| w[0].chunk < w[1].chunk),
            "manifest chunks must be sorted: {:?}",
            m.chunks
        );
        for rec in &m.chunks {
            let file = shard_file(rec.chunk);
            assert_eq!(
                shards.get(file.as_str()),
                Some(&rec.hash),
                "chunk {} listed before its shard was written",
                rec.chunk
            );
        }
    }
}

#[test]
fn store_error_is_returned_without_panic_or_hang() {
    for workers in 1..=3 {
        for k in 1..=WRITES {
            let (result, store) = run_with_deadline(cfg(workers), FailingStore::new(k));
            assert_eq!(
                result.err(),
                Some(injected(k)),
                "workers {workers}, failing write {k}"
            );
            assert_eq!(store.writes, k, "no write after the failed one");
        }
    }
}

#[test]
fn resume_after_store_error_is_byte_identical() {
    let uninterrupted = run(&cfg(1)).metrics.to_json();
    for workers in 1..=3 {
        for k in 1..=WRITES {
            let (result, store) = run_with_deadline(cfg(workers), FailingStore::new(k));
            assert!(result.is_err());
            let mut store = store.inner;
            let resume = store.read(MANIFEST_FILE).expect("memory read").is_some();
            let status = run_checkpointed(&cfg(workers), &mut store, resume, None)
                .expect("resume from what was persisted");
            let CampaignStatus::Complete(report) = status else {
                panic!("resumed run must complete");
            };
            assert_eq!(
                report.metrics.to_json(),
                uninterrupted,
                "workers {workers}, failing write {k}"
            );
        }
    }
}

#[test]
fn every_manifest_lists_sorted_chunks_backed_by_earlier_shards() {
    for workers in 1..=3 {
        let (result, store) = run_with_deadline(cfg(workers), FailingStore::new(0));
        assert!(matches!(result, Ok(CampaignStatus::Complete(_))));
        assert_eq!(store.log.len(), WRITES);
        assert_manifests_backed_by_earlier_shards(&store.log);
        for k in 1..=WRITES {
            let (_, store) = run_with_deadline(cfg(workers), FailingStore::new(k));
            assert_manifests_backed_by_earlier_shards(&store.log);
        }
    }
}
