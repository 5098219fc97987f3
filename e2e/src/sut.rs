//! The system under test: one process holding the rich SDK, a durable
//! knowledge base and the HTTP gateway over both, built the way the
//! examples build it.

use crate::stream::base_csv;
use cogsdk::kb::{gateway_ingest_handler, gateway_query_handler, KbOptions, PersonalKnowledgeBase};
use cogsdk::obs::Telemetry;
use cogsdk::sdk::gateway::HttpGateway;
use cogsdk::sdk::{RichSdk, ThreadPool};
use cogsdk::sim::latency::LatencyModel;
use cogsdk::sim::{SimEnv, SimService};
use cogsdk::store::MemoryKv;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Stated in every result: the store's default policy.
pub const FLUSH_POLICY: &str =
    "one WAL append and one fsync per group commit (DurableOptions::default), RealFs";

/// The directory the benchmark may write in: beside the `release/`
/// directory the executable was built into, hence inside the checkout.
pub fn output_root() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    exe.parent()
        .and_then(Path::parent)
        .expect("the executable sits in <target>/<profile>/")
        .join("e2e")
}

/// A per-process scratch directory, removed on drop — on success and on
/// a failed run alike.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new() -> io::Result<Scratch> {
        let root = output_root().join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Copies the flat store directory `from` to a new directory `name`.
    pub fn copy_of(&self, from: &Path, name: &str) -> io::Result<PathBuf> {
        let to = self.dir(name);
        std::fs::create_dir_all(&to)?;
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
        Ok(to)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

pub fn open_kb(dir: &Path) -> Arc<PersonalKnowledgeBase> {
    Arc::new(
        PersonalKnowledgeBase::open_durable(dir, Arc::new(MemoryKv::new()), KbOptions::default())
            .expect("open the durable knowledge base"),
    )
}

/// Loads the base data into a fresh durable store under `dir`
/// (`ingest_csv` + `table_to_rdf`), snapshots it and closes it, so that
/// every later open is a real recovery.
pub fn build_base(dir: &Path, seed: u64, items: usize) {
    std::fs::create_dir_all(dir).expect("create the store directory");
    let kb = open_kb(dir);
    kb.ingest_csv("items", &base_csv(seed, items))
        .expect("base CSV loads");
    let triples = kb
        .table_to_rdf("items", "item", "kb")
        .expect("base table converts");
    assert_eq!(triples, 2 * items, "two triples per base item");
    kb.snapshot().expect("base snapshot");
}

/// The SDK half: `nlu-a` (lognormal 30 ms) and `nlu-b` (lognormal 90 ms)
/// in class `nlu`, no fault injection, default 4 096-entry cache.
pub fn build_sdk(seed: u64, telemetry: bool) -> (SimEnv, Arc<RichSdk>) {
    let env = SimEnv::with_seed(seed);
    let sdk = if telemetry {
        RichSdk::with_telemetry(&env, Telemetry::new())
    } else {
        RichSdk::new(&env)
    };
    for (name, median_ms) in [("nlu-a", 30.0), ("nlu-b", 90.0)] {
        sdk.register(
            SimService::builder(name, "nlu")
                .latency(LatencyModel::lognormal_ms(median_ms, 0.3))
                .build(&env),
        );
    }
    (env, Arc::new(sdk))
}

/// SDK + recovered KB + gateway with the query and ingest handlers
/// attached on a 2-thread pool.
pub struct Sut {
    pub env: SimEnv,
    pub sdk: Arc<RichSdk>,
    pub kb: Arc<PersonalKnowledgeBase>,
    pub pool: Arc<ThreadPool>,
    pub gateway: Arc<HttpGateway>,
    pub dir: PathBuf,
}

impl Sut {
    /// Opens the store under `dir` (a recovery) and wires the deployed
    /// configuration around it: telemetry on.
    pub fn open(dir: PathBuf, seed: u64) -> Sut {
        let (env, sdk) = build_sdk(seed, true);
        let kb = open_kb(&dir);
        let pool = Arc::new(ThreadPool::new(2));
        let mut gateway = HttpGateway::new(sdk.clone());
        gateway.set_query_handler(gateway_query_handler(kb.clone()));
        gateway.set_ingest_handler(gateway_ingest_handler(kb.clone(), pool.clone()));
        Sut {
            env,
            sdk,
            kb,
            pool,
            gateway: Arc::new(gateway),
            dir,
        }
    }

    /// Closes the store, reopens it and requires the recovered contents
    /// to equal the contents before the close. Returns the recovery time.
    pub fn close_and_verify_recovery(self) -> Result<f64, String> {
        let before = (self.kb.statement_count(), self.kb.contents_digest());
        let Sut {
            kb, gateway, dir, ..
        } = self;
        drop(gateway);
        drop(kb);
        let started = Instant::now();
        let reopened = open_kb(&dir);
        let recover_ms = started.elapsed().as_secs_f64() * 1e3;
        let after = (reopened.statement_count(), reopened.contents_digest());
        if before == after {
            Ok(recover_ms)
        } else {
            Err(format!(
                "recovered store differs: {} statements digest {:016x} before close, {} digest {:016x} after",
                before.0, before.1, after.0, after.1
            ))
        }
    }
}
