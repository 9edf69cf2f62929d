//! One set-up of the program under test: a durable database file, the
//! matcher reopened over it with the workload's pool, and — on served
//! workloads — an in-process server with its client connections.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fm_core::{Config, FuzzyMatcher};
use fm_datagen::CUSTOMER_COLUMNS;
use fm_server::{Client, Server, ServerConfig, ServerReport};
use fm_store::Database;

use crate::data::Data;
use crate::spec::{Kind, Workload, BUILD_POOL_FRAMES, MAX_CLIENTS};
use crate::Res;

/// Catalog prefix of the matcher's objects (`bench.ref`, `bench.eti`, …).
pub const PREFIX: &str = "bench";

pub struct Stage {
    pub dir: PathBuf,
    pub db: Arc<Database>,
    pub matcher: Arc<FuzzyMatcher>,
    server: Option<Server>,
    /// One connection per closed-loop client; empty on direct workloads.
    pub clients: Vec<Client>,
}

pub struct BuildTimes {
    pub build_s: f64,
    pub reopen_ms: f64,
}

/// Client connections = server workers = replicas.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_CLIENTS))
}

pub fn db_path(dir: &Path) -> PathBuf {
    dir.join("bench.db")
}

/// Bytes on disk: the database file plus its write-ahead log.
pub fn disk_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for name in ["bench.db", "bench.db.wal"] {
        match std::fs::metadata(dir.join(name)) {
            Ok(meta) => total += meta.len(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("stat {name}: {e}")),
        }
    }
    Ok(total)
}

impl Stage {
    /// Build the matcher into a fresh durable file under `dir`, flush,
    /// drop everything, then [`Stage::reopen`].
    pub fn build(workload: &Workload, data: &Data, dir: &Path) -> Res<(Stage, BuildTimes)> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let build_s = {
            let db = Database::open_file_durable(&db_path(dir), BUILD_POOL_FRAMES)
                .map_err(|e| format!("create database: {e}"))?;
            let started = Instant::now();
            FuzzyMatcher::build(
                &db,
                PREFIX,
                data.reference.iter().cloned(),
                Config::default().with_columns(&CUSTOMER_COLUMNS),
            )
            .map_err(|e| format!("build: {e}"))?;
            let build_s = started.elapsed().as_secs_f64();
            db.flush().map_err(|e| format!("flush after build: {e}"))?;
            build_s
        };
        let started = Instant::now();
        let stage = Stage::reopen(workload, dir)?;
        let reopen_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok((stage, BuildTimes { build_s, reopen_ms }))
    }

    /// Open the file under `dir` with the workload's pool and start the
    /// serving layer if the workload has one.
    pub fn reopen(workload: &Workload, dir: &Path) -> Res<Stage> {
        let db = Arc::new(
            Database::open_file_durable(&db_path(dir), workload.pool_frames)
                .map_err(|e| format!("reopen database: {e}"))?,
        );
        let matcher =
            Arc::new(FuzzyMatcher::open(&db, PREFIX).map_err(|e| format!("open matcher: {e}"))?);
        let mut stage = Stage {
            dir: dir.to_path_buf(),
            db,
            matcher,
            server: None,
            clients: Vec::new(),
        };
        if workload.kind == Kind::Served {
            let n = parallelism();
            let config = ServerConfig {
                workers: n,
                replicas: n,
                telemetry_window_ms: 0,
                ..ServerConfig::default()
            };
            let server = Server::start(
                "127.0.0.1:0",
                Arc::clone(&stage.matcher),
                Arc::clone(&stage.db),
                config,
            )
            .map_err(|e| format!("start server: {e}"))?;
            let addr = server.local_addr().to_string();
            stage.server = Some(server);
            for _ in 0..n {
                stage
                    .clients
                    .push(Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?);
            }
        }
        Ok(stage)
    }

    /// Drain and join the server and close the database; the files stay.
    /// Returns the server's final report, if any.
    pub fn close(mut self) -> Option<ServerReport> {
        self.clients.clear();
        self.server.take().map(|server| {
            server.shutdown();
            server.wait()
        })
    }
}
