//! A served instance of a workload's world, and one closed-loop client
//! session driving it over loopback.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use loosedb_datagen::university;
use loosedb_engine::{DurableDatabase, SharedDatabase, SyncPolicy};
use loosedb_obs::Metrics;
use loosedb_serve::{Backend, Client, ClientError, RowsResult, ServeConfig, Server, WriteResult};
use loosedb_store::io::{RealIo, StorageIo};

use crate::stream::{Expect, Op, Workload};
use crate::world::Model;

/// The flush policy of the journal on both sides of a comparison: the WAL
/// is never fsynced while the workload runs, only at checkpoints, so
/// timed latencies are set by the program and not by the disk under it.
pub const POLICY: SyncPolicy = SyncPolicy::OnCheckpoint;

/// A server fronting one world, with its client session.
pub struct Instance {
    pub client: Client,
    server: Server,
    /// The database sessions read: the shared database, or the durable
    /// backend's serving mirror.
    pub serving: Arc<SharedDatabase>,
    /// The durable backend's journal registry.
    pub journal_metrics: Option<Arc<Metrics>>,
    /// The durable backend's WAL directory.
    wal_dir: Option<PathBuf>,
}

/// Builds the workload's world from `seed`, loads it into its backend,
/// starts a server on a free loopback port and connects one session.
/// Returns the model of the generated base facts with the instance.
pub fn setup(
    workload: Workload,
    seed: u64,
    wal_dir: &Path,
) -> Result<(Instance, Model), Box<dyn std::error::Error>> {
    let db = university(&workload.world(seed));
    let model = Model::of(&db);
    let (backend, journal_metrics, wal_dir) = match workload {
        Workload::BrowseHot | Workload::QueryCold => {
            (Backend::shared(Arc::new(SharedDatabase::new(db)?)), None, None)
        }
        Workload::EditDurable => {
            if wal_dir.exists() {
                std::fs::remove_dir_all(wal_dir)?;
            }
            let io: Box<dyn StorageIo> = Box::new(RealIo);
            let journal = DurableDatabase::create_with(io, wal_dir, db, 1, POLICY)?;
            let metrics = Arc::clone(journal.metrics());
            let backend = Backend::durable(journal).map_err(|e| e.to_string())?;
            (backend, Some(metrics), Some(wal_dir.to_path_buf()))
        }
    };
    let serving = match &backend {
        Backend::Shared(db) => Arc::clone(db),
        Backend::Durable { serving, .. } => Arc::clone(serving),
        Backend::Sharded(_) => unreachable!("no workload is sharded"),
    };
    let server = Server::start(backend, ServeConfig::default())?;
    let client = Client::connect(server.local_addr(), "bench")?;
    Ok((Instance { client, server, serving, journal_metrics, wal_dir }, model))
}

impl Instance {
    /// Ends the session and shuts the server down gracefully (a durable
    /// backend checkpoints its journal). Returns the WAL directory.
    pub fn shutdown(mut self) -> Option<PathBuf> {
        let _ = self.client.bye();
        self.server.shutdown();
        self.wal_dir
    }
}

/// A served answer.
pub enum Outcome {
    Rows(RowsResult),
    Text(String),
    Done(WriteResult),
}

/// Sends one operation and waits for its answer.
pub fn call(client: &mut Client, op: &Op) -> Result<Outcome, ClientError> {
    Ok(match op {
        Op::Query(text) => Outcome::Rows(client.query(text)?),
        Op::Nav(s, r, t) => Outcome::Text(client.navigate(s, r, t)?),
        Op::Probe(text) => Outcome::Text(client.probe(text)?),
        Op::Publish { checked, facts } => Outcome::Done(client.publish(*checked, facts.clone())?),
        Op::Retract((s, r, t)) => Outcome::Done(client.retract(s, r, t)?),
    })
}

/// Checks an answer against its expectation and, for an acknowledged
/// write, applies the write to the model.
pub fn verify(
    op: &Op,
    expect: &Expect,
    outcome: &Outcome,
    model: &mut Model,
) -> Result<(), String> {
    let ok = match (expect, outcome) {
        (Expect::Any, _) => true,
        (Expect::Rows(n), Outcome::Rows(rows)) => rows.rows.len() == *n,
        (Expect::HasRow(row), Outcome::Rows(rows)) => rows.rows.contains(row),
        (Expect::Text(needle), Outcome::Text(text)) => text.contains(needle.as_str()),
        (Expect::Applied(n), Outcome::Done(done)) => done.applied == *n,
        _ => false,
    };
    if let Outcome::Done(_) = outcome {
        match op {
            Op::Publish { facts, .. } => model.publish(facts),
            Op::Retract(fact) => model.retract(fact),
            _ => {}
        }
    }
    if ok {
        Ok(())
    } else {
        let got = match outcome {
            Outcome::Rows(rows) => format!("{} row(s)", rows.rows.len()),
            Outcome::Text(text) => format!("{} byte(s) of text", text.len()),
            Outcome::Done(done) => format!("{} applied", done.applied),
        };
        Err(format!("{op:?}: expected {expect:?}, got {got}"))
    }
}
