//! The traced run's per-layer numbers.
//!
//! The served pass of a traced run records its rounds. They are then
//! replayed against embedded copies of each layer, timing the calls into
//! their public functions:
//!
//! * reads against an embedded `SharedSession` over the served database
//!   (browse layer), with each answer encoded and decoded as a wire frame
//!   (serve layer);
//! * every distinct query text through `parse_frozen`, `plan_query` and
//!   `eval_planned_stats` on the current generation (query layer);
//! * the writes, in order, against a `DurableDatabase` holding its own
//!   copy of the world (journal layer), until a time budget is spent.
//!
//! Counts come from deltas of the served registries over the served pass.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use loosedb_browse::SharedSession;
use loosedb_datagen::university;
use loosedb_engine::DurableDatabase;
use loosedb_obs::{HistogramSnapshot, MetricsSnapshot};
use loosedb_query::{eval_planned_stats, parse_frozen, plan_query, EvalOptions};
use loosedb_serve::protocol::decode_response_frame;
use loosedb_serve::Response;
use loosedb_store::io::RealIo;
use loosedb_store::{EntityValue, Fact};

use crate::report::{median, ratio, us, Metric};
use crate::served::{Instance, POLICY};
use crate::stream::{Op, Step, Workload};
use crate::world::Triple;

/// Registry snapshots of a served instance: the serving database's and,
/// for a durable backend, the journal's.
pub struct Registries {
    serving: MetricsSnapshot,
    journal: Option<MetricsSnapshot>,
}

impl Registries {
    pub fn of(inst: &Instance) -> Registries {
        Registries {
            serving: inst.serving.metrics_snapshot(),
            journal: inst.journal_metrics.as_ref().map(|m| m.snapshot()),
        }
    }
}

fn hist_mean_us(after: &HistogramSnapshot, before: &HistogramSnapshot) -> f64 {
    ratio((after.sum - before.sum) as f64, (after.count - before.count) as f64) / 1e3
}

fn hit_ratio(hits: u64, misses: u64) -> f64 {
    ratio(hits as f64, (hits + misses) as f64)
}

/// Serve and browse layers: the rounds' reads, replayed on an embedded
/// session over the served database. `served_query_ns` are the served
/// query times of the same rounds.
pub fn serve_and_browse(
    inst: &Instance,
    rounds: &[Vec<Step>],
    served_query_ns: &[u64],
    before: &Registries,
    after: &Registries,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mut m =
        |name: &str, unit: &'static str, value: f64| out.push(Metric::new(name, unit, value));
    let mut session = SharedSession::new(Arc::clone(&inst.serving));
    let (mut first, mut render, mut hit, mut encode, mut decode, mut bytes, mut embedded) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut nav, mut probe, mut attempts) = (vec![], vec![], 0u64);
    for step in rounds.iter().flatten() {
        match &step.op {
            Op::Query(text) => {
                let t = Instant::now();
                let answer = session.query(text).map_err(|e| e.to_string())?;
                let q = t.elapsed();
                let t = Instant::now();
                let rows = session.render_answer(&answer);
                let r = t.elapsed();
                let response =
                    Response::Rows { epoch: session.epoch(), names: answer.names.clone(), rows };
                let t = Instant::now();
                let frame = response.encode();
                encode.push(us(t.elapsed()));
                let t = Instant::now();
                black_box(decode_response_frame(&frame).map_err(|e| e.to_string())?);
                decode.push(us(t.elapsed()));
                bytes.push(frame.len() as f64);
                let t = Instant::now();
                black_box(session.query(text).map_err(|e| e.to_string())?);
                hit.push(us(t.elapsed()));
                first.push(us(q));
                render.push(us(r));
                embedded.push(us(q + r));
            }
            Op::Nav(s, r, t) => {
                let start = Instant::now();
                let table = session.navigate_parts(s, r, t).map_err(|e| e.to_string())?;
                black_box(table.to_string());
                nav.push(us(start.elapsed()));
            }
            Op::Probe(text) => {
                let start = Instant::now();
                let report = session.probe(text).map_err(|e| e.to_string())?;
                black_box(session.render_probe(&report));
                probe.push(us(start.elapsed()));
                attempts += report.waves.iter().map(|w| w.attempts.len() as u64).sum::<u64>();
            }
            Op::Publish { .. } | Op::Retract(_) => {}
        }
    }
    let served_ns: Vec<f64> = served_query_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let served_p50 = median(&served_ns);
    let embedded_p50 = median(&embedded);
    let (encode_p50, decode_p50) = (median(&encode), median(&decode));
    m("serve.gap_us", "us", served_p50 - embedded_p50);
    m("serve.encode_us", "us", encode_p50);
    m("serve.decode_us", "us", decode_p50);
    m("serve.response_bytes", "B", median(&bytes));
    m("serve.stage_share", "ratio", ratio(embedded_p50 + encode_p50 + decode_p50, served_p50));
    m("browse.query_us", "us", median(&first));
    m("browse.render_us", "us", median(&render));
    m("browse.query_hit_us", "us", median(&hit));
    let (b, a) = (&before.serving.browse.query_cache, &after.serving.browse.query_cache);
    m("browse.answer_hit_ratio", "ratio", hit_ratio(a.hits - b.hits, a.misses - b.misses));
    m("browse.nav_us", "us", median(&nav));
    m("browse.probe_us", "us", median(&probe));
    m("browse.probe_attempts", "count", ratio(attempts as f64, probe.len() as f64));
    Ok(out)
}

/// Query layer: every distinct query text of the rounds once on the
/// current generation, each measurement weighted by how often the
/// stream sends the text.
pub fn query_layer(
    inst: &Instance,
    rounds: &[Vec<Step>],
    before: &Registries,
    after: &Registries,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mut m =
        |name: &str, unit: &'static str, value: f64| out.push(Metric::new(name, unit, value));
    let mut texts: BTreeMap<&str, usize> = BTreeMap::new();
    for step in rounds.iter().flatten() {
        if let Op::Query(text) = &step.op {
            *texts.entry(text.as_str()).or_default() += 1;
        }
    }
    let generation = inst.serving.snapshot();
    let counter = inst.serving.metrics().count_probes.clone();
    let opts = EvalOptions::default();
    let (mut parse, mut plan, mut eval) = (vec![], vec![], vec![]);
    let (mut probes, mut rows, mut partitions, mut n) = (0u64, 0u64, 0u64, 0u64);
    for (text, &weight) in &texts {
        let t = Instant::now();
        let query = parse_frozen(text, generation.interner()).map_err(|e| e.to_string())?;
        let parse_us = us(t.elapsed());
        let view = generation.view();
        let probes_before = counter.get();
        let t = Instant::now();
        let p = plan_query(&query, &view, &opts);
        let plan_us = us(t.elapsed());
        let t = Instant::now();
        let (answer, stats) =
            eval_planned_stats(&query, &view, opts, &p).map_err(|e| e.to_string())?;
        let eval_us = us(t.elapsed());
        let w = weight as u64;
        parse.extend(std::iter::repeat_n(parse_us, weight));
        plan.extend(std::iter::repeat_n(plan_us, weight));
        eval.extend(std::iter::repeat_n(eval_us, weight));
        probes += w * (counter.get() - probes_before);
        rows += w * answer.len() as u64;
        partitions += w * stats.partitions;
        n += w;
    }
    let n = n as f64;
    m("query.parse_us", "us", median(&parse));
    m("query.plan_us", "us", median(&plan));
    let (b, a) = (&before.serving.query.plan_cache, &after.serving.query.plan_cache);
    m("query.plan_hit_ratio", "ratio", hit_ratio(a.hits - b.hits, a.misses - b.misses));
    m("query.eval_us", "us", median(&eval));
    m("query.probes_per_query", "count", ratio(probes as f64, n));
    m("query.rows_per_query", "count", ratio(rows as f64, n));
    m("query.join_partitions", "count", ratio(partitions as f64, n));
    Ok(out)
}

/// Engine and store layers of the served backend, from its registries.
pub fn engine_and_store(
    rounds: &[Vec<Step>],
    before: &Registries,
    after: &Registries,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut m =
        |name: &str, unit: &'static str, value: f64| out.push(Metric::new(name, unit, value));
    let (b, a) = (&before.serving, &after.serving);
    m("engine.extend_us", "us", hist_mean_us(&a.closure.extend_ns, &b.closure.extend_ns));
    m("engine.publish_us", "us", hist_mean_us(&a.publish.publish_ns, &b.publish.publish_ns));
    m("engine.retract_us", "us", hist_mean_us(&a.closure.retract_ns, &b.closure.retract_ns));
    let mut recomputes = a.closure.computes - b.closure.computes;
    let (mut appends, mut wal_bytes, mut fsyncs) = (0, 0, 0);
    if let (Some(b), Some(a)) = (&before.journal, &after.journal) {
        recomputes += a.closure.computes - b.closure.computes;
        appends = a.wal.appends - b.wal.appends;
        wal_bytes = a.wal.append_bytes - b.wal.append_bytes;
        fsyncs = a.wal.fsyncs - b.wal.fsyncs;
    }
    m("engine.closure_recomputes", "count", recomputes as f64);
    m("engine.closure_facts", "count", a.closure.facts as f64);
    let writes = rounds
        .iter()
        .flatten()
        .filter(|s| matches!(s.op, Op::Publish { .. } | Op::Retract(_)))
        .count();
    m("store.wal_appends", "count", appends as f64);
    m("store.wal_bytes_per_op", "B", ratio(wal_bytes as f64, writes as f64));
    m("store.fsyncs", "count", fsyncs as f64);
    out
}

/// Journal layer: the rounds' writes, in order, applied to a journal in
/// `dir` holding a fresh copy of the world, each call timed, until
/// `budget` is spent.
pub fn journal(
    workload: Workload,
    seed: u64,
    rounds: &[Vec<Step>],
    dir: &Path,
    budget: Duration,
) -> Result<Vec<Metric>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| err(&e))?;
    }
    let db = university(&workload.world(seed));
    let mut journal =
        DurableDatabase::create_with(RealIo, dir, db, 1, POLICY).map_err(|e| err(&e))?;
    let (mut add, mut check, mut remove) = (vec![], vec![], vec![]);
    let started = Instant::now();
    for round in rounds {
        for step in round {
            match &step.op {
                Op::Publish { checked, facts } => {
                    let began = Instant::now();
                    for (s, r, t) in facts {
                        let (s, r, t) = (s.as_str(), r.as_str(), t.as_str());
                        if *checked {
                            journal.try_add(s, r, t).map_err(|e| err(&e))?;
                        } else {
                            journal.add(s, r, t).map_err(|e| err(&e))?;
                        }
                    }
                    let into = if *checked { &mut check } else { &mut add };
                    into.push(us(began.elapsed()));
                }
                Op::Retract(fact) => {
                    let f = resolve(&journal, fact).ok_or("retracted fact is unknown")?;
                    let began = Instant::now();
                    if !journal.remove(&f).map_err(|e| err(&e))? {
                        return Err(format!("{fact:?} was not in the journal"));
                    }
                    remove.push(us(began.elapsed()));
                }
                _ => {}
            }
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    drop(journal);
    std::fs::remove_dir_all(dir).map_err(|e| err(&e))?;
    let replayed = (add.len() + check.len() + remove.len()) as f64;
    Ok(vec![
        Metric::new("engine.journal_add_us", "us", median(&add)),
        Metric::new("engine.journal_checked_us", "us", median(&check)),
        Metric::new("engine.journal_remove_us", "us", median(&remove)),
        Metric::new("engine.journal_writes", "count", replayed),
    ])
}

fn resolve(journal: &DurableDatabase<RealIo>, (s, r, t): &Triple) -> Option<Fact> {
    let db = journal.database_ref();
    let id = |name: &str| db.lookup(&EntityValue::symbol(name));
    Some(Fact::new(id(s)?, id(r)?, id(t)?))
}
