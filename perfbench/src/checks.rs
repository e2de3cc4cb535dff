//! Correctness checks, all run outside the timed sections.
//!
//! Expected answers come from the benchmark's model of the base facts,
//! from the repository's reference path (a separately built `Database`
//! with the naive closure and the nested-loop executor), or from an
//! embedded session over the served database.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use loosedb_browse::{ProbeOutcome, SharedSession};
use loosedb_datagen::university;
use loosedb_engine::{DurableDatabase, Strategy};
use loosedb_query::{EvalOptions, ExecStrategy};

use crate::served::{Instance, POLICY};
use crate::stream::Workload;
use crate::world::{base_facts, Model};

type Rows = BTreeSet<Vec<String>>;

fn fail(what: impl std::fmt::Display) -> String {
    what.to_string()
}

/// Answers `texts` over the served session.
pub fn served_answers(inst: &mut Instance, texts: &[String]) -> Result<Vec<Rows>, String> {
    texts
        .iter()
        .map(|text| Ok(inst.client.query(text).map_err(fail)?.rows.into_iter().collect()))
        .collect()
}

/// Answers `texts` on the reference path over the workload's world and
/// compares them with the served answers.
pub fn check_reference(
    workload: Workload,
    seed: u64,
    texts: &[String],
    served: &[Rows],
) -> Result<(), String> {
    let mut db = university(&workload.world(seed));
    db.set_strategy(Strategy::Naive);
    let queries = texts
        .iter()
        .map(|t| loosedb_query::parse(t, db.store_interner_mut()).map_err(fail))
        .collect::<Result<Vec<_>, _>>()?;
    let opts = EvalOptions { strategy: ExecStrategy::NestedLoop, ..EvalOptions::default() };
    db.refresh().map_err(fail)?;
    let interner = db.store().interner().clone();
    let view = db.view().map_err(fail)?;
    for ((text, query), served) in texts.iter().zip(&queries).zip(served) {
        let answer = loosedb_query::eval_with(query, &view, opts).map_err(fail)?;
        let rows: Rows = answer
            .rows
            .iter()
            .map(|row| row.iter().map(|&e| interner.display(e)).collect())
            .collect();
        if &rows != served {
            return Err(format!(
                "{text}: served {} row(s), the reference path {} row(s)",
                served.len(),
                rows.len()
            ));
        }
    }
    Ok(())
}

/// Checks what the model implies through the taxonomy and the inversion:
/// `(?s, isa, STUDENT)` has exactly the model's students, and every
/// `TEACHES` pair appears inverted under `TAUGHT-BY`.
pub fn check_model(inst: &mut Instance, model: &Model) -> Result<(), String> {
    let students = inst.client.query("(?s, isa, STUDENT)").map_err(fail)?.rows;
    let served: BTreeSet<&str> = students.iter().map(|row| row[0].as_str()).collect();
    let expected = model.students();
    if served.len() != students.len() || served != expected {
        return Err(format!(
            "(?s, isa, STUDENT): served {} row(s), the model has {} student(s)",
            students.len(),
            expected.len()
        ));
    }
    let taught: BTreeSet<Vec<String>> =
        inst.client.query("(?c, TAUGHT-BY, ?i)").map_err(fail)?.rows.into_iter().collect();
    for (course, teacher) in model.taught_by() {
        if !taught.contains(&vec![course.clone(), teacher.clone()]) {
            return Err(format!("({teacher}, TEACHES, {course}) is not inverted under TAUGHT-BY"));
        }
    }
    Ok(())
}

/// Probes `texts` on an embedded session over the served database and
/// checks each report: a succeeding query's probe carries the query's
/// rows; a failing query's probe ends in a wave with successes, each of
/// which answers non-empty when queried. The served rendering of every
/// probe must equal the embedded one.
pub fn check_probes(inst: &mut Instance, texts: &[String]) -> Result<(), String> {
    let mut session = SharedSession::new(Arc::clone(&inst.serving));
    for text in texts {
        let report = session.probe(text).map_err(fail)?;
        let served = inst.client.probe(text).map_err(fail)?;
        if served != session.render_probe(&report) {
            return Err(format!("{text}: the served probe differs from the embedded one"));
        }
        match &report.outcome {
            ProbeOutcome::Succeeded(answer) => {
                if session.query(text).map_err(fail)?.rows != answer.rows {
                    return Err(format!("{text}: the probe's rows differ from the query's"));
                }
            }
            ProbeOutcome::RetractionsSucceeded { wave } => {
                let generation = session.snapshot();
                for attempt in report.waves[*wave].successes() {
                    let broadened = attempt.query.render(generation.interner());
                    if session.query(&broadened).map_err(fail)?.rows.is_empty() {
                        return Err(format!("{text}: retraction {broadened} answers empty"));
                    }
                }
            }
            other => return Err(format!("{text}: probe found no successful wave: {other:?}")),
        }
    }
    Ok(())
}

/// Reopens a shut-down journal and compares its base facts with the
/// model.
pub fn check_reopen(dir: &Path, model: &Model) -> Result<(), String> {
    let journal = DurableDatabase::open(dir, POLICY).map_err(fail)?;
    let reopened = base_facts(journal.database_ref());
    if &reopened != model.base() {
        let missing = model.base().difference(&reopened).count();
        let extra = reopened.difference(model.base()).count();
        return Err(format!("reopened journal: {missing} fact(s) missing, {extra} extra"));
    }
    Ok(())
}
