//! The benchmark's worlds and its own model of their base facts.
//!
//! Every workload serves a `loosedb_datagen::university` world: a
//! taxonomy (`FRESHMAN … SENIOR ≺ STUDENT ≺ PERSON`), membership, the
//! inversion `TEACHES ⁺ TAUGHT-BY` and reified enrollments, so the
//! closure does real inference work. The [`Model`] is the benchmark's
//! record of the base facts it generated, published and retracted; the
//! checks compare what the server answers with what the model implies.

use std::collections::BTreeSet;

use loosedb_engine::Database;

/// A fact by display names, as it crosses the wire.
pub type Triple = (String, String, String);

/// Builds a triple from three names.
pub fn triple(s: &str, r: &str, t: &str) -> Triple {
    (s.to_string(), r.to_string(), t.to_string())
}

/// The four student years of the generator's taxonomy.
pub const YEARS: [&str; 4] = ["FRESHMAN", "SOPHOMORE", "JUNIOR", "SENIOR"];

/// The generator's grades.
pub const GRADES: [&str; 5] = ["A", "B", "C", "D", "F"];

/// The benchmark's own record of the base facts.
#[derive(Clone, Debug, Default)]
pub struct Model {
    base: BTreeSet<Triple>,
}

impl Model {
    /// Records the base facts of a freshly generated database, before the
    /// program has computed anything over them.
    pub fn of(db: &Database) -> Model {
        Model { base: base_facts(db) }
    }

    /// Records an acknowledged publish.
    pub fn publish(&mut self, facts: &[Triple]) {
        self.base.extend(facts.iter().cloned());
    }

    /// Records an acknowledged retraction.
    pub fn retract(&mut self, fact: &Triple) {
        self.base.remove(fact);
    }

    /// The base facts.
    pub fn base(&self) -> &BTreeSet<Triple> {
        &self.base
    }

    /// Entities that are students by the taxonomy: members of a year
    /// class or of `STUDENT` itself.
    pub fn students(&self) -> BTreeSet<&str> {
        self.base
            .iter()
            .filter(|(_, r, t)| r == "isa" && (t == "STUDENT" || YEARS.contains(&t.as_str())))
            .map(|(s, _, _)| s.as_str())
            .collect()
    }

    /// Every `(course, instructor)` pair the base `TEACHES` facts imply
    /// under the inversion `TEACHES ⁺ TAUGHT-BY`.
    pub fn taught_by(&self) -> Vec<(String, String)> {
        self.base
            .iter()
            .filter(|(_, r, _)| r == "TEACHES")
            .map(|(i, _, c)| (c.clone(), i.clone()))
            .collect()
    }
}

/// The base facts of a database, by display names.
pub fn base_facts(db: &Database) -> BTreeSet<Triple> {
    let store = db.store();
    store.iter().map(|f| (store.display(f.s), store.display(f.r), store.display(f.t))).collect()
}
