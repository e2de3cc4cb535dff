//! The seeded operation streams of the three workloads.
//!
//! A stream is cut into rounds. Every round of a workload holds the same
//! operations kind by kind and position by position; only the entities
//! they name come from the seeded generator. A run therefore attempts
//! whole rounds of one fixed mix, whatever the seed and however long it
//! measures. Each write is followed by a read of the same session whose
//! expected answer the benchmark knows, so acknowledged writes are
//! checked as they happen.

use std::collections::HashSet;

use loosedb_datagen::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use loosedb_datagen::UniversityConfig;

use crate::world::{triple, Triple, GRADES, YEARS};

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Repeated large-answer queries and focus navigation on popular
    /// entities over an in-memory shared database.
    BrowseHot,
    /// Distinct multi-atom joins and failing-query probes over an
    /// in-memory shared database.
    QueryCold,
    /// Mostly writes over a WAL-journaled database.
    EditDurable,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::BrowseHot, Workload::QueryCold, Workload::EditDurable];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseHot => "browse-hot",
            Workload::QueryCold => "query-cold",
            Workload::EditDurable => "edit-durable",
        }
    }

    /// The world each workload serves, generated from `seed`.
    /// `edit-durable`'s is smaller: with the journal's full closure
    /// recompute on every retraction, a larger world would leave too few
    /// retractions in a run to take a median.
    pub fn world(self, seed: u64) -> UniversityConfig {
        let (students, courses, instructors) = match self {
            Workload::BrowseHot | Workload::QueryCold => (5000, 250, 50),
            Workload::EditDurable => (1000, 50, 10),
        };
        UniversityConfig { students, courses, instructors, enrollments_per_student: 3, seed }
    }

    /// Rounds per second of `--seconds`: a run's stream has a fixed
    /// length, so every run does the same work however fast the program
    /// is. The rates make a run take about `--seconds` on the reference
    /// container at the commit that introduced the benchmark.
    pub fn rounds_per_second(self) -> f64 {
        match self {
            Workload::BrowseHot => 5.0,
            Workload::QueryCold => 3.0,
            Workload::EditDurable => 3.0,
        }
    }
}

/// One request of the stream.
#[derive(Clone, Debug)]
pub enum Op {
    Query(String),
    Nav(String, String, String),
    Probe(String),
    Publish { checked: bool, facts: Vec<Triple> },
    Retract(Triple),
}

/// Operation kinds, for per-kind latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Query,
    Nav,
    Probe,
    Publish,
    Checked,
    Retract,
}

impl Kind {
    pub const ALL: [Kind; 6] =
        [Kind::Query, Kind::Nav, Kind::Probe, Kind::Publish, Kind::Checked, Kind::Retract];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Query => "query",
            Kind::Nav => "nav",
            Kind::Probe => "probe",
            Kind::Publish => "publish",
            Kind::Checked => "checked",
            Kind::Retract => "retract",
        }
    }
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Query(_) => Kind::Query,
            Op::Nav(..) => Kind::Nav,
            Op::Probe(_) => Kind::Probe,
            Op::Publish { checked: false, .. } => Kind::Publish,
            Op::Publish { checked: true, .. } => Kind::Checked,
            Op::Retract(_) => Kind::Retract,
        }
    }
}

/// What the benchmark knows the answer to an operation must be.
#[derive(Clone, Debug)]
pub enum Expect {
    /// No expectation beyond success.
    Any,
    /// A query answer with exactly this many rows.
    Rows(usize),
    /// A query answer containing this row.
    HasRow(Vec<String>),
    /// A rendered table containing this text.
    Text(String),
    /// A write acknowledged as applying this many facts.
    Applied(u64),
}

/// An operation and its expected outcome.
#[derive(Clone, Debug)]
pub struct Step {
    pub op: Op,
    pub expect: Expect,
}

fn step(op: Op, expect: Expect) -> Step {
    Step { op, expect }
}

fn query(text: String, expect: Expect) -> Step {
    step(Op::Query(text), expect)
}

fn nav(s: &str, r: &str, t: &str) -> Step {
    step(Op::Nav(s.into(), r.into(), t.into()), Expect::Any)
}

fn publish(checked: bool, facts: Vec<Triple>) -> Step {
    let n = facts.len() as u64;
    step(Op::Publish { checked, facts }, Expect::Applied(n))
}

fn retract(fact: Triple) -> Step {
    step(Op::Retract(fact), Expect::Applied(1))
}

/// The hot query set of `browse-hot`, most popular first: large answers
/// over base, membership-lifted, generalization-lifted and inverted
/// relationships.
const HOT_QUERIES: [&str; 16] = [
    "(?s, isa, SENIOR)",
    "(?s, GRADUATE-OF, USC)",
    "(?s, isa, JUNIOR)",
    "(?e, ENROLL-GRADE, A)",
    "(?s, ATTENDED, USC)",
    "(?s, isa, FRESHMAN)",
    "(?c, TAUGHT-BY, ?i)",
    "(?s, isa, SOPHOMORE)",
    "(?e, ENROLL-GRADE, B)",
    "Q(?s) := (?s, isa, SENIOR) & (?s, GRADUATE-OF, USC)",
    "(?i, TEACHES, ?c)",
    "(?e, ENROLL-GRADE, C)",
    "Q(?s) := (?s, isa, FRESHMAN) & (?s, ATTENDED, USC)",
    "(?c, isa, COURSE)",
    "(?s, isa, STUDENT)",
    "(?x, isa, PERSON)",
];

/// Students, courses and instructors that `browse-hot` navigates and
/// probes: the popular few.
const POPULAR: usize = 8;

/// A seeded generator of rounds.
pub struct Stream {
    workload: Workload,
    world: UniversityConfig,
    rng: StdRng,
    hot: Zipf,
    popular: Zipf,
    seen: HashSet<String>,
    round: u64,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        Stream {
            workload,
            world: workload.world(seed),
            // Distinct from the world's seed stream, the same for a seed.
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_57EA_4D00_0000),
            hot: Zipf::new(HOT_QUERIES.len(), 1.0),
            popular: Zipf::new(POPULAR, 1.0),
            seen: HashSet::new(),
            round: 0,
        }
    }

    /// The next round of the stream.
    pub fn next_round(&mut self) -> Vec<Step> {
        let r = self.round;
        self.round += 1;
        match self.workload {
            Workload::BrowseHot => self.browse_hot(r),
            Workload::QueryCold => self.query_cold(r),
            Workload::EditDurable => self.edit_durable(r),
        }
    }

    fn student(&mut self) -> String {
        format!("STU-{}", self.rng.gen_range(0..self.world.students))
    }

    fn course(&mut self) -> String {
        format!("CRS-{}", self.rng.gen_range(0..self.world.courses))
    }

    fn instructor(&mut self) -> String {
        format!("INST-{}", self.rng.gen_range(0..self.world.instructors))
    }

    fn grade(&mut self) -> &'static str {
        GRADES[self.rng.gen_range(0..GRADES.len())]
    }

    fn popular(&mut self) -> usize {
        self.popular.sample(&mut self.rng)
    }

    /// 206 operations: 1% unchecked publishes, 0.5% checked publishes,
    /// 1.5% retractions (each undoing a publish of the same round, so
    /// every round starts from the same world), 1% probes, 14%
    /// navigations, and hot queries. One publish adds a student and
    /// invalidates every cached answer over `isa`; the others touch only
    /// `NICKNAME` and `ADVISED-BY`, which no hot query reads, so cached
    /// answers survive them.
    fn browse_hot(&mut self, r: u64) -> Vec<Step> {
        let new = format!("NEW-{r}");
        let member = triple(&new, "isa", "SENIOR");
        let nick = triple(&self.student(), "NICKNAME", &format!("NICK-{r}"));
        let advisor = triple(&self.student(), "ADVISED-BY", &self.instructor());
        let mut steps = Vec::new();
        for pos in 0..200 {
            match pos {
                20 => {
                    steps.push(publish(false, vec![member.clone()]));
                    steps.push(query(format!("({new}, isa, PERSON)"), Expect::Rows(1)));
                }
                70 => {
                    steps.push(retract(member.clone()));
                    steps.push(query(format!("({new}, isa, PERSON)"), Expect::Rows(0)));
                }
                100 => steps.extend(write_then_read(true, &advisor)),
                120 => steps.extend(write_then_read(false, &nick)),
                170 => steps.extend(retract_then_read(&nick)),
                190 => steps.extend(retract_then_read(&advisor)),
                50 | 150 => {
                    // No instructor is a graduate: the probe broadens
                    // INSTRUCTOR to PERSON in its first wave.
                    let text = "Q(?x) := (?x, GRADUATE-OF, USC) & (?x, isa, INSTRUCTOR)";
                    steps.push(step(Op::Probe(text.to_string()), Expect::Any));
                }
                p if p % 7 == 3 => {
                    let k = self.popular();
                    match self.rng.gen_range(0..4) {
                        0 => steps.push(nav(&format!("CRS-{k}"), "*", "*")),
                        1 => steps.push(nav("*", "*", &format!("CRS-{k}"))),
                        2 => steps.push(nav(&format!("INST-{k}"), "*", "*")),
                        _ => steps.push(nav(&format!("STU-{k}"), "*", "*")),
                    }
                }
                _ => {
                    let text = HOT_QUERIES[self.hot.sample(&mut self.rng)];
                    steps.push(query(text.to_string(), Expect::Any));
                }
            }
        }
        steps
    }

    /// 106 operations: 2 probes of mostly failing queries, 8
    /// navigations, 2 unchecked publishes on `NICKNAME`, 1 checked
    /// publish on `ADVISED-BY` and their 3 retractions (no query of the
    /// round reads these relationships, so the plan cache keeps its
    /// shapes), a read after each write, and distinct multi-atom joins.
    /// No query text repeats within a run, so the answer cache never
    /// hits.
    fn query_cold(&mut self, r: u64) -> Vec<Step> {
        let advisor = triple(&self.student(), "ADVISED-BY", &self.instructor());
        let mut steps = Vec::new();
        let mut nicks = Vec::new();
        for pos in 0..100 {
            match pos {
                12 | 62 => {
                    let nick = triple(&self.student(), "NICKNAME", &format!("NICK-{r}-{pos}"));
                    steps.extend(write_then_read(false, &nick));
                    nicks.push(nick);
                }
                37 | 87 => steps.extend(retract_then_read(&nicks.remove(0))),
                48 => steps.extend(write_then_read(true, &advisor)),
                93 => steps.extend(retract_then_read(&advisor)),
                25 | 75 => {
                    let (k, i) = (self.student(), self.instructor());
                    steps.push(step(Op::Probe(enrolled_under(&k, &i)), Expect::Any));
                }
                p if p % 14 == 0 => {
                    let k = self.student();
                    if p % 28 == 0 {
                        steps.push(nav(&k, "*", "*"));
                    } else {
                        steps.push(nav("*", "*", &k));
                    }
                }
                p => {
                    // One query in seven asks for courses two students
                    // share, the costliest shape, so the p90 falls inside
                    // it; the rest rotate over the other three templates.
                    let template = if p % 8 == 1 { 3 } else { p % 3 };
                    let text = self.cold_query(template);
                    steps.push(query(text, Expect::Any));
                }
            }
        }
        steps
    }

    /// A query text not yet used in this stream, from one of four
    /// templates with constants drawn from the whole population.
    fn cold_query(&mut self, template: usize) -> String {
        for _ in 0..64 {
            let text = match template {
                0 => {
                    let (k, g) = (self.student(), self.grade());
                    format!(
                        "Q(?c, ?i) := exists ?e . (?e, ENROLL-STUDENT, {k}) & \
                         (?e, ENROLL-GRADE, {g}) & (?e, ENROLL-COURSE, ?c) & (?c, TAUGHT-BY, ?i)"
                    )
                }
                1 => {
                    let (c, g) = (self.course(), self.grade());
                    let year = YEARS[self.rng.gen_range(0..YEARS.len())];
                    let y = ["STUDENT", "PERSON", year][self.rng.gen_range(0..3usize)];
                    format!(
                        "Q(?s) := exists ?e . (?e, ENROLL-COURSE, {c}) & (?e, ENROLL-GRADE, {g}) \
                         & (?e, ENROLL-STUDENT, ?s) & (?s, isa, {y})"
                    )
                }
                2 => {
                    let (a, b) = (self.course(), self.course());
                    format!(
                        "Q(?s) := exists ?e ?f . (?s, ATTENDED, USC) & (?e, ENROLL-STUDENT, ?s) \
                         & (?e, ENROLL-COURSE, {a}) & (?f, ENROLL-STUDENT, ?s) \
                         & (?f, ENROLL-COURSE, {b})"
                    )
                }
                _ => self.shared_courses(),
            };
            if self.seen.insert(text.clone()) {
                return text;
            }
        }
        // A template whose constants have run out falls back to the one
        // with the largest constant space.
        loop {
            let text = self.shared_courses();
            if self.seen.insert(text.clone()) {
                return text;
            }
        }
    }

    fn shared_courses(&mut self) -> String {
        let (a, b) = (self.student(), self.student());
        format!(
            "Q(?c) := exists ?e ?f . (?e, ENROLL-STUDENT, {a}) & (?e, ENROLL-COURSE, ?c) \
             & (?f, ENROLL-STUDENT, {b}) & (?f, ENROLL-COURSE, ?c)"
        )
    }

    /// One editing cycle of 26 operations: a new student with an
    /// enrollment, its graduation, the retraction of its year, a
    /// nickname for an existing student and the checked re-classing of
    /// the new student, each followed by reads, with cold queries and
    /// navigation around them. The retraction and the checked publish
    /// each come right after an unchecked publish. The cold queries use
    /// the two costliest shapes, so that evaluation rather than the
    /// round trip sets the query latencies of this workload.
    fn edit_durable(&mut self, r: u64) -> Vec<Step> {
        let new = format!("NEW-{r}");
        let enrollment = format!("EN-{r}");
        let course = self.course();
        let grade = self.grade();
        let holder = self.student();
        let teacher = self.instructor();
        let nick = format!("NICK-{r}");
        let person = |rows| query(format!("({new}, isa, PERSON)"), Expect::Rows(rows));
        let text = |needle: &str| Expect::Text(needle.to_string());
        let mut cold = (0..10).map(|i| query(self.cold_query(2 + i % 2), Expect::Any));
        let mut cold = move || cold.next().expect("ten cold queries");
        vec![
            publish(
                false,
                vec![
                    triple(&new, "isa", "SENIOR"),
                    triple(&enrollment, "isa", "ENROLLMENT"),
                    triple(&enrollment, "ENROLL-STUDENT", &new),
                    triple(&enrollment, "ENROLL-COURSE", &course),
                    triple(&enrollment, "ENROLL-GRADE", grade),
                ],
            ),
            person(1),
            step(Op::Nav(new.clone(), "*".into(), "*".into()), text("PERSON")),
            cold(),
            cold(),
            nav("*", "*", &course),
            publish(false, vec![triple(&new, "GRADUATE-OF", "USC")]),
            query(format!("({new}, ATTENDED, USC)"), Expect::Rows(1)),
            cold(),
            cold(),
            retract(triple(&new, "isa", "SENIOR")),
            person(0),
            nav(&new, "*", "*"),
            cold(),
            step(Op::Probe(enrolled_under(&new, &teacher)), Expect::Any),
            cold(),
            publish(false, vec![triple(&holder, "NICKNAME", &nick)]),
            query(format!("({holder}, NICKNAME, ?x)"), Expect::HasRow(vec![nick.clone()])),
            publish(true, vec![triple(&new, "isa", "JUNIOR")]),
            person(1),
            step(Op::Nav("*".into(), "*".into(), new.clone()), text(&enrollment)),
            cold(),
            cold(),
            cold(),
            cold(),
            step(Op::Nav(holder.clone(), "*".into(), "*".into()), text(&nick)),
        ]
    }
}

/// A write of `fact`, then the read of `(s, r, ?x)` that must see it.
fn write_then_read(checked: bool, fact: &Triple) -> [Step; 2] {
    let (s, r, t) = fact;
    [
        publish(checked, vec![fact.clone()]),
        query(format!("({s}, {r}, ?x)"), Expect::HasRow(vec![t.clone()])),
    ]
}

/// The retraction of `fact`, then the read of `(s, r, ?x)` that must be
/// empty: the relationships this is used on are written only by the
/// stream, one fact at a time.
fn retract_then_read(fact: &Triple) -> [Step; 2] {
    let (s, r, _) = fact;
    [retract(fact.clone()), query(format!("({s}, {r}, ?x)"), Expect::Rows(0))]
}

/// "Which of `student`'s courses does `teacher` teach?" — usually empty,
/// so probing it runs retraction waves that broaden the student and the
/// teacher.
fn enrolled_under(student: &str, teacher: &str) -> String {
    format!(
        "Q(?c) := exists ?e . (?e, ENROLL-STUDENT, {student}) & (?e, ENROLL-COURSE, ?c) \
         & (?c, TAUGHT-BY, {teacher})"
    )
}
