//! The claims ledger: every table and figure of §6, how it is built
//! from runs, and what the paper says it must show.
//!
//! A [`Row`] keeps the experiment and its expected shape together, so
//! the anchors under a printed table, `repro assert`, `repro ledger` and
//! `tests/paper_shapes.rs` all read one definition.

use std::fmt::Write as _;

use crate::cache::Cache;
use crate::{beyond, figures, tables};

/// `Ok` or what was measured instead.
pub type Outcome = Result<(), String>;

/// How a claim of the paper is held.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// A predicate over cached runs, by the name it is reported under.
    Shape(&'static str, fn(&Cache) -> Outcome),
    /// A mechanism pinned by a test elsewhere: the file and the test.
    Test(&'static str, &'static str),
    /// Not reproduced, and why. Said, rather than left out.
    NotReproduced(&'static str),
}

/// What the paper (DESIGN.md §6, for the beyond-paper rows) says the
/// table shows, with the paper's numbers, and how it is held here.
#[derive(Debug, Clone, Copy)]
pub struct Claim(pub &'static str, pub Check);

/// One table or figure.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// `fig3`; also the stem of `results/<id>.txt`.
    pub id: &'static str,
    /// Where the paper presents it, and the first line of the table.
    pub section: &'static str,
    pub title: &'static str,
    /// Builds the table's body from runs.
    pub body: fn(&Cache, &mut String),
    /// What it must show.
    pub claims: &'static [Claim],
}

/// Returns `Err(format!(..))` from a predicate unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}
pub(crate) use ensure;

/// A claim held by the predicate `$f`, reported under `$f`'s name.
macro_rules! shape {
    ($paper:expr, $f:ident) => {
        Claim($paper, Check::Shape(stringify!($f), $f))
    };
}
pub(crate) use shape;

/// Every row, in the paper's order, then the beyond-paper ones.
pub fn rows() -> Vec<Row> {
    [tables::ROWS, figures::ROWS, beyond::ROWS].concat()
}

impl Row {
    /// The printed table: title, body, and the claims as its anchors.
    pub fn render(&self, cache: &Cache) -> String {
        let mut out = format!("{} ({})\n\n", self.title, self.section);
        (self.body)(cache, &mut out);
        out.truncate(out.trim_end().len());
        out + "\n\nPaper anchors, and how each is held:\n" + &self.anchors()
    }

    /// The claims of this row, each with its check.
    fn anchors(&self) -> String {
        let mut out = String::new();
        for Claim(paper, check) in self.claims {
            let held = match check {
                Check::Shape(name, _) => format!("shape {name}"),
                Check::Test(file, test) => format!("test {file}::{test}"),
                Check::NotReproduced(why) => format!("NOT REPRODUCED: {why}"),
            };
            let _ = writeln!(out, "  - {paper}\n      [{held}]");
        }
        out
    }

    /// The predicates of this row, by name.
    pub fn shapes(&self) -> impl Iterator<Item = (&'static str, fn(&Cache) -> Outcome)> + '_ {
        self.claims.iter().filter_map(|claim| match claim.1 {
            Check::Shape(name, f) => Some((name, f)),
            _ => None,
        })
    }

    /// Evaluates the predicates of this row, one line each into `out`;
    /// returns how many failed.
    pub fn assert(&self, cache: &Cache, out: &mut String) -> usize {
        let mut failed = 0;
        for (name, shape) in self.shapes() {
            let _ = match shape(cache) {
                Ok(()) => writeln!(out, "ok      {}::{name}", self.id),
                Err(measured) => {
                    failed += 1;
                    writeln!(out, "FAILED  {}::{name}: {measured}", self.id)
                }
            };
        }
        failed
    }

    /// This row of the claim → check map `repro ledger` prints.
    pub fn entry(&self) -> String {
        format!("{} ({}) {}\n{}", self.id, self.section, self.title, self.anchors())
    }
}
