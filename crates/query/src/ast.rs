//! Abstract syntax tree for the SkyServer-style SQL subset.
//!
//! The grammar (§4 of the paper requires only that queries carry enough
//! structure to determine the objects `B(q)` they access and their
//! currency requirement `t(q)`):
//!
//! ```text
//! query      := SELECT select_list FROM table [WHERE conjunct (AND conjunct)*]
//!               [WITH TOLERANCE INT]
//! select_list:= [TOP INT] ('*' | COUNT '(' '*' ')' | column (',' column)*)
//! conjunct   := spatial | comparison | between
//!             | '(' simple (OR simple)* ')'          -- attribute disjunction
//! spatial    := CONTAINS '(' POINT '(' n ',' n ')' ',' shape ')'
//!             | shape
//! shape      := CIRCLE '(' n ',' n ',' n ')'
//!             | RECT '(' n ',' n ',' n ',' n ')'
//!             | NEIGHBORS '(' n ',' n ',' n ')'
//! comparison := column op n          op ∈ {=, <, >, <=, >=, <>}
//! between    := column BETWEEN n AND n
//! ```
//!
//! `CIRCLE`/`RECT`/`POINT` accept an optional leading `'J2000'` string
//! argument, as SkyServer's HTM functions do; it is ignored.

use std::fmt;

/// A parsed query.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// What the query returns.
    pub projection: Projection,
    /// Row cap (`SELECT TOP n`).
    pub top: Option<u64>,
    /// Table name as written.
    pub table: String,
    /// Optional alias (`FROM PhotoObj p`).
    pub alias: Option<String>,
    /// Conjunctive WHERE predicates (empty = no WHERE clause).
    pub predicates: Vec<Predicate>,
    /// Currency requirement `t(q)` in event ticks (`WITH TOLERANCE n`);
    /// `None` means the system default (zero: fully current).
    pub tolerance: Option<u64>,
}

/// The SELECT list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Projection {
    /// `SELECT *` — every column.
    All,
    /// `SELECT COUNT(*)` — an aggregate with a tiny result.
    Count,
    /// An explicit column list.
    Columns(Vec<String>),
}

/// One conjunct of the WHERE clause.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// A spatial constraint.
    Spatial(Shape),
    /// `column op value`.
    Compare {
        /// Column name (alias-stripped).
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal value.
        value: f64,
    },
    /// `column BETWEEN lo AND hi`.
    Between {
        /// Column name (alias-stripped).
        column: String,
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// A parenthesized disjunction of attribute predicates:
    /// `(p1 OR p2 OR ...)`. Spatial shapes are not allowed inside a
    /// disjunction (the analyzer rejects them); selectivities combine by
    /// inclusion–exclusion under independence.
    AnyOf(Vec<Predicate>),
}

/// A spatial footprint literal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// `CIRCLE(ra, dec, radius_deg)` — a cone search.
    Circle {
        /// Center right ascension, degrees.
        ra: f64,
        /// Center declination, degrees.
        dec: f64,
        /// Angular radius, degrees.
        radius_deg: f64,
    },
    /// `RECT(ra_min, dec_min, ra_max, dec_max)` — an RA/Dec rectangle.
    Rect {
        /// Western edge, degrees.
        ra_min: f64,
        /// Southern edge, degrees.
        dec_min: f64,
        /// Eastern edge, degrees.
        ra_max: f64,
        /// Northern edge, degrees.
        dec_max: f64,
    },
    /// `NEIGHBORS(ra, dec, radius_deg)` — a spatial self-join
    /// neighbourhood search (SkyServer's `fGetNearbyObjEq` idiom).
    Neighbors {
        /// Center right ascension, degrees.
        ra: f64,
        /// Center declination, degrees.
        dec: f64,
        /// Pair-search radius, degrees.
        radius_deg: f64,
    },
}

/// Comparison operator of a [`Predicate::Compare`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<>` / `!=`
    Ne,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Ne => "<>",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shape::Circle {
                ra,
                dec,
                radius_deg,
            } => {
                write!(f, "CIRCLE({ra}, {dec}, {radius_deg})")
            }
            Shape::Rect {
                ra_min,
                dec_min,
                ra_max,
                dec_max,
            } => {
                write!(f, "RECT({ra_min}, {dec_min}, {ra_max}, {dec_max})")
            }
            Shape::Neighbors {
                ra,
                dec,
                radius_deg,
            } => {
                write!(f, "NEIGHBORS({ra}, {dec}, {radius_deg})")
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Spatial(s) => write!(f, "{s}"),
            Predicate::Compare { column, op, value } => write!(f, "{column} {op} {value}"),
            Predicate::Between { column, lo, hi } => {
                write!(f, "{column} BETWEEN {lo} AND {hi}")
            }
            Predicate::AnyOf(ps) => {
                f.write_str("(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" OR ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Projection::All => f.write_str("*"),
            Projection::Count => f.write_str("COUNT(*)"),
            Projection::Columns(cols) => f.write_str(&cols.join(", ")),
        }
    }
}

impl fmt::Display for Query {
    /// Renders the query back to parseable SQL (used by the round-trip
    /// property tests).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if let Some(n) = self.top {
            write!(f, "TOP {n} ")?;
        }
        write!(f, "{} FROM {}", self.projection, self.table)?;
        if let Some(a) = &self.alias {
            write!(f, " {a}")?;
        }
        if !self.predicates.is_empty() {
            f.write_str(" WHERE ")?;
            for (i, p) in self.predicates.iter().enumerate() {
                if i > 0 {
                    f.write_str(" AND ")?;
                }
                write!(f, "{p}")?;
            }
        }
        if let Some(t) = self.tolerance {
            write!(f, " WITH TOLERANCE {t}")?;
        }
        Ok(())
    }
}

impl Query {
    /// All column names referenced in the WHERE clause.
    pub fn referenced_columns(&self) -> Vec<&str> {
        self.predicates.iter().flat_map(collect_columns).collect()
    }

    /// Whether any predicate constrains the query spatially (including
    /// RA/Dec range predicates, which the analyzer turns into a
    /// rectangle).
    pub fn has_spatial_constraint(&self) -> bool {
        fn spatial(p: &Predicate) -> bool {
            match p {
                Predicate::Spatial(_) => true,
                Predicate::Compare { column, .. } | Predicate::Between { column, .. } => {
                    column.eq_ignore_ascii_case("ra") || column.eq_ignore_ascii_case("dec")
                }
                Predicate::AnyOf(ps) => ps.iter().any(spatial),
            }
        }
        self.predicates.iter().any(spatial)
    }
}

/// All column names referenced by one predicate (recursing into
/// disjunctions).
fn collect_columns(p: &Predicate) -> Vec<&str> {
    match p {
        Predicate::Compare { column, .. } | Predicate::Between { column, .. } => {
            vec![column.as_str()]
        }
        Predicate::Spatial(_) => Vec::new(),
        Predicate::AnyOf(ps) => ps.iter().flat_map(collect_columns).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Query {
        Query {
            projection: Projection::Columns(vec!["ra".into(), "dec".into(), "g".into()]),
            top: Some(100),
            table: "PhotoObj".into(),
            alias: Some("p".into()),
            predicates: vec![
                Predicate::Spatial(Shape::Circle {
                    ra: 185.0,
                    dec: 15.5,
                    radius_deg: 0.5,
                }),
                Predicate::Between {
                    column: "g".into(),
                    lo: 17.0,
                    hi: 19.5,
                },
                Predicate::Compare {
                    column: "type".into(),
                    op: CmpOp::Eq,
                    value: 6.0,
                },
            ],
            tolerance: Some(50),
        }
    }

    #[test]
    fn display_is_parseable_sql() {
        let q = sample();
        let sql = q.to_string();
        assert_eq!(
            sql,
            "SELECT TOP 100 ra, dec, g FROM PhotoObj p WHERE \
             CIRCLE(185, 15.5, 0.5) AND g BETWEEN 17 AND 19.5 AND type = 6 \
             WITH TOLERANCE 50"
        );
    }

    #[test]
    fn referenced_columns_skips_spatial() {
        let q = sample();
        assert_eq!(q.referenced_columns(), vec!["g", "type"]);
    }

    #[test]
    fn spatial_constraint_detection() {
        let mut q = sample();
        assert!(q.has_spatial_constraint());
        q.predicates.clear();
        assert!(!q.has_spatial_constraint());
        q.predicates.push(Predicate::Between {
            column: "ra".into(),
            lo: 10.0,
            hi: 20.0,
        });
        assert!(q.has_spatial_constraint());
    }
}
