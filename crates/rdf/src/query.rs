//! A SPARQL-subset query engine.
//!
//! §3: "Jena includes a SPARQL query engine which the personalized
//! knowledge base uses to query data sources such as DBpedia." Supported
//! grammar (enough for every query the knowledge base issues):
//!
//! ```text
//! SELECT ?x ?y WHERE {
//!   ?x <ex:p> ?y .
//!   ?y <ex:q> "literal" .
//!   OPTIONAL { ?x <ex:r> ?z }
//!   { ?x <ex:a> ?w } UNION { ?x <ex:b> ?w }
//!   FILTER (?y > 10)
//! } ORDER BY ?x OFFSET 5 LIMIT 20
//! ```
//!
//! Terms: `?var`, `<iri>`, `"string"`, integers, doubles, `true`/`false`.
//! Filters: `>`, `>=`, `<`, `<=`, `=`, `!=` between a variable and a
//! constant (or two variables).
//!
//! Queries compile through the cost-based planner in [`crate::plan`]:
//! patterns are join-reordered by selectivity and executed with merge or
//! index nested-loop joins (see [`Query::explain`] for the chosen plan).

use crate::dict::TermId;
use crate::graph::QueryView;
use crate::model::{Literal, Term};
use crate::plan::{columns, solution, window, BgpQuery, ExecPlan, QueryStats};
use crate::reason::{PatternTerm, TriplePattern};
use crate::RdfError;
use std::collections::{HashMap, VecDeque};
use std::iter::Peekable;
use std::ops::ControlFlow;
use std::str::Chars;

/// One result row: variable name → bound term.
pub type Solution = HashMap<String, Term>;

/// A comparison operator in a FILTER.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// One side of a filter comparison.
#[derive(Debug, Clone, PartialEq)]
enum Operand {
    Var(String),
    Const(Term),
}

#[derive(Debug, Clone, PartialEq)]
struct Filter {
    left: Operand,
    op: CmpOp,
    right: Operand,
}

impl Filter {
    /// Evaluates the filter, reading each variable's bound term (if any)
    /// through `value`.
    fn eval<'a>(&'a self, value: impl Fn(&str) -> Option<&'a Term>) -> bool {
        let resolve = |operand: &'a Operand| match operand {
            Operand::Var(v) => value(v),
            Operand::Const(t) => Some(t),
        };
        let (Some(l), Some(r)) = (resolve(&self.left), resolve(&self.right)) else {
            return false;
        };
        match self.op {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            op => {
                // Ordered comparison: numeric if both numeric, else string
                // order over display forms.
                let ord = match (
                    l.as_literal().and_then(Literal::as_f64),
                    r.as_literal().and_then(Literal::as_f64),
                ) {
                    (Some(a), Some(b)) => a.partial_cmp(&b),
                    _ => Some(l.to_string().cmp(&r.to_string())),
                };
                ord.is_some_and(|ord| match op {
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    _ => ord.is_ge(),
                })
            }
        }
    }
}

/// A parsed query.
///
/// # Examples
///
/// ```
/// use cogsdk_rdf::{Graph, Query, Statement, Term};
///
/// let mut g = Graph::new();
/// g.insert(Statement::new(Term::iri("ex:us"), Term::iri("ex:gdp"), Term::double(21000.0)));
/// g.insert(Statement::new(Term::iri("ex:de"), Term::iri("ex:gdp"), Term::double(4200.0)));
///
/// let q = Query::parse(
///     "SELECT ?c WHERE { ?c <ex:gdp> ?g . FILTER (?g > 10000) }").unwrap();
/// let rows = q.execute(&g);
/// assert_eq!(rows.len(), 1);
/// assert_eq!(rows[0]["c"], Term::iri("ex:us"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    select: Vec<String>,
    /// The pattern block; filters, ordering, slice and projection stay at
    /// this layer ([`run`](Self::run)), since SPARQL slices after
    /// `ORDER BY`.
    bgp: BgpQuery,
    filters: Vec<Filter>,
    order_by: Option<String>,
    offset: usize,
    limit: Option<usize>,
}

impl Query {
    /// Parses the SPARQL subset described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`RdfError`] with a description of the first syntax
    /// violation.
    pub fn parse(text: &str) -> Result<Query, RdfError> {
        let mut tokens = tokenize(text)?;
        expect_keyword(&mut tokens, "SELECT")?;
        let mut select = Vec::new();
        while let Some(Token::Var(v)) = tokens.front() {
            select.push(v.clone());
            tokens.pop_front();
        }
        if select.is_empty() {
            // SELECT * form.
            if matches!(tokens.front(), Some(Token::Word(w)) if w == "*") {
                tokens.pop_front();
            } else {
                return Err(RdfError::new("SELECT needs at least one ?var or *"));
            }
        }
        expect_keyword(&mut tokens, "WHERE")?;
        expect_token(&mut tokens, &Token::OpenBrace)?;
        let mut bgp = BgpQuery::new();
        let mut filters = Vec::new();
        loop {
            match tokens.front() {
                Some(Token::CloseBrace) => {
                    tokens.pop_front();
                    break;
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("FILTER") => {
                    tokens.pop_front();
                    filters.push(parse_filter(&mut tokens)?);
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    tokens.pop_front();
                    bgp = bgp.optional(parse_group(&mut tokens)?);
                }
                Some(Token::OpenBrace) => {
                    let mut arms = vec![parse_group(&mut tokens)?];
                    while matches!(
                        tokens.front(),
                        Some(Token::Word(w)) if w.eq_ignore_ascii_case("UNION")
                    ) {
                        tokens.pop_front();
                        arms.push(parse_group(&mut tokens)?);
                    }
                    if arms.len() < 2 {
                        return Err(RdfError::new(
                            "a braced group inside WHERE must be part of a UNION",
                        ));
                    }
                    bgp = bgp.union(arms);
                }
                Some(_) => bgp = bgp.pattern(parse_triple(&mut tokens)?),
                None => return Err(RdfError::new("unterminated WHERE block")),
            }
        }
        let mut order_by = None;
        let mut offset = 0usize;
        let mut limit = None;
        while let Some(tok) = tokens.front() {
            match tok {
                Token::Word(w) if w.eq_ignore_ascii_case("ORDER") => {
                    tokens.pop_front();
                    expect_keyword(&mut tokens, "BY")?;
                    match tokens.pop_front() {
                        Some(Token::Var(v)) => order_by = Some(v),
                        _ => return Err(RdfError::new("ORDER BY needs a ?var")),
                    }
                }
                Token::Word(w) if w.eq_ignore_ascii_case("LIMIT") => {
                    tokens.pop_front();
                    limit = Some(parse_count(&mut tokens, "LIMIT")?);
                }
                Token::Word(w) if w.eq_ignore_ascii_case("OFFSET") => {
                    tokens.pop_front();
                    offset = parse_count(&mut tokens, "OFFSET")?;
                }
                other => {
                    return Err(RdfError::new(format!(
                        "unexpected trailing token {other:?}"
                    )))
                }
            }
        }
        if bgp.is_empty() {
            return Err(RdfError::new("WHERE needs at least one triple pattern"));
        }
        Ok(Query {
            select,
            bgp,
            filters,
            order_by,
            offset,
            limit,
        })
    }

    /// Executes the query against any [`QueryView`] — the live
    /// [`Graph`](crate::Graph) or a pinned
    /// [`EpochSnapshot`](crate::EpochSnapshot).
    ///
    /// The pattern block runs on the planner's streaming executor
    /// ([`ExecPlan::run`]). A constant the view never interned yields zero
    /// rows for a *required* pattern, but is local to its arm inside
    /// `OPTIONAL`/`UNION`. Without `ORDER BY`, filters, the slice and
    /// projection apply to each id row as it is produced: execution stops
    /// once the slice's last row is out, and only returned rows are
    /// resolved to terms. With `ORDER BY`, the rows that pass the filters
    /// are collected as ids and sorted first.
    pub fn execute<V: QueryView>(&self, graph: &V) -> Vec<Solution> {
        self.execute_with_stats(graph).0
    }

    /// Like [`execute`](Self::execute), also returning the plan, join and
    /// work counters for metrics ([`QueryStats::rows`] reflects the final
    /// row count).
    pub fn execute_with_stats<V: QueryView>(&self, graph: &V) -> (Vec<Solution>, QueryStats) {
        let plan = self.plan(graph);
        let columns = self.columns(&plan);
        let mut out = Vec::new();
        let stats = self.run(&plan, graph, |row| {
            out.push(solution(&columns, graph.dict(), row));
        });
        (out, stats)
    }

    /// Plans the pattern block against `graph` (see [`BgpQuery::plan`]).
    pub fn plan<V: QueryView>(&self, graph: &V) -> ExecPlan {
        self.bgp.plan(graph)
    }

    /// The result columns of `plan`: `(variable, index into its id rows)`
    /// per selected variable, in `SELECT` order (plan order for
    /// `SELECT *`).
    pub fn columns<'a>(&'a self, plan: &'a ExecPlan) -> Vec<(&'a str, usize)> {
        columns(plan.vars(), &self.select)
    }

    /// Runs `plan` (from [`plan`](Self::plan) on the same view) and hands
    /// `emit` each result row as ids, filtered, ordered and sliced, in
    /// result order; [`columns`](Self::columns) projects it. Returns the
    /// plan's stats with `rows` and `rows_materialised` set to the rows
    /// emitted.
    pub fn run<V: QueryView>(
        &self,
        plan: &ExecPlan,
        graph: &V,
        mut emit: impl FnMut(&[Option<TermId>]),
    ) -> QueryStats {
        let index = |var: &str| plan.vars().iter().position(|v| v == var);
        let term =
            |row: &[Option<TermId>], i: Option<usize>| Some(graph.dict().resolve_ref(row[i?]?));
        let keep =
            |row: &[Option<TermId>]| self.filters.iter().all(|f| f.eval(|v| term(row, index(v))));
        let mut rows = 0;
        let mut sink = window(self.offset, self.limit, |row| {
            rows += 1;
            emit(row);
        });
        let order = self.order_by.as_deref().map(index);
        let mut sorted = Vec::new();
        let mut stats = plan.run(graph, &mut |row| match (keep(row), order) {
            (false, _) => ControlFlow::Continue(()),
            (true, None) => sink(row),
            (true, Some(_)) => {
                sorted.push(row.to_vec());
                ControlFlow::Continue(())
            }
        });
        if let Some(key) = order {
            // A stable sort, bound values first.
            sorted.sort_by_key(|row| {
                let t = term(row, key);
                (t.is_none(), t)
            });
            let _ = sorted.iter().try_for_each(|row| sink(row));
        }
        drop(sink);
        stats.rows = rows;
        stats.rows_materialised = rows;
        stats
    }

    /// Renders the plan the query would run with against `graph` (see
    /// [`ExecPlan::explain`]).
    pub fn explain<V: QueryView>(&self, graph: &V) -> String {
        self.plan(graph).explain().to_string()
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Var(String),
    Iri(String),
    Str(String),
    Word(String),
    OpenBrace,
    CloseBrace,
    OpenParen,
    CloseParen,
    Dot,
    Op(String),
}

fn tokenize(text: &str) -> Result<VecDeque<Token>, RdfError> {
    let mut out = VecDeque::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '{' | '}' | '(' | ')' | '.' => {
                chars.next();
                out.push_back(match c {
                    '{' => Token::OpenBrace,
                    '}' => Token::CloseBrace,
                    '(' => Token::OpenParen,
                    ')' => Token::CloseParen,
                    _ => Token::Dot,
                });
            }
            '?' => {
                chars.next();
                let mut v = String::new();
                while let Some(ch) = chars.next_if(|&ch| ch.is_alphanumeric() || ch == '_') {
                    v.push(ch);
                }
                if v.is_empty() {
                    return Err(RdfError::new("empty variable name"));
                }
                out.push_back(Token::Var(v));
            }
            '<' => out.push_back(Token::Iri(delimited(&mut chars, '>', "IRI")?)),
            '"' => out.push_back(Token::Str(delimited(&mut chars, '"', "string")?)),
            '>' | '=' | '!' => {
                chars.next();
                let mut op = c.to_string();
                op.extend(chars.next_if_eq(&'='));
                out.push_back(Token::Op(op));
            }
            _ => {
                let mut w = String::new();
                while let Some(ch) = chars.next_if(|&ch| {
                    !(ch.is_whitespace()
                        || matches!(
                            ch,
                            '{' | '}' | '(' | ')' | '?' | '<' | '"' | '>' | '=' | '!'
                        )
                        || (ch == '.' && !w.starts_with(|f: char| f.is_ascii_digit())))
                }) {
                    w.push(ch);
                }
                if w.is_empty() {
                    // `<` handled above; a bare `.` etc. Consume defensively.
                    return Err(RdfError::new(format!("unexpected character '{c}'")));
                }
                out.push_back(Token::Word(w));
            }
        }
    }
    // `<` always opens an IRI, so a less-than filter is written `(?g < 10 >)`
    // or `(?g <= 10 >)`, and `parse_filter` reads that IRI as the operator.
    Ok(out)
}

/// Reads a token's body from its opening delimiter (the next char) up to
/// `close`, consuming both.
fn delimited(chars: &mut Peekable<Chars>, close: char, what: &str) -> Result<String, RdfError> {
    chars.next();
    let mut body = String::new();
    loop {
        match chars.next() {
            Some(ch) if ch == close => return Ok(body),
            Some(ch) => body.push(ch),
            None => return Err(RdfError::new(format!("unterminated {what}"))),
        }
    }
}

fn expect_keyword(tokens: &mut VecDeque<Token>, kw: &str) -> Result<(), RdfError> {
    match tokens.front() {
        Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw) => {
            tokens.pop_front();
            Ok(())
        }
        other => Err(RdfError::new(format!("expected {kw}, found {other:?}"))),
    }
}

fn expect_token(tokens: &mut VecDeque<Token>, expected: &Token) -> Result<(), RdfError> {
    match tokens.front() {
        Some(t) if t == expected => {
            tokens.pop_front();
            Ok(())
        }
        other => Err(RdfError::new(format!(
            "expected {expected:?}, found {other:?}"
        ))),
    }
}

fn parse_term(tokens: &mut VecDeque<Token>) -> Result<PatternTerm, RdfError> {
    match tokens.pop_front() {
        None => Err(RdfError::new("expected term, found end of input")),
        Some(Token::Var(v)) => Ok(PatternTerm::Var(v)),
        Some(Token::Iri(iri)) => Ok(PatternTerm::Term(Term::iri(iri))),
        Some(Token::Str(s)) => Ok(PatternTerm::Term(Term::string(s))),
        Some(Token::Word(w)) => {
            if let Ok(i) = w.parse::<i64>() {
                Ok(PatternTerm::Term(Term::integer(i)))
            } else if let Ok(f) = w.parse::<f64>() {
                Ok(PatternTerm::Term(Term::double(f)))
            } else if w == "true" || w == "false" {
                Ok(PatternTerm::Term(Term::boolean(w == "true")))
            } else {
                Ok(PatternTerm::Term(Term::iri(w)))
            }
        }
        other => Err(RdfError::new(format!("expected term, found {other:?}"))),
    }
}

fn parse_triple(tokens: &mut VecDeque<Token>) -> Result<TriplePattern, RdfError> {
    let subject = parse_term(tokens)?;
    let predicate = parse_term(tokens)?;
    let object = parse_term(tokens)?;
    // Optional trailing dot.
    if matches!(tokens.front(), Some(Token::Dot)) {
        tokens.pop_front();
    }
    Ok(TriplePattern {
        subject,
        predicate,
        object,
    })
}

/// Parses a braced pattern group `{ ?a <p> ?b . … }` — the body of an
/// `OPTIONAL` or one `UNION` arm. Groups hold plain triple patterns only
/// (no nested filters or blocks).
fn parse_group(tokens: &mut VecDeque<Token>) -> Result<Vec<TriplePattern>, RdfError> {
    expect_token(tokens, &Token::OpenBrace)?;
    let mut group = Vec::new();
    loop {
        match tokens.front() {
            Some(Token::CloseBrace) => {
                tokens.pop_front();
                break;
            }
            Some(_) => group.push(parse_triple(tokens)?),
            None => return Err(RdfError::new("unterminated pattern group")),
        }
    }
    if group.is_empty() {
        return Err(RdfError::new("empty pattern group"));
    }
    Ok(group)
}

fn parse_filter(tokens: &mut VecDeque<Token>) -> Result<Filter, RdfError> {
    expect_token(tokens, &Token::OpenParen)?;
    let left = parse_operand(tokens)?;
    let op = match tokens.pop_front() {
        None => return Err(RdfError::new("expected operator")),
        Some(Token::Op(op)) => match op.as_str() {
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            "=" | "==" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            other => return Err(RdfError::new(format!("unknown operator {other}"))),
        },
        // `< x >` tokenizes as `Iri(" x ")` and `<= x >` as `Iri("= x ")`.
        Some(Token::Iri(rest)) => {
            let trimmed = rest.trim();
            if let Some(stripped) = trimmed.strip_prefix('=') {
                let rhs = stripped.trim().to_string();
                tokens.push_front(Token::Word(rhs));
                CmpOp::Le
            } else {
                tokens.push_front(Token::Word(trimmed.to_string()));
                CmpOp::Lt
            }
        }
        other => return Err(RdfError::new(format!("expected operator, found {other:?}"))),
    };
    let right = parse_operand(tokens)?;
    expect_token(tokens, &Token::CloseParen)?;
    Ok(Filter { left, op, right })
}

/// Parses the count after a `LIMIT` or `OFFSET` keyword.
fn parse_count(tokens: &mut VecDeque<Token>, keyword: &str) -> Result<usize, RdfError> {
    match tokens.pop_front() {
        Some(Token::Word(n)) => n
            .parse()
            .map_err(|_| RdfError::new(format!("{keyword} needs a non-negative integer"))),
        _ => Err(RdfError::new(format!("{keyword} needs a number"))),
    }
}

fn parse_operand(tokens: &mut VecDeque<Token>) -> Result<Operand, RdfError> {
    match parse_term(tokens)? {
        PatternTerm::Var(v) => Ok(Operand::Var(v)),
        PatternTerm::Term(t) => Ok(Operand::Const(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::model::Statement;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let gdp = Term::iri("ex:gdp");
        let pop = Term::iri("ex:pop");
        let name = Term::iri("ex:name");
        for (country, g_val, p_val, n) in [
            ("ex:us", 21000.0, 331, "United States"),
            ("ex:de", 4200.0, 83, "Germany"),
            ("ex:in", 3700.0, 1400, "India"),
        ] {
            g.insert(Statement::new(
                Term::iri(country),
                gdp.clone(),
                Term::double(g_val),
            ));
            g.insert(Statement::new(
                Term::iri(country),
                pop.clone(),
                Term::integer(p_val),
            ));
            g.insert(Statement::new(
                Term::iri(country),
                name.clone(),
                Term::string(n),
            ));
        }
        g
    }

    #[test]
    fn single_pattern_select() {
        let q = Query::parse("SELECT ?c ?g WHERE { ?c <ex:gdp> ?g . }").unwrap();
        let rows = q.execute(&sample());
        assert_eq!(rows.len(), 3);
        assert!(rows
            .iter()
            .all(|r| r.contains_key("c") && r.contains_key("g")));
    }

    #[test]
    fn join_across_patterns() {
        let q = Query::parse(
            "SELECT ?n WHERE { ?c <ex:gdp> ?g . ?c <ex:name> ?n . FILTER (?g > 4000) }",
        )
        .unwrap();
        let rows = q.execute(&sample());
        let names: Vec<&Term> = rows.iter().filter_map(|r| r.get("n")).collect();
        assert_eq!(rows.len(), 2);
        assert!(names.contains(&&Term::string("United States")));
        assert!(names.contains(&&Term::string("Germany")));
    }

    #[test]
    fn filter_less_than_with_spaces() {
        let q = Query::parse("SELECT ?c WHERE { ?c <ex:pop> ?p . FILTER (?p < 100 >) }");
        // The `<` operator is awkward in this grammar; accept either a
        // parse error or correct behaviour of the `< … >` workaround.
        if let Ok(q) = q {
            let rows = q.execute(&sample());
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0]["c"], Term::iri("ex:de"));
        }
    }

    #[test]
    fn filter_equality_on_strings() {
        let q =
            Query::parse("SELECT ?c WHERE { ?c <ex:name> ?n . FILTER (?n = \"India\") }").unwrap();
        let rows = q.execute(&sample());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["c"], Term::iri("ex:in"));
    }

    #[test]
    fn filter_not_equal() {
        let q =
            Query::parse("SELECT ?c WHERE { ?c <ex:name> ?n . FILTER (?n != \"India\") }").unwrap();
        assert_eq!(q.execute(&sample()).len(), 2);
    }

    #[test]
    fn order_by_and_limit() {
        let q =
            Query::parse("SELECT ?c ?g WHERE { ?c <ex:gdp> ?g . } ORDER BY ?g LIMIT 2").unwrap();
        let rows = q.execute(&sample());
        assert_eq!(rows.len(), 2);
        // Ascending by gdp: India (3700) first.
        assert_eq!(rows[0]["c"], Term::iri("ex:in"));
        assert_eq!(rows[1]["c"], Term::iri("ex:de"));
    }

    #[test]
    fn select_star_keeps_all_vars() {
        let q = Query::parse("SELECT * WHERE { ?c <ex:gdp> ?g . }").unwrap();
        let rows = q.execute(&sample());
        assert!(rows[0].contains_key("c") && rows[0].contains_key("g"));
    }

    #[test]
    fn no_matches_yields_empty() {
        let q = Query::parse("SELECT ?x WHERE { ?x <ex:missing> ?y . }").unwrap();
        assert!(q.execute(&sample()).is_empty());
    }

    #[test]
    fn constant_subject_pattern() {
        let q = Query::parse("SELECT ?g WHERE { <ex:us> <ex:gdp> ?g . }").unwrap();
        let rows = q.execute(&sample());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["g"], Term::double(21000.0));
    }

    #[test]
    fn shared_variable_enforces_join_consistency() {
        // ?x must be the same across both patterns.
        let mut g = Graph::new();
        g.insert(Statement::new(
            Term::iri("a"),
            Term::iri("p"),
            Term::iri("b"),
        ));
        g.insert(Statement::new(
            Term::iri("b"),
            Term::iri("q"),
            Term::iri("c"),
        ));
        g.insert(Statement::new(
            Term::iri("x"),
            Term::iri("q"),
            Term::iri("y"),
        ));
        let q = Query::parse("SELECT ?m WHERE { ?s <p> ?m . ?m <q> ?o . }").unwrap();
        let rows = q.execute(&g);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["m"], Term::iri("b"));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "WHERE { ?a <p> ?b }",
            "SELECT WHERE { ?a <p> ?b }",
            "SELECT ?a { ?a <p> ?b }",
            "SELECT ?a WHERE { ?a <p> }",
            "SELECT ?a WHERE { ?a <p> ?b ",
            "SELECT ?a WHERE { } LIMIT 2",
            "SELECT ?a WHERE { ?a <p> ?b } LIMIT x",
            "SELECT ?a WHERE { ?a <p> ?b } ORDER BY",
            "SELECT ?a WHERE { ?a <p> ?b } GARBAGE",
        ] {
            assert!(Query::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn optional_extends_when_present_and_passes_through_when_absent() {
        let mut g = sample();
        g.insert(Statement::new(
            Term::iri("ex:us"),
            Term::iri("ex:nick"),
            Term::string("USA"),
        ));
        let q =
            Query::parse("SELECT ?c ?k WHERE { ?c <ex:gdp> ?g . OPTIONAL { ?c <ex:nick> ?k } }")
                .unwrap();
        let rows = q.execute(&g);
        assert_eq!(rows.len(), 3, "left-outer: every country survives");
        let with_nick: Vec<_> = rows.iter().filter(|r| r.contains_key("k")).collect();
        assert_eq!(with_nick.len(), 1);
        assert_eq!(with_nick[0]["c"], Term::iri("ex:us"));
        assert_eq!(with_nick[0]["k"], Term::string("USA"));
    }

    #[test]
    fn union_combines_arm_matches() {
        let q = Query::parse("SELECT ?c ?v WHERE { { ?c <ex:gdp> ?v } UNION { ?c <ex:pop> ?v } }")
            .unwrap();
        let rows = q.execute(&sample());
        assert_eq!(rows.len(), 6, "three gdp rows plus three pop rows");
    }

    #[test]
    fn unknown_constant_is_local_to_optional_and_union_arms() {
        // Regression: an un-interned constant used to short-circuit the
        // WHOLE evaluation to empty, even when it only appeared inside an
        // OPTIONAL or UNION arm. Emptiness must stay local to the arm.
        let q = Query::parse(
            "SELECT ?c WHERE { ?c <ex:gdp> ?g . OPTIONAL { ?c <ex:never_interned> ?x } }",
        )
        .unwrap();
        assert_eq!(q.execute(&sample()).len(), 3);
        let q = Query::parse(
            "SELECT ?c ?v WHERE { { ?c <ex:gdp> ?v } UNION { ?c <ex:never_interned> ?v } }",
        )
        .unwrap();
        assert_eq!(q.execute(&sample()).len(), 3);
        // A required pattern with an unknown constant still yields zero.
        let q = Query::parse("SELECT ?c WHERE { ?c <ex:never_interned> ?g . }").unwrap();
        assert!(q.execute(&sample()).is_empty());
    }

    #[test]
    fn offset_pages_through_ordered_results() {
        let q = Query::parse("SELECT ?c WHERE { ?c <ex:gdp> ?g } ORDER BY ?g OFFSET 1 LIMIT 1")
            .unwrap();
        let rows = q.execute(&sample());
        assert_eq!(rows.len(), 1);
        // Ascending by gdp: India (3700), Germany (4200), US (21000).
        assert_eq!(rows[0]["c"], Term::iri("ex:de"));
        // An offset past the end is an empty page, not an error.
        let q = Query::parse("SELECT ?c WHERE { ?c <ex:gdp> ?g } OFFSET 9").unwrap();
        assert!(q.execute(&sample()).is_empty());
    }

    #[test]
    fn explain_shows_the_planned_join_order() {
        let text = Query::parse("SELECT ?n WHERE { ?c <ex:gdp> ?g . ?c <ex:name> ?n }")
            .unwrap()
            .explain(&sample());
        assert!(text.starts_with("bgp 2 patterns"), "{text}");
        assert!(text.contains("scan POS"), "{text}");
        assert!(text.contains("project *"), "{text}");
    }

    #[test]
    fn group_parse_errors() {
        for bad in [
            // A lone braced group must be part of a UNION.
            "SELECT ?a WHERE { { ?a <p> ?b } }",
            "SELECT ?a WHERE { { ?a <p> ?b } UNION }",
            "SELECT ?a WHERE { OPTIONAL ?a <p> ?b }",
            "SELECT ?a WHERE { OPTIONAL { } }",
            "SELECT ?a WHERE { ?a <p> ?b } OFFSET x",
        ] {
            assert!(Query::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn integer_and_boolean_literals_in_patterns() {
        let mut g = Graph::new();
        g.insert(Statement::new(
            Term::iri("s"),
            Term::iri("age"),
            Term::integer(42),
        ));
        g.insert(Statement::new(
            Term::iri("s"),
            Term::iri("alive"),
            Term::boolean(true),
        ));
        let q = Query::parse("SELECT ?s WHERE { ?s <age> 42 . ?s <alive> true . }").unwrap();
        assert_eq!(q.execute(&g).len(), 1);
    }
}
