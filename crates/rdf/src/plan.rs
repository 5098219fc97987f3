//! Cost-based planning and execution for basic graph patterns (BGPs).
//!
//! The SPARQL engine the paper leans on (§3, the Jena query engine behind
//! the personalized knowledge base) evaluates conjunctive queries — sets
//! of triple patterns joined on shared variables. This module turns such a
//! set into an executable plan instead of evaluating patterns in textual
//! order:
//!
//! 1. **Selectivity estimation.** Each pattern's cardinality is read off
//!    the SPO/POS/OSP sort orders with [`QueryView::count_ids_capped`]:
//!    constants bound, variables wild, saturating at a fixed cap (4096).
//!    On the epoch snapshot every query is served from, an estimate is two
//!    binary searches per sorted run (the base arrays, then each delta
//!    run until the cap), an upper bound that ignores deletions. No
//!    samples, no histograms — the sorted arrays *are* the statistics.
//! 2. **Greedy join ordering.** The most selective pattern runs first;
//!    every subsequent choice prefers patterns connected to the already
//!    bound variables (avoiding cartesian products) and, among those, the
//!    smallest estimate.
//! 3. **Join operators.** When the next pattern's index scan is sorted by
//!    a variable the current rows are already sorted by, the planner emits
//!    a **merge join** over the two sorted streams (the RDF-3X trick: the
//!    epoch's sorted arrays hand out sorted ranges for free). Otherwise it falls
//!    back to an **index nested-loop join**, probing the best index per
//!    row.
//!
//! On top of the required patterns the plan supports `OPTIONAL` groups
//! (left-outer joins), `UNION` blocks (bag union of arm expansions),
//! variable projection, and offset/limit paging. [`ExecPlan::explain`]
//! renders the chosen strategy as stable text so tests (and the gateway)
//! can pin join orders.
//!
//! [`ExecPlan::run`] executes depth-first over the required patterns
//! (planner order), then `UNION` blocks, then `OPTIONAL` groups, binding
//! variables in place in one row buffer. Each finished id row goes to a
//! sink that can stop the execution, so a slice ends the join once its
//! last row is out, and terms are resolved only for rows returned.
//! Results are bags — duplicates are preserved, matching SPARQL multiset
//! semantics.
//!
//! # Examples
//!
//! ```
//! use cogsdk_rdf::{BgpQuery, Graph, Statement, Term};
//!
//! let mut g = Graph::new();
//! g.insert(Statement::new(Term::iri("ex:us"), Term::iri("ex:gdp"), Term::double(21000.0)));
//! g.insert(Statement::new(Term::iri("ex:us"), Term::iri("ex:name"), Term::string("US")));
//!
//! let q = BgpQuery::new()
//!     .pattern_text("(?c <ex:gdp> ?g)").unwrap()
//!     .pattern_text("(?c <ex:name> ?n)").unwrap()
//!     .select(["n"]);
//! let rows = q.execute(&g);
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows[0]["n"], Term::string("US"));
//! ```

use crate::dict::{IdTriple, TermDict, TermId};
use crate::graph::QueryView;
use crate::query::Solution;
use crate::reason::{var_index, IdPattern, IdPatternTerm, PatternTerm, TriplePattern};
use crate::RdfError;
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::time::Instant;

/// Cardinality estimates saturate here. Ordering patterns only needs
/// estimates good enough to rank them. On an epoch snapshot an estimate
/// is two binary searches per sorted run, and runs stop being added once
/// the sum reaches the cap; a [`Graph`](crate::Graph) counts its BTree
/// range, `O(min(matches, cap))`, where without a cap *planning* a query
/// would cost as much as scanning it. `explain()` renders the saturated
/// value, so `est=4096` reads as "at least 4096".
const ESTIMATE_CAP: usize = 4096;

/// A basic graph pattern query: required patterns joined on shared
/// variables, plus optional groups, union blocks, projection and paging.
///
/// Build one with the fluent methods, then either [`execute`](Self::execute)
/// it directly or [`plan`](Self::plan) it first to inspect the chosen join
/// strategy via [`ExecPlan::explain`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BgpQuery {
    patterns: Vec<TriplePattern>,
    unions: Vec<Vec<Vec<TriplePattern>>>,
    optionals: Vec<Vec<TriplePattern>>,
    select: Vec<String>,
    offset: usize,
    limit: Option<usize>,
}

impl BgpQuery {
    /// Creates an empty query.
    pub fn new() -> BgpQuery {
        BgpQuery::default()
    }

    /// Adds a required triple pattern.
    #[must_use]
    pub fn pattern(mut self, pattern: TriplePattern) -> BgpQuery {
        self.patterns.push(pattern);
        self
    }

    /// Adds a required pattern from `(term term term)` text — the same
    /// grammar as [`TriplePattern::parse`].
    ///
    /// # Errors
    ///
    /// Returns [`RdfError`] on malformed patterns.
    pub fn pattern_text(self, text: &str) -> Result<BgpQuery, RdfError> {
        Ok(self.pattern(TriplePattern::parse(text)?))
    }

    /// Adds an `OPTIONAL` group: a left-outer join against the patterns in
    /// `group`. Rows that match extend; rows that don't pass through with
    /// the group's variables unbound.
    #[must_use]
    pub fn optional(mut self, group: Vec<TriplePattern>) -> BgpQuery {
        self.optionals.push(group);
        self
    }

    /// Adds a `UNION` block: each input row is extended through every arm
    /// and the expansions are bag-unioned. A row that matches no arm is
    /// dropped.
    #[must_use]
    pub fn union(mut self, arms: Vec<Vec<TriplePattern>>) -> BgpQuery {
        self.unions.push(arms);
        self
    }

    /// Projects the result to the named variables (without `?`). An empty
    /// selection — the default — keeps every variable.
    #[must_use]
    pub fn select<I, S>(mut self, vars: I) -> BgpQuery
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.select = vars.into_iter().map(Into::into).collect();
        self
    }

    /// Skips the first `n` result rows (applied before `limit`).
    #[must_use]
    pub fn offset(mut self, n: usize) -> BgpQuery {
        self.offset = n;
        self
    }

    /// Caps the result at `n` rows (applied after `offset`).
    #[must_use]
    pub fn limit(mut self, n: usize) -> BgpQuery {
        self.limit = Some(n);
        self
    }

    /// Compiles the query into an executable plan against any
    /// [`QueryView`] — the live [`Graph`](crate::Graph) or a pinned
    /// [`EpochSnapshot`](crate::EpochSnapshot): greedy cost-based join
    /// ordering with merge joins where the index sort orders line up. The
    /// plan borrows nothing but holds term ids from the view's
    /// dictionary, so it must execute against the same view (or one
    /// sharing its dictionary, e.g. a paging snapshot).
    pub fn plan<V: QueryView>(&self, graph: &V) -> ExecPlan {
        self.plan_inner(graph, true)
    }

    /// Compiles the query *without* the optimizer: required patterns run
    /// pattern-at-a-time in the order they were added, always via nested
    /// loops. This is the reference baseline the oracle suite and the
    /// `ablation_query` bench compare the planner against.
    pub fn plan_textual<V: QueryView>(&self, graph: &V) -> ExecPlan {
        self.plan_inner(graph, false)
    }

    /// Whether the query has no pattern at all to match.
    pub(crate) fn is_empty(&self) -> bool {
        self.patterns.is_empty() && self.unions.is_empty() && self.optionals.is_empty()
    }

    /// Plans and executes in one call.
    pub fn execute<V: QueryView>(&self, graph: &V) -> Vec<Solution> {
        self.plan(graph).execute(graph)
    }

    /// Executes with the optimizer bypassed (see
    /// [`plan_textual`](Self::plan_textual)).
    pub fn execute_textual<V: QueryView>(&self, graph: &V) -> Vec<Solution> {
        self.plan_textual(graph).execute(graph)
    }

    fn plan_inner<V: QueryView>(&self, graph: &V, optimize: bool) -> ExecPlan {
        let start = Instant::now();
        let dict = graph.dict();
        let mut vars: Vec<String> = Vec::new();

        let required: Vec<Option<IdPattern>> = self
            .patterns
            .iter()
            .map(|p| compile_lookup(p, dict, &mut vars))
            .collect();
        let unions: Vec<Vec<Option<Vec<IdPattern>>>> = self
            .unions
            .iter()
            .map(|arms| {
                arms.iter()
                    .map(|arm| compile_group(arm, dict, &mut vars))
                    .collect()
            })
            .collect();
        let optionals: Vec<Option<Vec<IdPattern>>> = self
            .optionals
            .iter()
            .map(|g| compile_group(g, dict, &mut vars))
            .collect();

        let nothing_to_match = self.is_empty();
        let empty = nothing_to_match || required.iter().any(Option::is_none);

        let mut steps: Vec<Step> = Vec::new();
        let mut lines: Vec<String> = Vec::new();
        let mut merge_joins = 0usize;
        let mut loop_joins = 0usize;

        if empty {
            lines.push(if nothing_to_match {
                "empty (no patterns)".to_string()
            } else {
                "empty (a required pattern names a term absent from the dictionary)".to_string()
            });
        } else if !required.is_empty() {
            let pats: Vec<IdPattern> = required
                .iter()
                .map(|p| p.expect("emptiness checked above"))
                .collect();
            let est: Vec<usize> = pats
                .iter()
                .map(|p| {
                    graph.count_ids_capped(
                        const_slot(p.subject),
                        const_slot(p.predicate),
                        const_slot(p.object),
                        ESTIMATE_CAP,
                    )
                })
                .collect();
            let mut remaining: Vec<usize> = (0..pats.len()).collect();
            let mut bound: HashSet<usize> = HashSet::new();
            let mut sorted_var: Option<usize> = None;
            while !remaining.is_empty() {
                let pick = if !optimize {
                    0
                } else if steps.is_empty() {
                    argmin(&remaining, |&i| est[i])
                } else {
                    let connected: Vec<usize> = (0..remaining.len())
                        .filter(|&k| {
                            vars_of(pats[remaining[k]])
                                .iter()
                                .any(|v| bound.contains(v))
                        })
                        .collect();
                    if connected.is_empty() {
                        argmin(&remaining, |&i| est[i])
                    } else {
                        connected[argmin(&connected, |&k| est[remaining[k]])]
                    }
                };
                let idx = remaining.remove(pick);
                let p = pats[idx];
                let (index_name, sort_pos) = index_choice(p);
                let scan_sort_var = sort_pos.and_then(|pos| var_at(p, pos));
                let rendered = render_pattern(&self.patterns[idx]);
                if steps.is_empty() {
                    steps.push(Step::Loop { pattern: p });
                    let sorted = match scan_sort_var {
                        Some(v) => format!(" sorted=?{}", vars[v]),
                        None => String::new(),
                    };
                    lines.push(format!(
                        "scan {index_name} {rendered} est={}{sorted}",
                        est[idx]
                    ));
                    sorted_var = scan_sort_var;
                } else if let Some(v) = scan_sort_var
                    .filter(|v| optimize && sorted_var == Some(*v) && bound.contains(v))
                {
                    let pos = sort_pos.expect("sort var implies sort position");
                    steps.push(Step::Merge {
                        pattern: p,
                        var: v,
                        pos,
                    });
                    merge_joins += 1;
                    lines.push(format!(
                        "merge[?{}] {index_name} {rendered} est={}",
                        vars[v], est[idx]
                    ));
                } else {
                    steps.push(Step::Loop { pattern: p });
                    loop_joins += 1;
                    lines.push(format!("loop {index_name} {rendered} est={}", est[idx]));
                }
                bound.extend(vars_of(p));
            }
        }

        if !empty {
            for (bi, arms) in unions.iter().enumerate() {
                let rendered: Vec<String> = arms
                    .iter()
                    .zip(&self.unions[bi])
                    .map(|(compiled, source)| match compiled {
                        Some(_) => format!("{{ {} }}", render_group(source)),
                        None => "{ no-match }".to_string(),
                    })
                    .collect();
                lines.push(format!("union {}", rendered.join(" | ")));
                steps.push(Step::Union {
                    arms: arms.iter().filter_map(Clone::clone).collect(),
                });
            }
            for (source, group) in self.optionals.iter().zip(optionals) {
                let suffix = if group.is_none() { " no-match" } else { "" };
                lines.push(format!("optional {}{suffix}", render_group(source)));
                if let Some(group) = group {
                    steps.push(Step::Optional { group });
                }
            }
        }

        lines.push(format!(
            "slice offset={} limit={}",
            self.offset,
            self.limit
                .map_or_else(|| "none".to_string(), |l| l.to_string())
        ));
        lines.push(if self.select.is_empty() {
            "project *".to_string()
        } else {
            let names: Vec<String> = self.select.iter().map(|v| format!("?{v}")).collect();
            format!("project {}", names.join(" "))
        });

        let header = format!(
            "bgp {} patterns ({merge_joins} merge, {loop_joins} loop)",
            self.patterns.len()
        );
        lines.insert(0, header);

        ExecPlan {
            vars,
            select: self.select.clone(),
            steps,
            empty,
            offset: self.offset,
            limit: self.limit,
            explain: lines.join("\n"),
            stats: QueryStats {
                plan_micros: start.elapsed().as_micros() as u64,
                merge_joins,
                loop_joins,
                patterns: self.patterns.len(),
                ..QueryStats::default()
            },
        }
    }
}

/// One operator in an [`ExecPlan`].
#[derive(Debug, Clone)]
enum Step {
    /// Merge join: current rows and the pattern's index scan are both
    /// sorted by `var` (`pos` is the position of `var` in the scanned
    /// tuples).
    Merge {
        pattern: IdPattern,
        var: usize,
        pos: usize,
    },
    /// Index nested-loop join: per row, probe the best index. The opening
    /// scan is this step run for the one empty row.
    Loop { pattern: IdPattern },
    /// Bag union over arm expansions. Dead arms (unknown constants) are
    /// already pruned; an empty arm list matches nothing.
    Union { arms: Vec<Vec<IdPattern>> },
    /// Left-outer join against a pattern group. A group that can never
    /// match (unknown constant) gets no step: rows pass through unchanged.
    Optional { group: Vec<IdPattern> },
}

/// A compiled, executable query plan. Produced by [`BgpQuery::plan`];
/// holds term ids from the planning graph's dictionary, so it must run
/// against that graph or one sharing the dictionary (e.g. a clone taken
/// as a paging snapshot).
#[derive(Debug, Clone)]
pub struct ExecPlan {
    vars: Vec<String>,
    select: Vec<String>,
    steps: Vec<Step>,
    empty: bool,
    offset: usize,
    limit: Option<usize>,
    explain: String,
    /// The plan's counters; execution adds its work counters to a copy.
    stats: QueryStats,
}

/// Counters describing one planned execution, for metrics and the
/// gateway's `/query` `stats`. The work counters are exact for a given
/// view and query, so a change in work shows as a count, not a timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Time spent planning, in microseconds.
    pub plan_micros: u64,
    /// Result rows returned (after slice and projection).
    pub rows: usize,
    /// Merge-join operators in the plan.
    pub merge_joins: usize,
    /// Nested-loop-join operators in the plan.
    pub loop_joins: usize,
    /// Required patterns in the query.
    pub patterns: usize,
    /// Index lookups made: one per scan or loop probe, one per merge join.
    pub index_probes: usize,
    /// Triples consumed from those lookups before execution stopped.
    pub rows_scanned: usize,
    /// Rows whose terms were resolved to build the output: those returned.
    pub rows_materialised: usize,
}

impl ExecPlan {
    /// A stable, line-oriented rendering of the plan: the join order, the
    /// index and operator chosen per pattern, cardinality estimates, and
    /// the slice/projection tail. Golden tests pin this text.
    pub fn explain(&self) -> &str {
        &self.explain
    }

    /// The plan's variable table: every variable across required patterns,
    /// unions and optionals, in first-appearance order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Time spent planning, in microseconds.
    pub fn plan_micros(&self) -> u64 {
        self.stats.plan_micros
    }

    /// Runs the plan depth-first, handing each finished id row (indexes
    /// match [`vars`](Self::vars); `None` = unbound) to `sink` in a fixed
    /// order; `Break` from `sink` stops it before any further index lookup.
    /// The plan's own slice and projection are *not* applied. Returns the
    /// plan's counters plus `index_probes` and `rows_scanned`.
    pub fn run<V: QueryView>(
        &self,
        graph: &V,
        sink: &mut dyn FnMut(&[Option<TermId>]) -> ControlFlow<()>,
    ) -> QueryStats {
        let mut exec = Executor {
            graph,
            steps: &self.steps,
            row: vec![None; self.vars.len()],
            merges: vec![None; self.steps.len()],
            fingers: vec![0; self.steps.len()],
            extended: 0,
            stats: self.stats,
            sink,
        };
        if !self.empty {
            let _ = exec.step(0);
        }
        exec.stats
    }

    /// Executes the plan, applies its offset/limit slice, and materializes
    /// terms for the projected variables. Unbound variables (e.g. from
    /// unmatched optionals) are simply absent from their row.
    pub fn execute<V: QueryView>(&self, graph: &V) -> Vec<Solution> {
        let columns = columns(&self.vars, &self.select);
        let mut out = Vec::new();
        self.run(
            graph,
            &mut window(self.offset, self.limit, |row| {
                out.push(solution(&columns, graph.dict(), row));
            }),
        );
        out
    }
}

/// OFFSET/LIMIT over a row stream: passes rows `[offset, offset + limit)`
/// to `emit` and breaks right after the last of them, so no lookup runs
/// for a row that could not be returned.
pub(crate) fn window(
    offset: usize,
    limit: Option<usize>,
    mut emit: impl FnMut(&[Option<TermId>]),
) -> impl FnMut(&[Option<TermId>]) -> ControlFlow<()> {
    let end = limit.map_or(usize::MAX, |l| offset.saturating_add(l));
    let mut seen = 0usize;
    move |row| {
        seen += 1;
        if seen > offset && seen <= end {
            emit(row);
        }
        if seen >= end {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// A projection's columns, `(name, index into vars)`: each selected variable
/// the plan knows, in `select` order, or every variable if none is selected.
pub(crate) fn columns<'a>(vars: &'a [String], select: &'a [String]) -> Vec<(&'a str, usize)> {
    let names = if select.is_empty() { vars } else { select };
    names
        .iter()
        .filter_map(|n| Some((n.as_str(), vars.iter().position(|v| v == n)?)))
        .collect()
}

/// Resolves the bound `columns` of one id row into a [`Solution`].
pub(crate) fn solution(
    columns: &[(&str, usize)],
    dict: &TermDict,
    row: &[Option<TermId>],
) -> Solution {
    columns
        .iter()
        .filter_map(|&(name, i)| Some((name.to_string(), dict.resolve(row[i]?))))
        .collect()
}

/// Depth-first execution state: one row buffer, bound and unbound in place.
struct Executor<'a, V> {
    graph: &'a V,
    steps: &'a [Step],
    row: Vec<Option<TermId>>,
    /// Per step, a merge join's cursor, made when its first row arrives.
    merges: Vec<Option<MergeCursor>>,
    /// Per step, where its last index probe landed (see `match_ids_near`).
    fingers: Vec<usize>,
    /// Rows that made it through a whole pattern group. An `OPTIONAL`
    /// whose group leaves this unchanged passes its input row on.
    extended: usize,
    stats: QueryStats,
    sink: &'a mut dyn FnMut(&[Option<TermId>]) -> ControlFlow<()>,
}

/// A merge join's sorted index scan and its forward-only cursor.
#[derive(Debug, Clone)]
struct MergeCursor {
    scan: Vec<IdTriple>,
    next: usize,
    /// The last merge key seen, to check that rows arrive sorted.
    key: TermId,
}

impl<V: QueryView> Executor<'_, V> {
    /// Continues the row at step `at`, or hands it to the sink after the last.
    fn step(&mut self, at: usize) -> ControlFlow<()> {
        let steps = self.steps;
        let Some(step) = steps.get(at) else {
            return (self.sink)(&self.row);
        };
        match step {
            Step::Loop { pattern } => self.join(std::slice::from_ref(pattern), at + 1),
            Step::Merge { pattern, var, pos } => self.merge(at, pattern, *var, *pos),
            Step::Union { arms } => {
                for arm in arms {
                    self.join(arm, at + 1)?;
                }
                ControlFlow::Continue(())
            }
            Step::Optional { group } => {
                let before = self.extended;
                self.join(group, at + 1)?;
                if self.extended == before {
                    self.step(at + 1)
                } else {
                    ControlFlow::Continue(())
                }
            }
        }
    }

    /// Joins the current row through `patterns`, one index probe per
    /// pattern with the row's bindings as constants, then continues at
    /// step `next`.
    fn join(&mut self, patterns: &[IdPattern], next: usize) -> ControlFlow<()> {
        let Some((pattern, rest)) = patterns.split_first() else {
            self.extended += 1;
            return self.step(next);
        };
        let triples = self.graph.match_ids_near(
            pattern.subject.bind(&self.row),
            pattern.predicate.bind(&self.row),
            pattern.object.bind(&self.row),
            &mut self.fingers[next - 1],
        );
        self.stats.index_probes += 1;
        for t in triples {
            self.stats.rows_scanned += 1;
            self.extend(pattern, t, |exec| exec.join(rest, next))?;
        }
        ControlFlow::Continue(())
    }

    /// Merge join: rows reach step `at` sorted by `var` (the opening
    /// scan's sort variable, which later joins only extend), so one
    /// forward-only cursor over the index scan, sorted by the tuple
    /// component at `pos`, serves them all.
    fn merge(&mut self, at: usize, pattern: &IdPattern, var: usize, pos: usize) -> ControlFlow<()> {
        let k = self.row[var].expect("the opening scan binds the merge var");
        let key_of = |t: IdTriple| [t.0, t.1, t.2][pos];
        let mut cursor = self.merges[at].take().unwrap_or_else(|| {
            self.stats.index_probes += 1;
            let scan = self.graph.match_ids(
                const_slot(pattern.subject),
                const_slot(pattern.predicate),
                const_slot(pattern.object),
            );
            MergeCursor {
                scan,
                next: 0,
                key: k,
            }
        });
        debug_assert!(cursor.key <= k, "rows must reach a merge join sorted");
        cursor.key = k;
        while cursor.scan.get(cursor.next).is_some_and(|&t| key_of(t) < k) {
            cursor.next += 1;
            self.stats.rows_scanned += 1;
        }
        for &t in cursor.scan[cursor.next..]
            .iter()
            .take_while(|&&t| key_of(t) == k)
        {
            self.stats.rows_scanned += 1;
            // A `Break` ends the execution, so the cursor need not be put
            // back on that path.
            self.extend(pattern, t, |exec| exec.step(at + 1))?;
        }
        self.merges[at] = Some(cursor);
        ControlFlow::Continue(())
    }

    /// Binds `pattern`'s unbound variables to triple `t` if `t` agrees
    /// with its constants and already-bound variables (repeated variables
    /// included), runs `then`, and unbinds them again.
    fn extend(
        &mut self,
        pattern: &IdPattern,
        t: IdTriple,
        then: impl FnOnce(&mut Self) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mut fresh = [0usize; 3];
        let mut bound = 0;
        let mut agrees = true;
        for (slot, val) in [
            (pattern.subject, t.0),
            (pattern.predicate, t.1),
            (pattern.object, t.2),
        ] {
            match slot {
                IdPatternTerm::Var(i) if self.row[i].is_none() => {
                    self.row[i] = Some(val);
                    fresh[bound] = i;
                    bound += 1;
                }
                _ => agrees &= slot.bind(&self.row) == Some(val),
            }
        }
        let flow = if agrees {
            then(self)
        } else {
            ControlFlow::Continue(())
        };
        for &i in &fresh[..bound] {
            self.row[i] = None;
        }
        flow
    }
}

/// Compiles one pattern in lookup mode. Variables are registered in
/// `vars` for *all three* slots before the unknown-constant check, so a
/// dead pattern still contributes its variable names to the plan's table.
fn compile_lookup(
    pattern: &TriplePattern,
    dict: &TermDict,
    vars: &mut Vec<String>,
) -> Option<IdPattern> {
    let slot = |t: &PatternTerm, vars: &mut Vec<String>| match t {
        PatternTerm::Term(term) => dict.lookup(term).map(IdPatternTerm::Const),
        PatternTerm::Var(v) => Some(IdPatternTerm::Var(var_index(v, vars))),
    };
    let s = slot(&pattern.subject, vars);
    let p = slot(&pattern.predicate, vars);
    let o = slot(&pattern.object, vars);
    Some(IdPattern {
        subject: s?,
        predicate: p?,
        object: o?,
    })
}

/// Compiles a pattern group; `None` if any member references a term the
/// dictionary has never seen (the group can never match). Emptiness is
/// local to the group — a dead `OPTIONAL`/`UNION` arm must not empty the
/// whole query.
fn compile_group(
    group: &[TriplePattern],
    dict: &TermDict,
    vars: &mut Vec<String>,
) -> Option<Vec<IdPattern>> {
    let compiled: Vec<Option<IdPattern>> = group
        .iter()
        .map(|p| compile_lookup(p, dict, vars))
        .collect();
    compiled.into_iter().collect()
}

fn const_slot(slot: IdPatternTerm) -> Option<TermId> {
    match slot {
        IdPatternTerm::Const(c) => Some(c),
        IdPatternTerm::Var(_) => None,
    }
}

fn var_at(pattern: IdPattern, pos: usize) -> Option<usize> {
    match [pattern.subject, pattern.predicate, pattern.object][pos] {
        IdPatternTerm::Var(i) => Some(i),
        IdPatternTerm::Const(_) => None,
    }
}

fn vars_of(pattern: IdPattern) -> Vec<usize> {
    [pattern.subject, pattern.predicate, pattern.object]
        .into_iter()
        .filter_map(|s| match s {
            IdPatternTerm::Var(i) => Some(i),
            IdPatternTerm::Const(_) => None,
        })
        .collect()
}

/// Index routing mirror of [`Graph::match_ids`]: which index a
/// constants-only scan of `pattern` uses, and which tuple position the
/// results are (primarily) sorted by — `None` when fully bound.
fn index_choice(pattern: IdPattern) -> (&'static str, Option<usize>) {
    let bound = |s: IdPatternTerm| matches!(s, IdPatternTerm::Const(_));
    match (
        bound(pattern.subject),
        bound(pattern.predicate),
        bound(pattern.object),
    ) {
        (true, true, true) => ("SPO", None),
        (true, true, false) => ("SPO", Some(2)),
        (true, false, true) => ("OSP", Some(1)),
        (true, false, false) => ("SPO", Some(1)),
        (false, true, true) => ("POS", Some(0)),
        (false, true, false) => ("POS", Some(2)),
        (false, false, true) => ("OSP", Some(0)),
        (false, false, false) => ("SPO", Some(0)),
    }
}

fn argmin<T: Copy, K: Ord>(items: &[T], key: impl Fn(&T) -> K) -> usize {
    let mut best = 0;
    for i in 1..items.len() {
        if key(&items[i]) < key(&items[best]) {
            best = i;
        }
    }
    best
}

fn render_pattern(pattern: &TriplePattern) -> String {
    let slot = |t: &PatternTerm| match t {
        PatternTerm::Var(v) => format!("?{v}"),
        PatternTerm::Term(t) => t.to_string(),
    };
    format!(
        "({} {} {})",
        slot(&pattern.subject),
        slot(&pattern.predicate),
        slot(&pattern.object)
    )
}

fn render_group(group: &[TriplePattern]) -> String {
    let parts: Vec<String> = group.iter().map(render_pattern).collect();
    parts.join(" ")
}
