//! Format conversion: CSV ↔ relational tables ↔ RDF statements, plus a
//! line-oriented statement serialization for persistence.
//!
//! §3: "Data in CSV files can be added to a relational database table in
//! MySQL or an RDF model in Jena… A Jena statement can be added to a
//! MySQL table. Conversely, MySQL tables can be converted to Jena
//! statements. The ability to convert data between different formats is a
//! key property of our personalized knowledge base."

use crate::KbError;
use cogsdk_rdf::model::Literal;
use cogsdk_rdf::{Graph, Statement, Term};
use cogsdk_store::table::{ColumnType, Row, Schema, Table, Value};

/// Converts a table to RDF statements.
///
/// Each row becomes a subject `<ns:row_key>` (the value of `subject_col`,
/// sanitized) with one statement per remaining column:
/// `(<ns:key> <ns:column> value)`.
///
/// # Errors
///
/// [`KbError::Store`] if `subject_col` is not a column of the table.
///
/// # Examples
///
/// ```
/// use cogsdk_store::csv::csv_to_table;
/// use cogsdk_kb::convert::table_to_statements;
///
/// let t = csv_to_table("country,gdp\nusa,21000.5\n").unwrap();
/// let stmts = table_to_statements(&t, "country", "ex").unwrap();
/// assert_eq!(stmts.len(), 1);
/// assert_eq!(stmts[0].to_string(), "<ex:usa> <ex:gdp> 21000.5 .");
/// ```
pub fn table_to_statements(
    table: &Table,
    subject_col: &str,
    namespace: &str,
) -> Result<Vec<Statement>, KbError> {
    let subject_idx = table
        .schema()
        .column_index(subject_col)
        .ok_or_else(|| KbError::Store(format!("no column {subject_col}")))?;
    let mut out = Vec::new();
    for row in table.rows() {
        let subject = Term::iri(format!(
            "{namespace}:{}",
            sanitize(&row[subject_idx].to_string())
        ));
        for (i, (col_name, _)) in table.schema().columns().iter().enumerate() {
            if i == subject_idx {
                continue;
            }
            let object = match &row[i] {
                Value::Null => continue, // NULLs produce no statement
                Value::Int(v) => Term::integer(*v),
                Value::Float(v) => Term::double(*v),
                Value::Text(v) => Term::string(v.clone()),
                Value::Bool(v) => Term::boolean(*v),
            };
            out.push(Statement::new(
                subject.clone(),
                Term::iri(format!("{namespace}:{}", sanitize(col_name))),
                object,
            ));
        }
    }
    Ok(out)
}

/// Converts a graph to a three-column relational table
/// `(subject, predicate, object)` — the Jena-statement-into-MySQL
/// direction. Objects are rendered via their display form.
pub fn statements_to_table(graph: &Graph) -> Table {
    let schema = Schema::new(vec![
        ("subject", ColumnType::Text),
        ("predicate", ColumnType::Text),
        ("object", ColumnType::Text),
    ])
    .expect("static schema is valid");
    let mut table = Table::new(schema);
    for st in graph.iter() {
        let row: Row = vec![
            Value::Text(st.subject.to_string()),
            Value::Text(st.predicate.to_string()),
            Value::Text(st.object.to_string()),
        ];
        table.insert(row).expect("schema matches construction");
    }
    table
}

/// Serializes statements to a line-oriented N-Triples-like text form
/// used for persistence (one statement per line, in the order given) —
/// `graph.iter()` for a [`Graph`], or the statements of a pinned epoch.
pub fn graph_to_text(statements: impl IntoIterator<Item = Statement>) -> String {
    let mut out = String::new();
    for st in statements {
        out.push_str(&statement_to_line(&st));
        out.push('\n');
    }
    out
}

/// Parses the output of [`graph_to_text`].
///
/// # Errors
///
/// [`KbError::Corrupt`] with the offending line number on malformed
/// input.
pub fn text_to_graph(text: &str) -> Result<Graph, KbError> {
    let mut graph = Graph::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let st = parse_statement_line(line)
            .map_err(|e| KbError::Corrupt(format!("line {}: {e}", lineno + 1)))?;
        graph.insert(st);
    }
    Ok(graph)
}

fn statement_to_line(st: &Statement) -> String {
    format!(
        "{} {} {} .",
        term_to_token(&st.subject),
        term_to_token(&st.predicate),
        term_to_token(&st.object)
    )
}

fn term_to_token(term: &Term) -> String {
    match term {
        Term::Iri(iri) => format!("<{iri}>"),
        Term::Blank(b) => format!("_:{b}"),
        Term::Literal(Literal::String(s)) => {
            format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
        }
        Term::Literal(Literal::Integer(i)) => format!("{i}"),
        Term::Literal(Literal::Double(d)) => {
            if d.fract() == 0.0 && d.is_finite() && d.abs() < 1e15 {
                format!("{d:.1}")
            } else {
                format!("{d}")
            }
        }
        Term::Literal(Literal::Boolean(b)) => format!("{b}"),
    }
}

fn parse_statement_line(line: &str) -> Result<Statement, String> {
    let body = line
        .strip_suffix('.')
        .ok_or("missing trailing '.'")?
        .trim_end();
    let mut terms = Vec::new();
    let mut rest = body.trim_start();
    while !rest.is_empty() {
        let (term, remainder) = parse_term_token(rest)?;
        terms.push(term);
        rest = remainder.trim_start();
    }
    if terms.len() != 3 {
        return Err(format!("expected 3 terms, found {}", terms.len()));
    }
    let object = terms.pop().expect("len checked");
    let predicate = terms.pop().expect("len checked");
    let subject = terms.pop().expect("len checked");
    if !subject.is_resource() {
        return Err("subject must be a resource".into());
    }
    if !matches!(predicate, Term::Iri(_)) {
        return Err("predicate must be an IRI".into());
    }
    Ok(Statement::new(subject, predicate, object))
}

fn parse_term_token(input: &str) -> Result<(Term, &str), String> {
    if let Some(rest) = input.strip_prefix('<') {
        let end = rest.find('>').ok_or("unterminated IRI")?;
        return Ok((Term::iri(&rest[..end]), &rest[end + 1..]));
    }
    if let Some(rest) = input.strip_prefix("_:") {
        let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
        return Ok((Term::blank(&rest[..end]), &rest[end..]));
    }
    if let Some(rest) = input.strip_prefix('"') {
        // Scan for the closing quote, honoring backslash escapes.
        let mut value = String::new();
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '"')) => value.push('"'),
                    Some((_, '\\')) => value.push('\\'),
                    _ => return Err("bad escape in string literal".into()),
                },
                '"' => return Ok((Term::string(value), &rest[i + 1..])),
                other => value.push(other),
            }
        }
        return Err("unterminated string literal".into());
    }
    let end = input.find(char::is_whitespace).unwrap_or(input.len());
    let word = &input[..end];
    let remainder = &input[end..];
    if word == "true" || word == "false" {
        return Ok((Term::boolean(word == "true"), remainder));
    }
    if let Ok(i) = word.parse::<i64>() {
        return Ok((Term::integer(i), remainder));
    }
    if let Ok(d) = word.parse::<f64>() {
        return Ok((Term::double(d), remainder));
    }
    Err(format!("unrecognized term token: {word}"))
}

/// Sanitizes free text into an IRI-safe local name.
pub fn sanitize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if c.is_alphanumeric() {
            out.extend(c.to_lowercase());
        } else if c == '_' || c == '-' || c == '.' {
            out.push(c);
        } else if c.is_whitespace() && !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogsdk_store::csv::csv_to_table;

    const CSV: &str = "country,gdp,population,developed\n\
                       united states,21000.5,331,true\n\
                       germany,4200.0,83,true\n\
                       mystery,,,false\n";

    #[test]
    fn table_to_statements_typed_objects() {
        let t = csv_to_table(CSV).unwrap();
        let stmts = table_to_statements(&t, "country", "ex").unwrap();
        // Row 1 and 2 contribute 3 statements each; mystery row has two
        // NULLs, contributing only 1.
        assert_eq!(stmts.len(), 7);
        let us_gdp = stmts
            .iter()
            .find(|s| {
                s.subject == Term::iri("ex:united_states") && s.predicate == Term::iri("ex:gdp")
            })
            .unwrap();
        assert_eq!(us_gdp.object, Term::double(21000.5));
        let dev = stmts
            .iter()
            .find(|s| {
                s.subject == Term::iri("ex:mystery") && s.predicate == Term::iri("ex:developed")
            })
            .unwrap();
        assert_eq!(dev.object, Term::boolean(false));
    }

    #[test]
    fn unknown_subject_column_errors() {
        let t = csv_to_table(CSV).unwrap();
        assert!(table_to_statements(&t, "nope", "ex").is_err());
    }

    #[test]
    fn statements_to_table_has_three_columns() {
        let t = csv_to_table(CSV).unwrap();
        let stmts = table_to_statements(&t, "country", "ex").unwrap();
        let graph: Graph = stmts.into_iter().collect();
        let triple_table = statements_to_table(&graph);
        assert_eq!(triple_table.len(), graph.len());
        assert_eq!(triple_table.schema().columns().len(), 3);
    }

    #[test]
    fn graph_text_round_trip() {
        let mut g = Graph::new();
        g.insert(Statement::new(
            Term::iri("ex:a"),
            Term::iri("ex:p"),
            Term::iri("ex:b"),
        ));
        g.insert(Statement::new(
            Term::iri("ex:a"),
            Term::iri("ex:n"),
            Term::integer(-5),
        ));
        g.insert(Statement::new(
            Term::iri("ex:a"),
            Term::iri("ex:d"),
            Term::double(2.5),
        ));
        g.insert(Statement::new(
            Term::iri("ex:a"),
            Term::iri("ex:f"),
            Term::double(3.0),
        ));
        g.insert(Statement::new(
            Term::iri("ex:a"),
            Term::iri("ex:b"),
            Term::boolean(true),
        ));
        g.insert(Statement::new(
            Term::iri("ex:a"),
            Term::iri("ex:s"),
            Term::string("with \"quotes\" and \\slash\\"),
        ));
        g.insert(Statement::new(
            Term::blank("n0"),
            Term::iri("ex:p"),
            Term::string("x"),
        ));
        let text = graph_to_text(g.iter());
        let back = text_to_graph(&text).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn text_parser_tolerates_comments_and_blanks() {
        let g = text_to_graph("# comment\n\n<a> <p> <b> .\n").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn text_parser_rejects_malformed_lines() {
        for bad in [
            "<a> <p>",           // no dot, two terms
            "<a> <p> .",         // two terms
            "<a> <p> <b> <c> .", // four terms
            "\"lit\" <p> <b> .", // literal subject
            "<a> \"p\" <b> .",   // literal predicate
            "<a> <p> \"unterminated .",
            "<a> <p> what .",
        ] {
            assert!(text_to_graph(bad).is_err(), "{bad}");
        }
        let err = text_to_graph("<a> <p> <b> .\nbroken").unwrap_err();
        assert!(matches!(err, KbError::Corrupt(m) if m.contains("line 2")));
    }

    #[test]
    fn float_round_trip_preserves_type() {
        let mut g = Graph::new();
        g.insert(Statement::new(
            Term::iri("s"),
            Term::iri("p"),
            Term::double(4.0),
        ));
        let back = text_to_graph(&graph_to_text(g.iter())).unwrap();
        let st = back.iter().next().unwrap();
        assert_eq!(st.object, Term::double(4.0));
        assert_ne!(st.object, Term::integer(4));
    }

    #[test]
    fn sanitize_produces_iri_safe_names() {
        assert_eq!(sanitize("United States"), "united_states");
        assert_eq!(sanitize("  A   B  "), "a_b");
        assert_eq!(sanitize("GDP ($bn)!"), "gdp_bn");
        assert_eq!(sanitize("already_fine-1.2"), "already_fine-1.2");
    }
}
