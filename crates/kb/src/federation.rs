//! Querying and importing from remote knowledge sources.
//!
//! §3: "Jena includes a SPARQL query engine which the personalized
//! knowledge base uses to query data sources such as DBpedia" and "the
//! personalized knowledge base incorporates data from multiple sources."
//! §5 adds the open problem of "data sources which contain data which may
//! not be completely accurate" — handled here by tagging every imported
//! fact with a per-source accuracy level.
//!
//! The wire protocol is the one `cogsdk-datasvc`'s knowledge service
//! speaks (`{"op": "sparql"|"describe", …}`), documented independently so
//! any conforming endpoint works.
//!
//! Imported facts are inserted as a batch into the KB's incrementally
//! maintained graph (`cogsdk_rdf::IncrementalMaterializer`), so an
//! import only propagates its own delta through any standing rulesets —
//! repeated federation pulls do not re-pay full re-materialization.

use crate::KbError;
use cogsdk_core::{Call, SdkError};
use cogsdk_json::{json, Json};
use cogsdk_rdf::query::Solution;
use cogsdk_rdf::{Statement, Term};
use cogsdk_sim::service::{Request, SimService};
use std::sync::Arc;

/// How many times a remote source is retried before giving up.
const RETRIES: usize = 2;

/// A remote call's failure as the KB reports it: a rejected query is an
/// RDF error; an unreachable source, a spent budget or an open breaker is
/// a storage error.
fn remote_error(e: SdkError) -> KbError {
    match e {
        SdkError::Rejected(m) => KbError::Rdf(m),
        SdkError::AllFailed(m) => KbError::Store(m),
        other => KbError::Store(other.to_string()),
    }
}

/// Decodes the knowledge-service JSON term encoding
/// (`{"type": "iri"|"literal"|"bnode", "value": …}`).
fn decode_term(v: &Json) -> Option<Term> {
    let kind = v.get("type")?.as_str()?;
    let value = v.get("value")?;
    match kind {
        "iri" => Some(Term::iri(value.as_str()?)),
        "bnode" => Some(Term::blank(value.as_str()?)),
        "literal" => Some(match value {
            Json::Bool(b) => Term::boolean(*b),
            Json::String(s) => Term::string(s.clone()),
            other => {
                if let Some(i) = other.as_i64() {
                    Term::integer(i)
                } else {
                    Term::double(other.as_f64()?)
                }
            }
        }),
        _ => None,
    }
}

/// Runs a SPARQL query against a remote knowledge service and returns its
/// bindings as [`Solution`]s (the same shape local queries produce, so
/// results merge trivially). Bounded by the context's deadline: the query
/// is refused outright once the budget is spent, and retries never start
/// past it — a slow federated source cannot stall a refresh forever.
///
/// # Errors
///
/// [`KbError::Store`] for unreachable services or an exhausted deadline,
/// [`KbError::Rdf`] for query rejections or malformed responses.
pub fn query_remote(
    service: &Arc<SimService>,
    sparql: &str,
    call: &Call<'_>,
) -> Result<Vec<Solution>, KbError> {
    let request = Request::new("sparql", json!({"op": "sparql", "query": (sparql)}));
    let payload = call
        .invoke(service, &request, RETRIES)
        .map_err(remote_error)?
        .payload;
    let bindings = payload
        .get("bindings")
        .and_then(Json::as_array)
        .ok_or_else(|| KbError::Rdf("response missing bindings".into()))?;
    let mut solutions = Vec::with_capacity(bindings.len());
    for row in bindings {
        let entries = row
            .as_object()
            .ok_or_else(|| KbError::Rdf("binding row is not an object".into()))?;
        let mut solution = Solution::new();
        for (var, term) in entries {
            let term = decode_term(term)
                .ok_or_else(|| KbError::Rdf(format!("undecodable term for ?{var}")))?;
            solution.insert(var.clone(), term);
        }
        solutions.push(solution);
    }
    Ok(solutions)
}

/// The facts a remote `describe` returned for one entity, ready to import.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteFacts {
    /// The entity id the source used.
    pub entity: String,
    /// The statements, subjects rewritten into the local `kb:` namespace.
    pub statements: Vec<Statement>,
}

/// Fetches every fact a knowledge source has about `entity_id` and
/// rewrites the subject into the local `kb:` namespace. Bounded by the
/// context's deadline like [`query_remote`].
///
/// # Errors
///
/// [`KbError::UnknownEntity`] when the source has no such entity;
/// [`KbError::Store`]/[`KbError::Rdf`] as for [`query_remote`].
pub fn describe_remote(
    service: &Arc<SimService>,
    entity_id: &str,
    call: &Call<'_>,
) -> Result<RemoteFacts, KbError> {
    let request = Request::new("describe", json!({"op": "describe", "entity": (entity_id)}));
    let payload = match call.invoke(service, &request, RETRIES) {
        Ok(response) => response.payload,
        Err(SdkError::Rejected(m)) if m.starts_with("404") => {
            return Err(KbError::UnknownEntity(entity_id.to_string()))
        }
        Err(e) => return Err(remote_error(e)),
    };
    let facts = payload
        .get("facts")
        .and_then(Json::as_array)
        .ok_or_else(|| KbError::Rdf("response missing facts".into()))?;
    let subject = Term::iri(format!("kb:{entity_id}"));
    let mut statements = Vec::with_capacity(facts.len());
    for fact in facts {
        let predicate_text = fact
            .get("predicate")
            .and_then(Json::as_str)
            .ok_or_else(|| KbError::Rdf("fact missing predicate".into()))?;
        // Predicates arrive in display form `<db:capital>`; rebase the
        // `db:` namespace onto the local `kb:` namespace.
        let predicate_iri = predicate_text
            .trim_start_matches('<')
            .trim_end_matches('>')
            .replace("db:", "kb:");
        let object = fact
            .get("object")
            .and_then(decode_term)
            .ok_or_else(|| KbError::Rdf("fact missing object".into()))?;
        let object = match object {
            // Rebase IRIs from the source namespace too.
            Term::Iri(iri) => Term::iri(iri.replace("db:", "kb:")),
            other => other,
        };
        statements.push(Statement::new(
            subject.clone(),
            Term::iri(predicate_iri),
            object,
        ));
    }
    Ok(RemoteFacts {
        entity: entity_id.to_string(),
        statements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogsdk_datasvc_protocol_tests::*;

    /// A tiny in-test knowledge service speaking the documented protocol
    /// (avoids a dev-dependency cycle on `cogsdk-datasvc`).
    mod cogsdk_datasvc_protocol_tests {
        use cogsdk_json::{json, Json};
        use cogsdk_sim::latency::LatencyModel;
        use cogsdk_sim::service::SimService;
        use cogsdk_sim::SimEnv;
        use std::sync::Arc;

        pub fn mini_knowledge_service(env: &SimEnv) -> Arc<SimService> {
            SimService::builder("mini-kb", "knowledge")
                .latency(LatencyModel::constant_ms(5.0))
                .handler(|req| match req.payload.get("op").and_then(Json::as_str) {
                    Some("sparql") => Ok(json!({
                        "bindings": [
                            {"c": {"type": "iri", "value": "db:germany"},
                             "p": {"type": "literal", "value": 82}},
                            {"c": {"type": "iri", "value": "db:france"},
                             "p": {"type": "literal", "value": 67}},
                        ],
                    })),
                    Some("describe") => {
                        let entity = req
                            .payload
                            .get("entity")
                            .and_then(Json::as_str)
                            .unwrap_or("");
                        if entity != "germany" {
                            return Err(format!("404 no facts about: {entity}"));
                        }
                        Ok(json!({
                            "entity": "germany",
                            "facts": [
                                {"predicate": "<db:capital>",
                                 "object": {"type": "iri", "value": "db:berlin"}},
                                {"predicate": "<db:population_millions>",
                                 "object": {"type": "literal", "value": 82}},
                                {"predicate": "<db:label>",
                                 "object": {"type": "literal", "value": "Germany"}},
                            ],
                        }))
                    }
                    _ => Err("unknown op".into()),
                })
                .build(env)
        }
    }

    use cogsdk_core::{Deadline, ServiceMonitor};
    use cogsdk_sim::SimEnv;

    #[test]
    fn remote_sparql_decodes_bindings() {
        let env = SimEnv::with_seed(1);
        let svc = mini_knowledge_service(&env);
        let monitor = ServiceMonitor::new();
        let rows =
            query_remote(&svc, "SELECT ?c ?p WHERE { ... }", &Call::plain(&monitor)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["c"], Term::iri("db:germany"));
        assert_eq!(rows[0]["p"], Term::integer(82));
        // The call was monitored like any other service call.
        assert!(monitor.history("mini-kb").is_some());
    }

    #[test]
    fn describe_rebases_namespaces() {
        let env = SimEnv::with_seed(2);
        let svc = mini_knowledge_service(&env);
        let monitor = ServiceMonitor::new();
        let facts = describe_remote(&svc, "germany", &Call::plain(&monitor)).unwrap();
        assert_eq!(facts.statements.len(), 3);
        assert!(facts.statements.contains(&Statement::new(
            Term::iri("kb:germany"),
            Term::iri("kb:capital"),
            Term::iri("kb:berlin"),
        )));
        assert!(facts.statements.contains(&Statement::new(
            Term::iri("kb:germany"),
            Term::iri("kb:population_millions"),
            Term::integer(82),
        )));
    }

    #[test]
    fn describe_unknown_entity_is_unknown_entity_error() {
        let env = SimEnv::with_seed(3);
        let svc = mini_knowledge_service(&env);
        let monitor = ServiceMonitor::new();
        assert!(matches!(
            describe_remote(&svc, "atlantis", &Call::plain(&monitor)),
            Err(KbError::UnknownEntity(_))
        ));
    }

    #[test]
    fn expired_deadline_refuses_remote_work() {
        let env = SimEnv::with_seed(4);
        let svc = mini_knowledge_service(&env);
        let monitor = ServiceMonitor::new();
        let expired = Deadline::within(env.clock(), std::time::Duration::ZERO);
        env.clock().advance(std::time::Duration::from_micros(1));
        let call = Call::plain(&monitor);
        let late = call.deadline(expired);
        let err = query_remote(&svc, "SELECT ?c WHERE { ... }", &late).unwrap_err();
        assert!(matches!(err, KbError::Store(_)), "{err:?}");
        let err = describe_remote(&svc, "germany", &late).unwrap_err();
        assert!(matches!(err, KbError::Store(_)), "{err:?}");
        assert_eq!(svc.stats().0, 0, "no budget, no remote calls");
        // Without a deadline the same calls go through.
        let rows = query_remote(&svc, "SELECT ?c WHERE { ... }", &call).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn term_decoding_covers_all_kinds() {
        assert_eq!(
            decode_term(&json!({"type": "iri", "value": "x"})),
            Some(Term::iri("x"))
        );
        assert_eq!(
            decode_term(&json!({"type": "bnode", "value": "b0"})),
            Some(Term::blank("b0"))
        );
        assert_eq!(
            decode_term(&json!({"type": "literal", "value": "s"})),
            Some(Term::string("s"))
        );
        assert_eq!(
            decode_term(&json!({"type": "literal", "value": 3})),
            Some(Term::integer(3))
        );
        assert_eq!(
            decode_term(&json!({"type": "literal", "value": 2.5})),
            Some(Term::double(2.5))
        );
        assert_eq!(
            decode_term(&json!({"type": "literal", "value": true})),
            Some(Term::boolean(true))
        );
        assert_eq!(decode_term(&json!({"type": "mystery", "value": 1})), None);
        assert_eq!(decode_term(&json!({})), None);
    }
}
