//! Full-document NLU analysis: the output schema of a natural language
//! understanding service.
//!
//! [`Analyzer::analyze`] runs every analysis (entities + disambiguation,
//! targeted sentiment, keywords, concepts, relations, document sentiment)
//! and returns a [`DocumentAnalysis`] that serializes to/from the JSON
//! wire schema spoken by the simulated NLU services.
//! [`Analyzer::entities_and_relations`] is its first half alone: what a
//! knowledge base stores of a document.
//!
//! [`NluConfig`] models vendor quality differences: a lower-quality vendor
//! misses entities (recall < 1) and reports noisier sentiment. Degradation
//! is *deterministic* (hash-based) so experiments are reproducible.

use crate::concepts::{classify, Concept};
use crate::disambig::EntityCatalog;
use crate::keywords::{extract, DocumentFrequencies, Keyword};
use crate::lexicon::Lexicons;
use crate::ner::recognize_lowered;
use crate::relations::{extract as extract_relations, Relation};
use crate::sentiment::{document as document_sentiment, targeted, Sentiment};
use crate::tokenize::{tokenize, Token};
use cogsdk_json::{json, Json};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// An entity in an analysis result: all mentions of one canonical entity,
/// with entity-targeted sentiment.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityResult {
    /// Canonical id (disambiguated).
    pub canonical: String,
    /// Display name.
    pub name: String,
    /// Type label (`"country"`, `"organization"`, …).
    pub kind: String,
    /// Number of mentions in the document.
    pub count: usize,
    /// Mean targeted sentiment over the mentions.
    pub sentiment: Sentiment,
    /// DBpedia-style URL (empty for synthetic entities).
    pub dbpedia: String,
}

/// The complete analysis of one document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DocumentAnalysis {
    /// Disambiguated entities.
    pub entities: Vec<EntityResult>,
    /// Extracted keywords (not disambiguated, per §2.2).
    pub keywords: Vec<Keyword>,
    /// Taxonomy categories.
    pub concepts: Vec<Concept>,
    /// Entity-to-entity relations.
    pub relations: Vec<Relation>,
    /// Document-level sentiment.
    pub sentiment: Sentiment,
}

impl DocumentAnalysis {
    /// Serializes to the JSON wire schema.
    pub fn to_json(&self) -> Json {
        json!({
            "entities": (Json::Array(
                self.entities
                    .iter()
                    .map(|e| json!({
                        "id": (e.canonical.as_str()),
                        "name": (e.name.as_str()),
                        "type": (e.kind.as_str()),
                        "count": (e.count),
                        "sentiment": (e.sentiment.score),
                        "dbpedia": (e.dbpedia.as_str()),
                    }))
                    .collect(),
            )),
            "keywords": (Json::Array(
                self.keywords
                    .iter()
                    .map(|k| json!({
                        "text": (k.text.as_str()),
                        "relevance": (k.relevance),
                        "count": (k.count),
                    }))
                    .collect(),
            )),
            "concepts": (Json::Array(
                self.concepts
                    .iter()
                    .map(|c| json!({
                        "label": (c.label.as_str()),
                        "confidence": (c.confidence),
                    }))
                    .collect(),
            )),
            "relations": (Json::Array(
                self.relations
                    .iter()
                    .map(|r| json!({
                        "subject": (r.subject.as_str()),
                        "predicate": (r.predicate.as_str()),
                        "object": (r.object.as_str()),
                    }))
                    .collect(),
            )),
            "sentiment": {
                "score": (self.sentiment.score),
                "label": (self.sentiment.label()),
                "evidence": (self.sentiment.evidence),
            },
        })
    }

    /// Parses the JSON wire schema back into an analysis.
    ///
    /// Fields absent from the payload parse as empty; this mirrors how a
    /// real SDK must tolerate vendors that omit analyses.
    pub fn from_json(v: &Json) -> DocumentAnalysis {
        let entities = v
            .get("entities")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|e| {
                Some(EntityResult {
                    canonical: e.get("id")?.as_str()?.to_string(),
                    name: e
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    kind: e
                        .get("type")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    count: e.get("count").and_then(Json::as_usize).unwrap_or(1),
                    sentiment: Sentiment {
                        score: e.get("sentiment").and_then(Json::as_f64).unwrap_or(0.0),
                        evidence: 1,
                    },
                    dbpedia: e
                        .get("dbpedia")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                })
            })
            .collect();
        let keywords = v
            .get("keywords")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|k| {
                Some(Keyword {
                    text: k.get("text")?.as_str()?.to_string(),
                    relevance: k.get("relevance").and_then(Json::as_f64).unwrap_or(0.0),
                    count: k.get("count").and_then(Json::as_usize).unwrap_or(1),
                })
            })
            .collect();
        let concepts = v
            .get("concepts")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|c| {
                Some(Concept {
                    label: c.get("label")?.as_str()?.to_string(),
                    confidence: c.get("confidence").and_then(Json::as_f64).unwrap_or(0.0),
                })
            })
            .collect();
        let relations = v
            .get("relations")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|r| {
                Some(Relation {
                    subject: r.get("subject")?.as_str()?.to_string(),
                    predicate: r.get("predicate")?.as_str()?.to_string(),
                    object: r.get("object")?.as_str()?.to_string(),
                    sentence: 0,
                })
            })
            .collect();
        let sentiment = Sentiment {
            score: v
                .pointer("/sentiment/score")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            evidence: v
                .pointer("/sentiment/evidence")
                .and_then(Json::as_usize)
                .unwrap_or(0),
        };
        DocumentAnalysis {
            entities,
            keywords,
            concepts,
            relations,
            sentiment,
        }
    }
}

/// Vendor quality profile for an NLU service.
#[derive(Debug, Clone, PartialEq)]
pub struct NluConfig {
    /// A salt distinguishing vendors; drives deterministic degradation.
    pub vendor: String,
    /// Probability of *keeping* each true entity (recall).
    pub entity_recall: f64,
    /// Half-width of uniform noise added to sentiment scores.
    pub sentiment_noise: f64,
    /// Maximum keywords returned.
    pub keyword_limit: usize,
    /// Maximum concepts returned.
    pub concept_limit: usize,
    /// Whether relations are extracted at all (some vendors don't offer
    /// relation extraction).
    pub relations: bool,
}

impl NluConfig {
    /// A perfect-quality configuration (ground truth).
    pub fn perfect() -> NluConfig {
        NluConfig {
            vendor: "perfect".into(),
            entity_recall: 1.0,
            sentiment_noise: 0.0,
            keyword_limit: 10,
            concept_limit: 5,
            relations: true,
        }
    }

    /// A named vendor with the given recall and noise.
    ///
    /// # Panics
    ///
    /// Panics if `entity_recall` is outside `[0, 1]` or `sentiment_noise`
    /// is negative.
    pub fn vendor(name: impl Into<String>, entity_recall: f64, sentiment_noise: f64) -> NluConfig {
        assert!(
            (0.0..=1.0).contains(&entity_recall),
            "recall must be in [0, 1]"
        );
        assert!(sentiment_noise >= 0.0, "noise must be non-negative");
        NluConfig {
            vendor: name.into(),
            entity_recall,
            sentiment_noise,
            ..NluConfig::perfect()
        }
    }

    /// The quality score in `[0, 1]` this configuration amounts to; used
    /// as ground truth by ranking experiments.
    pub fn quality(&self) -> f64 {
        (self.entity_recall * (1.0 - self.sentiment_noise.min(1.0) / 2.0)).clamp(0.0, 1.0)
    }
}

/// Deterministic "randomness" from hashes: the same vendor analyzing the
/// same item always degrades it the same way.
fn unit_hash(vendor: &str, item: &str) -> f64 {
    let mut h = DefaultHasher::new();
    vendor.hash(&mut h);
    item.hash(&mut h);
    (h.finish() >> 11) as f64 / (1u64 << 53) as f64
}

/// Vendor degradation of grouped entities: drops entities
/// deterministically by recall, perturbs sentiment by hash noise, and
/// sorts by mention count, then id.
fn vendor_view(
    grouped: impl Iterator<Item = EntityResult>,
    config: &NluConfig,
) -> Vec<EntityResult> {
    let mut entities: Vec<EntityResult> = grouped
        .filter(|e| {
            config.entity_recall >= 1.0
                || unit_hash(&config.vendor, &e.canonical) < config.entity_recall
        })
        .map(|mut e| {
            if config.sentiment_noise > 0.0 {
                let noise = (unit_hash(&config.vendor, &format!("s:{}", e.canonical)) - 0.5)
                    * 2.0
                    * config.sentiment_noise;
                e.sentiment.score = (e.sentiment.score + noise).clamp(-1.0, 1.0);
            }
            e
        })
        .collect();
    entities.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then_with(|| a.canonical.cmp(&b.canonical))
    });
    entities
}

/// The document analyzer: lexicons + entity catalog + corpus statistics.
#[derive(Debug, Clone)]
pub struct Analyzer {
    lexicons: Lexicons,
    catalog: EntityCatalog,
    frequencies: DocumentFrequencies,
}

impl Analyzer {
    /// Builds an analyzer over the built-in lexicons and gazetteer.
    pub fn with_default_lexicons() -> Analyzer {
        Analyzer {
            lexicons: Lexicons::builtin(),
            catalog: EntityCatalog::builtin(),
            frequencies: DocumentFrequencies::new(),
        }
    }

    /// Builds an analyzer with a custom catalog (e.g. extended with user
    /// synonym files).
    pub fn with_catalog(catalog: EntityCatalog) -> Analyzer {
        Analyzer {
            lexicons: Lexicons::builtin(),
            catalog,
            frequencies: DocumentFrequencies::new(),
        }
    }

    /// The entity catalog in use.
    pub fn catalog(&self) -> &EntityCatalog {
        &self.catalog
    }

    /// The lexicons in use.
    pub fn lexicons(&self) -> &Lexicons {
        &self.lexicons
    }

    /// Folds a document into the IDF statistics used by keyword scoring.
    pub fn learn_document_frequencies(&mut self, text: &str) {
        self.frequencies.add_document(text, &self.lexicons);
    }

    /// Analyzes one document under a vendor quality profile.
    pub fn analyze(&self, text: &str, config: &NluConfig) -> DocumentAnalysis {
        let mut analysis = self.entities_and_relations(text, config);
        analysis.keywords = extract(
            text,
            &self.lexicons,
            &self.frequencies,
            config.keyword_limit,
        );
        analysis.concepts = classify(text, &self.lexicons, config.concept_limit);
        let mut sentiment = document_sentiment(text, &self.lexicons);
        if config.sentiment_noise > 0.0 {
            let noise = (unit_hash(&config.vendor, text) - 0.5) * 2.0 * config.sentiment_noise;
            sentiment.score = (sentiment.score + noise).clamp(-1.0, 1.0);
        }
        analysis.sentiment = sentiment;
        analysis
    }

    /// The entities (with targeted sentiment) and relations of
    /// [`analyze`](Self::analyze), under the same vendor degradation;
    /// keywords, concepts and document sentiment are left empty.
    pub fn entities_and_relations(&self, text: &str, config: &NluConfig) -> DocumentAnalysis {
        let tokens = tokenize(text);
        let lowered: Vec<String> = tokens.iter().map(Token::lower).collect();
        let mentions = recognize_lowered(&tokens, &lowered, &self.catalog);

        // Group mentions by canonical id, computing targeted sentiment.
        let mut grouped: BTreeMap<&str, EntityResult> = BTreeMap::new();
        for m in &mentions {
            let s = targeted(&tokens, &lowered, m, 6, &self.lexicons);
            let entry = grouped
                .entry(m.canonical.as_str())
                .or_insert_with(|| EntityResult {
                    canonical: m.canonical.clone(),
                    name: m.name.clone(),
                    kind: m.kind.label().to_string(),
                    count: 0,
                    sentiment: Sentiment::default(),
                    dbpedia: m
                        .entity
                        .map(|i| self.catalog.entities()[i].dbpedia_url())
                        .unwrap_or_default(),
                });
            // Running mean of targeted sentiment over mentions.
            let n = entry.count as f64;
            entry.sentiment.score = (entry.sentiment.score * n + s.score) / (n + 1.0);
            entry.sentiment.evidence += s.evidence;
            entry.count += 1;
        }

        let entities = vendor_view(grouped.into_values(), config);
        let relations = if config.relations {
            extract_relations(&tokens, &mentions)
        } else {
            Vec::new()
        };
        DocumentAnalysis {
            entities,
            relations,
            ..DocumentAnalysis::default()
        }
    }
}

impl Default for Analyzer {
    fn default() -> Analyzer {
        Analyzer::with_default_lexicons()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disambig::oracle::MapCatalog;
    use crate::{ner, sentiment};

    const DOC: &str = "IBM reported excellent growth in the United States. \
        Microsoft acquired Oracle in a terrible deal. \
        The market praised IBM's innovative cloud strategy.";

    #[test]
    fn full_analysis_has_all_sections() {
        let a = Analyzer::with_default_lexicons();
        let r = a.analyze(DOC, &NluConfig::perfect());
        assert!(r.entities.len() >= 4, "{:?}", r.entities);
        assert!(!r.keywords.is_empty());
        assert!(!r.concepts.is_empty());
        assert_eq!(r.relations.len(), 1);
        assert_eq!(r.relations[0].predicate, "acquired");
        assert!(r.sentiment.evidence > 0);
    }

    #[test]
    fn entity_grouping_counts_mentions() {
        let a = Analyzer::with_default_lexicons();
        let r = a.analyze(DOC, &NluConfig::perfect());
        let ibm = r.entities.iter().find(|e| e.canonical == "ibm").unwrap();
        assert_eq!(ibm.count, 2);
        // Entities are sorted by mention count.
        assert_eq!(r.entities[0].canonical, "ibm");
    }

    #[test]
    fn targeted_sentiment_differs_between_entities() {
        let a = Analyzer::with_default_lexicons();
        let r = a.analyze(DOC, &NluConfig::perfect());
        let ibm = r.entities.iter().find(|e| e.canonical == "ibm").unwrap();
        let msft = r
            .entities
            .iter()
            .find(|e| e.canonical == "microsoft")
            .unwrap();
        assert!(ibm.sentiment.score > 0.0, "{ibm:?}");
        assert!(msft.sentiment.score < 0.0, "{msft:?}");
    }

    #[test]
    fn json_round_trip_preserves_analysis() {
        let a = Analyzer::with_default_lexicons();
        let r = a.analyze(DOC, &NluConfig::perfect());
        let back = DocumentAnalysis::from_json(&r.to_json());
        assert_eq!(back.entities.len(), r.entities.len());
        assert_eq!(back.keywords.len(), r.keywords.len());
        assert_eq!(back.relations.len(), r.relations.len());
        assert_eq!(back.entities[0].canonical, r.entities[0].canonical);
        assert!((back.sentiment.score - r.sentiment.score).abs() < 1e-9);
    }

    #[test]
    fn from_json_tolerates_missing_sections() {
        let r = DocumentAnalysis::from_json(&json!({"entities": []}));
        assert!(r.entities.is_empty());
        assert!(r.keywords.is_empty());
        assert_eq!(r.sentiment.score, 0.0);
    }

    #[test]
    fn degraded_vendor_misses_entities_deterministically() {
        let a = Analyzer::with_default_lexicons();
        let lossy = NluConfig::vendor("cheap-nlu", 0.5, 0.0);
        let r1 = a.analyze(DOC, &lossy);
        let r2 = a.analyze(DOC, &lossy);
        assert_eq!(r1, r2, "degradation must be deterministic");
        let perfect = a.analyze(DOC, &NluConfig::perfect());
        assert!(r1.entities.len() < perfect.entities.len());
    }

    #[test]
    fn different_vendors_differ() {
        let a = Analyzer::with_default_lexicons();
        let v1 = a.analyze(DOC, &NluConfig::vendor("v1", 0.6, 0.2));
        let v2 = a.analyze(DOC, &NluConfig::vendor("v2", 0.6, 0.2));
        let ids = |r: &DocumentAnalysis| {
            r.entities
                .iter()
                .map(|e| e.canonical.clone())
                .collect::<Vec<_>>()
        };
        // With 5+ entities and 60% recall, two vendors almost surely keep
        // different subsets (hash-based, but fixed for all time).
        assert!(ids(&v1) != ids(&v2) || v1.sentiment.score != v2.sentiment.score);
    }

    #[test]
    fn sentiment_noise_perturbs_but_clamps() {
        let a = Analyzer::with_default_lexicons();
        let noisy = a.analyze(DOC, &NluConfig::vendor("noisy", 1.0, 0.5));
        let clean = a.analyze(DOC, &NluConfig::perfect());
        assert_ne!(noisy.sentiment.score, clean.sentiment.score);
        assert!(noisy.sentiment.score.abs() <= 1.0);
    }

    #[test]
    fn quality_score_orders_vendors() {
        let good = NluConfig::vendor("good", 0.95, 0.05);
        let bad = NluConfig::vendor("bad", 0.5, 0.4);
        assert!(good.quality() > bad.quality());
        assert_eq!(NluConfig::perfect().quality(), 1.0);
    }

    #[test]
    #[should_panic(expected = "recall")]
    fn invalid_recall_rejected() {
        let _ = NluConfig::vendor("x", 1.5, 0.0);
    }

    #[test]
    fn disabled_relations_are_omitted() {
        let a = Analyzer::with_default_lexicons();
        let mut cfg = NluConfig::perfect();
        cfg.relations = false;
        let r = a.analyze(DOC, &cfg);
        assert!(r.relations.is_empty());
    }

    #[test]
    fn idf_learning_changes_keyword_ranking() {
        let mut a = Analyzer::with_default_lexicons();
        for _ in 0..30 {
            a.learn_document_frequencies("growth market growth market");
        }
        a.learn_document_frequencies("quantum leap");
        let r = a.analyze("growth quantum growth quantum", &NluConfig::perfect());
        assert_eq!(r.keywords[0].text, "quantum", "{:?}", r.keywords);
    }
    #[test]
    fn possessive_first_mention_keeps_the_dbpedia_url() {
        let a = Analyzer::with_default_lexicons();
        for text in [
            "IBM's results were excellent. IBM grew.",
            "IBM grew. IBM's results were excellent.",
        ] {
            let r = a.entities_and_relations(text, &NluConfig::perfect());
            assert_eq!(r.entities.len(), 1, "{text}");
            assert_eq!(r.entities[0].canonical, "ibm");
            assert_eq!(
                r.entities[0].dbpedia, "http://dbpedia.org/resource/IBM",
                "{text}"
            );
        }
    }

    #[test]
    fn synthetic_custom_ids_have_no_dbpedia_url() {
        let mut catalog = EntityCatalog::builtin();
        catalog.add_synonyms([("gerd", "gastro_reflux")]);
        let a = Analyzer::with_catalog(catalog);
        for text in ["GERD's symptoms worsened.", "GERD worsened."] {
            let r = a.entities_and_relations(text, &NluConfig::perfect());
            assert_eq!(r.entities[0].canonical, "gastro_reflux");
            assert_eq!(r.entities[0].dbpedia, "", "{text}");
        }
    }

    #[test]
    fn custom_synonym_onto_a_gazetteer_id_has_its_dbpedia_url() {
        let mut catalog = EntityCatalog::builtin();
        catalog.add_synonyms([("the big apple", "new_york")]);
        let a = Analyzer::with_catalog(catalog);
        for text in ["The Big Apple's parks are good.", "The Big Apple grew."] {
            let r = a.entities_and_relations(text, &NluConfig::perfect());
            assert_eq!(r.entities[0].canonical, "new_york");
            assert_eq!(
                r.entities[0].dbpedia, "http://dbpedia.org/resource/New_York",
                "{text}"
            );
        }
    }

    /// The previous `entities_and_relations`: the join matcher over the
    /// map catalog, the cloning scorer, and `dbpedia` from re-resolving
    /// the first mention's raw surface.
    fn old_entities_and_relations(
        a: &Analyzer,
        map: &MapCatalog,
        text: &str,
        config: &NluConfig,
    ) -> DocumentAnalysis {
        let tokens = tokenize(text);
        let mentions = ner::oracle::recognize_tokens(&tokens, map);
        let mut grouped: BTreeMap<String, EntityResult> = BTreeMap::new();
        for m in &mentions {
            let s = sentiment::oracle::targeted(&tokens, m, 6, &a.lexicons);
            let entry = grouped.entry(m.canonical.clone()).or_insert_with(|| {
                let dbpedia = map
                    .resolve(&m.surface)
                    .map(|r| r.dbpedia)
                    .unwrap_or_default();
                EntityResult {
                    canonical: m.canonical.clone(),
                    name: m.name.clone(),
                    kind: m.kind.label().to_string(),
                    count: 0,
                    sentiment: Sentiment::default(),
                    dbpedia,
                }
            });
            let n = entry.count as f64;
            entry.sentiment.score = (entry.sentiment.score * n + s.score) / (n + 1.0);
            entry.sentiment.evidence += s.evidence;
            entry.count += 1;
        }
        let relations = if config.relations {
            extract_relations(&tokens, &mentions)
        } else {
            Vec::new()
        };
        DocumentAnalysis {
            entities: vendor_view(grouped.into_values(), config),
            relations,
            ..DocumentAnalysis::default()
        }
    }

    /// The previous `analyze`, over [`old_entities_and_relations`] and
    /// the old document scorer.
    fn old_analyze(
        a: &Analyzer,
        map: &MapCatalog,
        text: &str,
        config: &NluConfig,
    ) -> DocumentAnalysis {
        let mut analysis = old_entities_and_relations(a, map, text, config);
        analysis.keywords = extract(text, &a.lexicons, &a.frequencies, config.keyword_limit);
        analysis.concepts = classify(text, &a.lexicons, config.concept_limit);
        let mut sentiment = sentiment::oracle::document(text, &a.lexicons);
        if config.sentiment_noise > 0.0 {
            let noise = (unit_hash(&config.vendor, text) - 0.5) * 2.0 * config.sentiment_noise;
            sentiment.score = (sentiment.score + noise).clamp(-1.0, 1.0);
        }
        analysis.sentiment = sentiment;
        analysis
    }

    /// Asserts `new` equals `old` except where the old code lost an entity's
    /// `dbpedia` URL to a possessive first mention; returns how many
    /// entities that fixed.
    fn agree_but_for_possessive_dbpedia(
        a: &Analyzer,
        text: &str,
        mut new: DocumentAnalysis,
        mut old: DocumentAnalysis,
    ) -> usize {
        let mut fixed = 0;
        let mentions = ner::recognize(text, a.catalog());
        for (n, o) in new.entities.iter_mut().zip(&mut old.entities) {
            let url = a
                .catalog()
                .by_id(&n.canonical)
                .map(|r| r.dbpedia)
                .unwrap_or_default();
            assert_eq!(n.dbpedia, url, "{text:?}");
            if n.dbpedia != o.dbpedia {
                let first = mentions
                    .iter()
                    .find(|m| m.canonical == n.canonical)
                    .unwrap();
                assert!(
                    o.dbpedia.is_empty()
                        && first
                            .surface
                            .split(' ')
                            .any(|w| w.to_lowercase().ends_with("'s")),
                    "{text:?}: {n:?} vs {o:?}"
                );
                o.dbpedia = n.dbpedia.clone();
                fixed += 1;
            }
        }
        assert_eq!(new, old, "{text:?}");
        fixed
    }

    #[test]
    fn analysis_matches_the_old_grouping_oracle() {
        let corpus = ner::oracle::corpus(0x5eed_0039, 1_000);
        let configs = [
            NluConfig::perfect(),
            NluConfig::vendor("degraded", 0.6, 0.3),
        ];
        let mut fixed = 0;
        // The gazetteer alone, and with user synonyms (the recognizer's
        // oracle also covers a key that normalizes to nothing).
        for (trie, map) in ner::oracle::catalogs().into_iter().take(2) {
            let mut a = Analyzer::with_catalog(trie);
            for text in corpus.iter().step_by(7) {
                a.learn_document_frequencies(text);
            }
            for text in &corpus {
                for config in &configs {
                    let new = a.entities_and_relations(text, config);
                    let old = old_entities_and_relations(&a, &map, text, config);
                    fixed += agree_but_for_possessive_dbpedia(&a, text, new, old);
                    let new = a.analyze(text, config);
                    let old = old_analyze(&a, &map, text, config);
                    agree_but_for_possessive_dbpedia(&a, text, new, old);
                }
            }
        }
        assert!(fixed > 100, "{fixed} possessive first mentions");
    }
}
