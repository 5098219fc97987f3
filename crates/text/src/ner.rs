//! Named entity recognition: longest-match gazetteer scanning.
//!
//! Produces *disambiguated* mentions (§2.2: "Named entities are
//! disambiguated, while keywords are not"): every mention carries the
//! canonical id from the [`EntityCatalog`].
//!
//! The catalog keeps every alias in one token trie. The recognizer maps
//! each token to its trie word once (lowered, possessive `'s` dropped,
//! normalized), then walks the trie forward once per position, up to the
//! sentence end or six tokens, and keeps the longest key
//! it passed through — the multi-pattern idea of Aho–Corasick (CACM
//! 1975) with longest-match-first kept. Nothing is allocated until a
//! match.
//!
//! [`EntityCatalog`]: crate::disambig::EntityCatalog

use crate::disambig::{AliasTrie, EntityCatalog, Target};
use crate::lexicon::EntityType;
use crate::tokenize::{normalize, tokenize, Token};
use std::borrow::Cow;

/// One recognized entity mention.
#[derive(Debug, Clone, PartialEq)]
pub struct Mention {
    /// The surface text as matched (original casing).
    pub surface: String,
    /// Canonical entity id after disambiguation.
    pub canonical: String,
    /// Display name of the canonical entity.
    pub name: String,
    /// Entity type.
    pub kind: EntityType,
    /// Index of the canonical entity in [`EntityCatalog::entities`];
    /// `None` for a user synonym onto an id outside the gazetteer.
    pub entity: Option<usize>,
    /// Index of the first token of the mention.
    pub token_index: usize,
    /// Number of tokens in the mention.
    pub token_len: usize,
    /// Sentence index of the mention.
    pub sentence: usize,
}

/// Recognizes entity mentions in `text` against `catalog`, preferring the
/// longest alias at each position.
///
/// # Examples
///
/// ```
/// use cogsdk_text::{ner, EntityCatalog};
///
/// let catalog = EntityCatalog::builtin();
/// let mentions = ner::recognize("IBM opened a lab in New York City.", &catalog);
/// let ids: Vec<&str> = mentions.iter().map(|m| m.canonical.as_str()).collect();
/// assert_eq!(ids, vec!["ibm", "new_york"]);
/// ```
pub fn recognize(text: &str, catalog: &EntityCatalog) -> Vec<Mention> {
    let tokens = tokenize(text);
    recognize_tokens(&tokens, catalog)
}

/// The maximum alias length in tokens the matcher will try.
const MAX_ALIAS_TOKENS: usize = 6;

/// Recognizes mentions over a pre-tokenized text.
pub fn recognize_tokens(tokens: &[Token], catalog: &EntityCatalog) -> Vec<Mention> {
    let lowered: Vec<String> = tokens.iter().map(Token::lower).collect();
    recognize_lowered(tokens, &lowered, catalog)
}

/// [`recognize_tokens`] over tokens whose [`Token::lower`] forms the
/// caller already holds (`lowered[i]` is `tokens[i].lower()`).
pub fn recognize_lowered(
    tokens: &[Token],
    lowered: &[String],
    catalog: &EntityCatalog,
) -> Vec<Mention> {
    let trie = catalog.aliases();
    let steps: Vec<Step> = lowered
        .iter()
        .map(|w| {
            let word = alias_word(w);
            if word.is_empty() {
                Step::Skip
            } else {
                trie.word(&word).map_or(Step::Stop, Step::Word)
            }
        })
        .collect();
    let mut mentions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let Some((len, target)) = longest_match(trie, tokens, &steps, i) else {
            i += 1;
            continue;
        };
        let matched = &tokens[i..i + len];
        let mut surface = String::with_capacity(matched.iter().map(|t| t.text.len() + 1).sum());
        for (k, t) in matched.iter().enumerate() {
            if k > 0 {
                surface.push(' ');
            }
            surface.push_str(&t.text);
        }
        let (id, name, kind, entity) = catalog.describe(target);
        mentions.push(Mention {
            surface,
            canonical: id.to_string(),
            name: name.to_string(),
            kind,
            entity,
            token_index: i,
            token_len: len,
            sentence: tokens[i].sentence,
        });
        i += len;
    }
    mentions
}

/// What one token does to a trie walk.
#[derive(Clone, Copy)]
enum Step {
    /// Normalizes to nothing (`-`, `'s`): counts toward the mention's
    /// length but moves nowhere, as an empty word vanishes from a key.
    Skip,
    /// An alias word.
    Word(u32),
    /// No alias uses this word: every walk through it ends.
    Stop,
}

/// The alias word a lowered token contributes: possessive `'s` dropped,
/// then [`normalize`]d. A lowered ASCII word is already lowercase, so
/// trimming it is the whole normalization and allocates nothing.
fn alias_word(lowered: &str) -> Cow<'_, str> {
    let w = lowered.strip_suffix("'s").unwrap_or(lowered);
    let trimmed = w.trim_matches(|c: char| !c.is_alphanumeric());
    if trimmed.is_ascii() {
        Cow::Borrowed(trimmed)
    } else {
        Cow::Owned(normalize(w))
    }
}

/// The longest alias starting at token `i`: its length in tokens and what
/// it names. The walk ends at the sentence end, after
/// [`MAX_ALIAS_TOKENS`] tokens, or where the trie has no edge.
fn longest_match(
    trie: &AliasTrie,
    tokens: &[Token],
    steps: &[Step],
    i: usize,
) -> Option<(usize, Target)> {
    let sentence = tokens[i].sentence;
    let end = (i + MAX_ALIAS_TOKENS).min(tokens.len());
    let mut node = AliasTrie::ROOT;
    let mut best = None;
    for j in i..end {
        // Aliases never cross sentence boundaries.
        if tokens[j].sentence != sentence {
            break;
        }
        match steps[j] {
            Step::Skip => {}
            Step::Word(word) => match trie.child(node, word) {
                Some(next) => node = next,
                None => break,
            },
            Step::Stop => break,
        }
        if let Some(target) = trie.target(node) {
            best = Some((j + 1 - i, target));
        }
    }
    best
}

/// The recognizer as it was before the trie, and the seeded corpus the
/// oracle tests (here and in [`crate::analysis`]) compare over.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::disambig::oracle::MapCatalog;
    use cogsdk_sim::rng::Rng;

    /// The old matcher: at each position, join up to six lowered tokens
    /// into a candidate string, longest first, and resolve each one.
    pub(crate) fn recognize_tokens(tokens: &[Token], catalog: &MapCatalog) -> Vec<Mention> {
        let mut mentions = Vec::new();
        let lowered: Vec<String> = tokens
            .iter()
            .map(|t| {
                let w = t.lower();
                w.strip_suffix("'s").map(str::to_string).unwrap_or(w)
            })
            .collect();
        let mut i = 0;
        while i < tokens.len() {
            let mut matched = None;
            let max_len = MAX_ALIAS_TOKENS.min(tokens.len() - i);
            for len in (1..=max_len).rev() {
                if tokens[i + len - 1].sentence != tokens[i].sentence {
                    continue;
                }
                let candidate = lowered[i..i + len].join(" ");
                if let Some(resolved) = catalog.resolve(&candidate) {
                    matched = Some((len, resolved));
                    break;
                }
            }
            if let Some((len, resolved)) = matched {
                let surface = tokens[i..i + len]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                mentions.push(Mention {
                    surface,
                    entity: catalog.index_of(&resolved.id),
                    canonical: resolved.id,
                    name: resolved.name,
                    kind: resolved.kind,
                    token_index: i,
                    token_len: len,
                    sentence: tokens[i].sentence,
                });
                i += len;
            } else {
                i += 1;
            }
        }
        mentions
    }

    /// User synonyms, in registration order: one shadowed by a gazetteer
    /// alias, one onto a gazetteer id, one overridden by a later entry,
    /// one longer than a gazetteer alias at the same position, non-ASCII
    /// keys, and six- and seven-word keys either side of the token cap.
    pub(crate) const SYNONYMS: &[(&str, &str)] = &[
        ("usa", "not_the_usa"),
        ("blue giant", "ibm"),
        ("the flu", "influenza"),
        ("gerd", "gastro_reflux"),
        ("IBM Research Labs", "ibm_research"),
        ("Straße", "street_de"),
        ("ΣΑΣ", "sas_gr"),
        ("alpha beta gamma delta epsilon zeta", "six_words"),
        ("alpha beta gamma delta epsilon zeta eta", "seven_words"),
        ("the flu", "grippe"),
    ];

    /// The catalog pairs the oracles run under: the gazetteer alone, with
    /// [`SYNONYMS`], and with a synonym whose key normalizes to nothing
    /// (so a run of `-` tokens is a mention).
    pub(crate) fn catalogs() -> Vec<(EntityCatalog, MapCatalog)> {
        let extra: &[&[(&str, &str)]] = &[&[], SYNONYMS, &[("-", "dash")]];
        let (mut trie, mut map) = (EntityCatalog::builtin(), MapCatalog::builtin());
        let mut out = Vec::new();
        for pairs in extra {
            trie.add_synonyms(pairs.iter().copied());
            map.add_synonyms(pairs);
            assert_eq!(trie.custom_len(), map.custom_len());
            out.push((trie.clone(), map.clone()));
        }
        out
    }

    /// `n` seeded documents built from every alias and alias word in
    /// random case, alias prefixes, possessives, `-` and `'s` tokens,
    /// punctuation and sentence breaks (also inside aliases), noise
    /// words and non-ASCII text.
    pub(crate) fn corpus(seed: u64, n: usize) -> Vec<String> {
        const NOISE: &[&str] = &[
            "the",
            "and",
            "of",
            "new",
            "states",
            "reported",
            "excellent",
            "terrible",
            "good",
            "not",
            "very",
            "never",
            "isn't",
            "slightly",
            "acquired",
            "bought",
            "partnered",
            "sued",
            "growth",
            "market",
            "É",
            "Straße",
            "ΣΑΣ",
            "ÉCOLE",
            "naïve",
            "İstanbul",
            "-",
            "'s",
            "--",
            "'",
            "-IBM-",
            "ibm's's",
            "u.s.",
            ",",
            ";",
            "(",
            ")",
            "\"",
            ".",
            "!",
            "?",
        ];
        let catalog = EntityCatalog::builtin();
        let mut phrases: Vec<String> = catalog
            .entities()
            .iter()
            .flat_map(|e| e.aliases.iter().map(|a| a.to_string()))
            .collect();
        phrases.extend(SYNONYMS.iter().map(|(surface, _)| surface.to_string()));
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let mut pieces: Vec<String> = Vec::new();
                for _ in 0..5 + rng.below(30) {
                    if rng.chance(0.45) {
                        pieces.push(rng.choose(NOISE).to_string());
                        continue;
                    }
                    let phrase = rng.choose(&phrases);
                    let mut words: Vec<&str> = phrase.split(' ').collect();
                    if rng.chance(0.2) {
                        // A prefix, or a single word, of the alias.
                        words.truncate(1 + rng.below(words.len() as u64) as usize);
                    }
                    for (k, w) in words.iter().enumerate() {
                        if k > 0 && rng.chance(0.08) {
                            pieces.push(rng.choose(&[".", "-", "'s", ",", "!"]).to_string());
                        }
                        let mut w: String = w
                            .chars()
                            .map(|c| {
                                if rng.chance(0.3) {
                                    c.to_uppercase().next().unwrap_or(c)
                                } else {
                                    c
                                }
                            })
                            .collect();
                        if rng.chance(0.1) {
                            let suffix = *rng.choose(&["'s", "'S", "s", "'"]);
                            w.push_str(suffix);
                        }
                        pieces.push(w);
                    }
                }
                pieces.join(" ")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> EntityCatalog {
        EntityCatalog::builtin()
    }

    #[test]
    fn longest_match_wins() {
        // "United States of America" should match as one mention, not as
        // "United States" + stray tokens.
        let m = recognize("The United States of America grew.", &catalog());
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].canonical, "united_states");
        assert_eq!(m[0].surface, "United States of America");
        assert_eq!(m[0].token_len, 4);
    }

    #[test]
    fn multiple_mentions_in_order() {
        let m = recognize("IBM and Microsoft compete in France.", &catalog());
        let ids: Vec<&str> = m.iter().map(|x| x.canonical.as_str()).collect();
        assert_eq!(ids, vec!["ibm", "microsoft", "france"]);
    }

    #[test]
    fn different_aliases_share_canonical_id() {
        let m = recognize("The USA and America and the United States.", &catalog());
        assert!(m.len() >= 3);
        assert!(m.iter().all(|x| x.canonical == "united_states"));
    }

    #[test]
    fn mentions_do_not_cross_sentences() {
        // "New" ends one sentence, "York" begins the next: no mention.
        let m = recognize("It was new. York is elsewhere.", &catalog());
        assert!(m.is_empty(), "{m:?}");
    }

    #[test]
    fn sentence_and_position_metadata() {
        let m = recognize("Paris is nice. IBM ships code.", &catalog());
        assert_eq!(m[0].sentence, 0);
        assert_eq!(m[1].sentence, 1);
        assert_eq!(m[1].canonical, "ibm");
        assert!(m[1].token_index >= 3);
    }

    #[test]
    fn no_entities_in_plain_text() {
        let m = recognize("nothing interesting happens here", &catalog());
        assert!(m.is_empty());
    }

    #[test]
    fn custom_synonyms_are_recognized() {
        let mut c = catalog();
        c.add_synonyms([("big blue machines", "ibm")]);
        let m = recognize("Big Blue Machines released results.", &c);
        assert_eq!(m[0].canonical, "ibm");
    }

    #[test]
    fn case_insensitive_matching_preserves_surface() {
        let m = recognize("GERMANY and germany", &catalog());
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].surface, "GERMANY");
        assert_eq!(m[1].surface, "germany");
        assert_eq!(m[0].canonical, m[1].canonical);
    }
    #[test]
    fn trie_walk_matches_the_join_matcher_oracle() {
        let corpus = oracle::corpus(0x5eed_0039, 1_500);
        let mut seen: std::collections::BTreeMap<String, usize> = Default::default();
        let (mut possessive, mut skipped) = (0, 0);
        for (trie, map) in oracle::catalogs() {
            for text in &corpus {
                let tokens = tokenize(text);
                let got = recognize_tokens(&tokens, &trie);
                assert_eq!(got, oracle::recognize_tokens(&tokens, &map), "{text:?}");
                for m in &got {
                    *seen.entry(m.canonical.clone()).or_default() += 1;
                    let words = &tokens[m.token_index..m.token_index + m.token_len];
                    possessive += usize::from(words.iter().any(|t| t.lower().ends_with("'s")));
                    skipped += usize::from(words.iter().any(|t| normalize(&t.text).is_empty()));
                }
            }
        }
        // The corpus reaches every kind of key, and the shadowed,
        // overridden and over-long synonyms never match.
        for id in [
            "united_states",
            "ibm",
            "ibm_research",
            "gastro_reflux",
            "grippe",
            "street_de",
            "sas_gr",
            "six_words",
            "dash",
        ] {
            assert!(seen.get(id).copied().unwrap_or(0) > 0, "{id} never matched");
        }
        for id in ["not_the_usa", "influenza", "seven_words"] {
            assert!(!seen.contains_key(id), "{id} matched");
        }
        assert!(possessive > 100, "{possessive} possessive mentions");
        assert!(skipped > 100, "{skipped} mentions spanning an empty word");
    }

    #[test]
    fn the_trie_follows_synonyms_added_after_construction() {
        let mut c = catalog();
        let text = "Blue Giant shipped. The flu spread. Grippe too.";
        assert!(recognize(text, &c).is_empty());
        c.add_synonyms([("blue giant", "ibm")]);
        assert_eq!(c.custom_len(), 1);
        let added = c
            .add_synonym_file("influenza: the flu, grippe\nibm: blue giant\n")
            .unwrap();
        assert_eq!(added, 3);
        // "blue giant" was registered twice: one key.
        assert_eq!(c.custom_len(), 3);
        let ids = |m: Vec<Mention>| m.into_iter().map(|m| m.canonical).collect::<Vec<_>>();
        assert_eq!(ids(recognize(text, &c)), ["ibm", "influenza", "influenza"]);
        let analyzer = crate::Analyzer::with_catalog(c);
        let doc = analyzer.analyze(text, &crate::NluConfig::perfect());
        let mut found: Vec<&str> = doc.entities.iter().map(|e| e.canonical.as_str()).collect();
        found.sort_unstable();
        assert_eq!(found, ["ibm", "influenza"]);
    }

    #[test]
    fn a_longer_custom_alias_beats_a_builtin_one_at_the_same_position() {
        let mut c = catalog();
        c.add_synonyms([("ibm research labs", "ibm_research")]);
        let m = recognize("IBM Research Labs grew, IBM research shrank.", &c);
        let got: Vec<(&str, usize)> = m
            .iter()
            .map(|m| (m.canonical.as_str(), m.token_len))
            .collect();
        assert_eq!(got, [("ibm_research", 3), ("ibm", 1)]);
        assert_eq!(m[0].entity, None);
        assert_eq!(c.entities()[m[1].entity.unwrap()].id, "ibm");
    }

    #[test]
    fn a_seven_token_synonym_never_matches() {
        let mut c = catalog();
        c.add_synonyms([("a b c d e f g", "seven"), ("a b c d e f", "six")]);
        let m = recognize("a b c d e f g", &c);
        assert_eq!(m[0].canonical, "six");
        assert_eq!(m[0].token_len, 6);
    }
}
