//! Lexicon-based sentiment analysis.
//!
//! §2.2: "Sentiment analysis can provide a quantitative value for a
//! document indicating how positive or negative the document is. However,
//! an entire document may describe several different entities. It is often
//! more meaningful to obtain sentiment scores for individual entities" —
//! this module provides both document-level and entity-targeted scores,
//! like the Watson Developer Cloud services the paper uses.

use crate::lexicon::Lexicons;
use crate::ner::Mention;
use crate::tokenize::{tokenize, Token};

/// A sentiment score in `[-1, 1]` with the evidence count behind it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sentiment {
    /// Polarity: negative < 0 < positive.
    pub score: f64,
    /// Number of sentiment-bearing words that contributed.
    pub evidence: usize,
}

impl Sentiment {
    /// Coarse label: `"positive"`, `"negative"` or `"neutral"`.
    pub fn label(&self) -> &'static str {
        if self.score > 0.05 {
            "positive"
        } else if self.score < -0.05 {
            "negative"
        } else {
            "neutral"
        }
    }
}

/// Words that invert the polarity of the following sentiment word.
const NEGATORS: &[&str] = &["not", "no", "never", "n't", "without", "hardly", "barely"];

/// Intensity modifiers applied to the following sentiment word.
const INTENSIFIERS: &[(&str, f64)] = &[
    ("very", 1.5),
    ("extremely", 1.8),
    ("highly", 1.4),
    ("slightly", 0.5),
    ("somewhat", 0.7),
];

/// Scores a token window; the core shared by document and entity scoring.
/// `lowered[i]` is `tokens[i].lower()`.
fn score_tokens(tokens: &[Token], lowered: &[String], lexicons: &Lexicons) -> Sentiment {
    let mut total = 0.0;
    let mut evidence = 0;
    for (i, (tok, w)) in tokens.iter().zip(lowered).enumerate() {
        let Some(&weight) = lexicons.sentiment.get(w.as_str()) else {
            continue;
        };
        let mut value = weight;
        // Look back up to two tokens for negators/intensifiers, staying in
        // the same sentence.
        for back in 1..=2 {
            let Some(j) = i.checked_sub(back) else {
                break;
            };
            if tokens[j].sentence != tok.sentence {
                break;
            }
            let pw = lowered[j].as_str();
            if NEGATORS.contains(&pw) || pw.ends_with("n't") {
                value = -value * 0.8;
            } else if let Some(&(_, factor)) = INTENSIFIERS.iter().find(|(word, _)| *word == pw) {
                value *= factor;
            }
        }
        total += value;
        evidence += 1;
    }
    if evidence == 0 {
        return Sentiment::default();
    }
    // Average, squashed into [-1, 1].
    let mean = total / evidence as f64;
    Sentiment {
        score: mean.clamp(-1.0, 1.0),
        evidence,
    }
}

/// Document-level sentiment.
///
/// # Examples
///
/// ```
/// use cogsdk_text::{sentiment, Lexicons};
///
/// let lex = Lexicons::builtin();
/// let pos = sentiment::document("An excellent, impressive result.", &lex);
/// let neg = sentiment::document("A terrible, disappointing failure.", &lex);
/// assert_eq!(pos.label(), "positive");
/// assert_eq!(neg.label(), "negative");
/// ```
pub fn document(text: &str, lexicons: &Lexicons) -> Sentiment {
    let tokens = tokenize(text);
    let lowered: Vec<String> = tokens.iter().map(Token::lower).collect();
    score_tokens(&tokens, &lowered, lexicons)
}

/// Targeted sentiment for one entity mention: scores the window of
/// `window` tokens on each side of the mention, restricted to the
/// mention's sentence. `lowered[i]` is `tokens[i].lower()`.
pub fn targeted(
    tokens: &[Token],
    lowered: &[String],
    mention: &Mention,
    window: usize,
    lexicons: &Lexicons,
) -> Sentiment {
    let lo = mention.token_index.saturating_sub(window);
    let hi = (mention.token_index + mention.token_len + window).min(tokens.len());
    // Sentence indices never decrease, so the window's tokens in the
    // mention's sentence are one contiguous run.
    let near = &tokens[lo..hi];
    let start = lo + near.partition_point(|t| t.sentence < mention.sentence);
    let end = lo + near.partition_point(|t| t.sentence <= mention.sentence);
    score_tokens(&tokens[start..end], &lowered[start..end], lexicons)
}

/// The scorer as it was before callers passed lowered tokens in, kept as
/// the oracle for the sub-slice window and the shared lowering.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// The window's same-sentence tokens, cloned and scored by a copy of
    /// the old scorer, which lowers each token (and its look-backs) anew.
    pub(crate) fn targeted(
        tokens: &[Token],
        mention: &Mention,
        window: usize,
        lexicons: &Lexicons,
    ) -> Sentiment {
        let lo = mention.token_index.saturating_sub(window);
        let hi = (mention.token_index + mention.token_len + window).min(tokens.len());
        let in_sentence: Vec<Token> = tokens[lo..hi]
            .iter()
            .filter(|t| t.sentence == mention.sentence)
            .cloned()
            .collect();
        score_tokens(&in_sentence, lexicons)
    }

    /// Document sentiment through the old scorer.
    pub(crate) fn document(text: &str, lexicons: &Lexicons) -> Sentiment {
        score_tokens(&tokenize(text), lexicons)
    }

    fn score_tokens(tokens: &[Token], lexicons: &Lexicons) -> Sentiment {
        let mut total = 0.0;
        let mut evidence = 0;
        for (i, tok) in tokens.iter().enumerate() {
            let w = tok.lower();
            let Some(&weight) = lexicons.sentiment.get(w.as_str()) else {
                continue;
            };
            let mut value = weight;
            for back in 1..=2 {
                let Some(prev) = i.checked_sub(back).map(|j| &tokens[j]) else {
                    break;
                };
                if prev.sentence != tok.sentence {
                    break;
                }
                let pw = prev.lower();
                if NEGATORS.contains(&pw.as_str()) || pw.ends_with("n't") {
                    value = -value * 0.8;
                } else if let Some(&(_, factor)) = INTENSIFIERS.iter().find(|(word, _)| *word == pw)
                {
                    value *= factor;
                }
            }
            total += value;
            evidence += 1;
        }
        if evidence == 0 {
            return Sentiment::default();
        }
        let mean = total / evidence as f64;
        Sentiment {
            score: mean.clamp(-1.0, 1.0),
            evidence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disambig::EntityCatalog;
    use crate::ner::recognize_tokens;

    fn lex() -> Lexicons {
        Lexicons::builtin()
    }

    #[test]
    fn neutral_text_scores_zero() {
        let s = document("The train departs at noon.", &lex());
        assert_eq!(s.score, 0.0);
        assert_eq!(s.evidence, 0);
        assert_eq!(s.label(), "neutral");
    }

    #[test]
    fn negation_flips_polarity() {
        let lexicons = lex();
        let plain = document("The results were good.", &lexicons);
        let negated = document("The results were not good.", &lexicons);
        assert!(plain.score > 0.0);
        assert!(negated.score < 0.0, "negated={:?}", negated);
    }

    #[test]
    fn intensifier_scales_magnitude() {
        let lexicons = lex();
        let plain = document("It was good.", &lexicons);
        let strong = document("It was very good.", &lexicons);
        assert!(strong.score > plain.score);
    }

    #[test]
    fn negation_does_not_cross_sentences() {
        let lexicons = lex();
        // "not" ends the previous sentence; "good" must stay positive.
        let s = document("They did not. Good results followed.", &lexicons);
        assert!(s.score > 0.0, "{s:?}");
    }

    #[test]
    fn score_is_clamped() {
        let s = document("excellent excellent excellent amazing wonderful", &lex());
        assert!(s.score <= 1.0);
        assert_eq!(s.evidence, 5);
    }

    #[test]
    fn entity_targeted_sentiment_separates_entities() {
        // One sentence praises IBM, another pans Microsoft: per-entity
        // scores must differ even though the document mixes both.
        let lexicons = lex();
        let catalog = EntityCatalog::builtin();
        let text = "IBM reported excellent impressive growth. Microsoft suffered a terrible disappointing loss.";
        let tokens = tokenize(text);
        let lowered: Vec<String> = tokens.iter().map(Token::lower).collect();
        let mentions = recognize_tokens(&tokens, &catalog);
        assert_eq!(mentions.len(), 2);
        let ibm = targeted(&tokens, &lowered, &mentions[0], 6, &lexicons);
        let msft = targeted(&tokens, &lowered, &mentions[1], 6, &lexicons);
        assert!(ibm.score > 0.2, "ibm={ibm:?}");
        assert!(msft.score < -0.2, "msft={msft:?}");
    }

    #[test]
    fn targeted_window_respects_bounds() {
        let lexicons = lex();
        let catalog = EntityCatalog::builtin();
        let text = "IBM";
        let tokens = tokenize(text);
        let lowered: Vec<String> = tokens.iter().map(Token::lower).collect();
        let mentions = recognize_tokens(&tokens, &catalog);
        let s = targeted(&tokens, &lowered, &mentions[0], 10, &lexicons);
        assert_eq!(s.evidence, 0);
    }
}
