//! Named entity disambiguation.
//!
//! §3 of the paper: "the same entity can be referred to in different ways.
//! For example, the country United States of America is also referred to as
//! USA, US, United States, America, and even the states." Resolving every
//! surface form to one canonical identifier "prevents the proliferation of
//! redundant database entries". Users can also "provide their own files
//! which identify synonyms which map to the same entity" for domains with
//! no existing service.
//!
//! Every alias, built-in or user-provided, lives in one token trie: one
//! edge per normalized alias word, so "united states of america" is the
//! four-edge path `united` → `states` → `of` → `america`. A gazetteer
//! alias beats a user synonym on the same key, and the latest user
//! synonym beats an earlier one. [`EntityCatalog::resolve`] walks the
//! words of one surface form; the recognizer in [`crate::ner`] walks the
//! same trie forward once per token position.

use crate::lexicon::{builtin_entities, EntityDef, EntityType};
use crate::tokenize::normalize;
use std::collections::HashMap;

/// A successfully disambiguated entity reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedEntity {
    /// Canonical identifier (e.g. `united_states`).
    pub id: String,
    /// Display name (e.g. `United States`).
    pub name: String,
    /// Entity type.
    pub kind: EntityType,
    /// DBpedia-style reference URL.
    pub dbpedia: String,
    /// YAGO-style reference URL.
    pub yago: String,
}

/// A catalog mapping surface forms to canonical entities.
///
/// # Examples
///
/// ```
/// use cogsdk_text::EntityCatalog;
///
/// let catalog = EntityCatalog::builtin();
/// let a = catalog.resolve("United States of America").unwrap();
/// let b = catalog.resolve("USA").unwrap();
/// assert_eq!(a.id, b.id); // one entity, not two
/// ```
#[derive(Debug, Clone)]
pub struct EntityCatalog {
    entities: Vec<EntityDef>,
    /// Every alias, built-in and user-provided, by its normalized words.
    aliases: AliasTrie,
    /// Custom canonical ids that name no gazetteer entity (for domains
    /// not covered by any service, e.g. disease names, §3).
    synthetic: Vec<String>,
}

impl EntityCatalog {
    /// Builds the catalog from the built-in gazetteer.
    pub fn builtin() -> EntityCatalog {
        EntityCatalog::from_entities(builtin_entities())
    }

    /// Builds a catalog from explicit entity definitions. When two
    /// entities share an alias, the later one owns it.
    pub fn from_entities(entities: Vec<EntityDef>) -> EntityCatalog {
        let mut aliases = AliasTrie::default();
        for (i, e) in entities.iter().enumerate() {
            for alias in e.aliases {
                aliases.insert(&normalize_alias(alias)).builtin = Some(i);
            }
        }
        EntityCatalog {
            entities,
            aliases,
            synthetic: Vec::new(),
        }
    }

    /// Registers user-provided synonym pairs `(surface, canonical_id)`.
    /// Later registrations win over earlier ones but never over the
    /// built-in gazetteer.
    pub fn add_synonyms<I, S1, S2>(&mut self, pairs: I)
    where
        I: IntoIterator<Item = (S1, S2)>,
        S1: AsRef<str>,
        S2: Into<String>,
    {
        for (surface, id) in pairs {
            self.add_custom(surface.as_ref(), id.into());
        }
    }

    /// Parses a synonym file in the paper's simple format — one entity per
    /// line, `canonical_id: surface1, surface2, …` — and registers it.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered message for lines without a `:` separator.
    pub fn add_synonym_file(&mut self, contents: &str) -> Result<usize, String> {
        let mut added = 0;
        for (lineno, line) in contents.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (id, surfaces) = line
                .split_once(':')
                .ok_or_else(|| format!("line {}: missing ':' separator", lineno + 1))?;
            let id = id.trim();
            for surface in surfaces.split(',') {
                let surface = surface.trim();
                if !surface.is_empty() {
                    self.add_custom(surface, id.to_string());
                    added += 1;
                }
            }
        }
        Ok(added)
    }

    /// Points `surface`'s alias key at `id`, resolved to its gazetteer
    /// entity now rather than on every lookup.
    fn add_custom(&mut self, surface: &str, id: String) {
        let target = match self.entities.iter().position(|e| e.id == id) {
            Some(i) => Target::Entity(i),
            None => {
                self.synthetic.push(id);
                Target::Synthetic(self.synthetic.len() - 1)
            }
        };
        let node = self.aliases.insert(&normalize_alias(surface));
        if node.custom.replace(target).is_none() {
            self.aliases.custom_keys += 1;
        }
    }

    /// Resolves a surface form to its canonical entity, if known.
    ///
    /// Custom synonyms resolve too, but produce synthetic entries (no
    /// gazetteer URLs) unless the canonical id is itself in the gazetteer.
    pub fn resolve(&self, surface: &str) -> Option<ResolvedEntity> {
        let target = self
            .aliases
            .target(self.aliases.find(&normalize_alias(surface))?)?;
        Some(match target {
            Target::Entity(i) => self.materialize(i),
            Target::Synthetic(i) => {
                let id = &self.synthetic[i];
                ResolvedEntity {
                    id: id.clone(),
                    name: id.clone(),
                    kind: EntityType::Technology,
                    dbpedia: String::new(),
                    yago: String::new(),
                }
            }
        })
    }

    /// Looks an entity up by its canonical id.
    pub fn by_id(&self, id: &str) -> Option<ResolvedEntity> {
        self.entities
            .iter()
            .position(|e| e.id == id)
            .map(|i| self.materialize(i))
    }

    /// All entity definitions in the catalog.
    pub fn entities(&self) -> &[EntityDef] {
        &self.entities
    }

    /// The number of registered custom synonyms.
    pub fn custom_len(&self) -> usize {
        self.aliases.custom_keys
    }

    /// The alias trie the entity recognizer walks.
    pub(crate) fn aliases(&self) -> &AliasTrie {
        &self.aliases
    }

    /// The id, display name, type and gazetteer index `target` names.
    pub(crate) fn describe(&self, target: Target) -> (&str, &str, EntityType, Option<usize>) {
        match target {
            Target::Entity(i) => {
                let e = &self.entities[i];
                (e.id, e.name, e.kind, Some(i))
            }
            Target::Synthetic(i) => {
                let id = self.synthetic[i].as_str();
                (id, id, EntityType::Technology, None)
            }
        }
    }

    fn materialize(&self, i: usize) -> ResolvedEntity {
        let e = &self.entities[i];
        ResolvedEntity {
            id: e.id.to_string(),
            name: e.name.to_string(),
            kind: e.kind,
            dbpedia: e.dbpedia_url(),
            yago: e.yago_url(),
        }
    }
}

impl Default for EntityCatalog {
    fn default() -> EntityCatalog {
        EntityCatalog::builtin()
    }
}

/// What a complete alias key names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    /// A gazetteer entity: its index in [`EntityCatalog::entities`].
    Entity(usize),
    /// A custom id naming no gazetteer entity: its index in the
    /// catalog's synthetic ids.
    Synthetic(usize),
}

/// A node of the alias trie. The path from the root spells an alias key
/// one normalized word per edge; the key ends here if a slot is set.
#[derive(Debug, Clone, Default)]
struct AliasNode {
    /// `(word, child)` edges, sorted by word.
    children: Vec<(u32, u32)>,
    /// The gazetteer entity with this alias; it beats any custom target.
    builtin: Option<usize>,
    /// The latest user synonym registered for this key.
    custom: Option<Target>,
}

/// The catalog's one alias index: a trie over normalized alias words
/// (each alias's [`normalize_alias`] key split on `' '`). The recognizer
/// maps each token to a word id once and walks forward from each
/// position, so no candidate string is built; [`EntityCatalog::resolve`]
/// walks the words of its normalized key.
#[derive(Debug, Clone)]
pub(crate) struct AliasTrie {
    /// Every word of every alias key -> its word id.
    words: HashMap<Box<str>, u32>,
    /// Node 0 is the root (the empty key).
    nodes: Vec<AliasNode>,
    /// Keys holding a custom target, shadowed or not.
    custom_keys: usize,
}

impl Default for AliasTrie {
    fn default() -> AliasTrie {
        AliasTrie {
            words: HashMap::new(),
            nodes: vec![AliasNode::default()],
            custom_keys: 0,
        }
    }
}

impl AliasTrie {
    /// The root node: the empty key.
    pub(crate) const ROOT: u32 = 0;

    /// The word id of a normalized word, if any alias uses it.
    pub(crate) fn word(&self, word: &str) -> Option<u32> {
        self.words.get(word).copied()
    }

    /// The node one `word` below `node`.
    pub(crate) fn child(&self, node: u32, word: u32) -> Option<u32> {
        let children = &self.nodes[node as usize].children;
        children
            .binary_search_by_key(&word, |&(w, _)| w)
            .ok()
            .map(|k| children[k].1)
    }

    /// What the key ending at `node` names: the gazetteer entry if there
    /// is one, else the latest custom synonym.
    pub(crate) fn target(&self, node: u32) -> Option<Target> {
        let node = &self.nodes[node as usize];
        node.builtin.map(Target::Entity).or(node.custom)
    }

    /// The node a normalized key ends at, if the trie holds that path.
    fn find(&self, key: &str) -> Option<u32> {
        key.split(' ')
            .filter(|w| !w.is_empty())
            .try_fold(Self::ROOT, |node, w| self.child(node, self.word(w)?))
    }

    /// The node a normalized key ends at, creating its path.
    fn insert(&mut self, key: &str) -> &mut AliasNode {
        let mut node = Self::ROOT;
        for w in key.split(' ').filter(|w| !w.is_empty()) {
            let next_word = self.words.len() as u32;
            let word = *self.words.entry(w.into()).or_insert(next_word);
            node = match self.child(node, word) {
                Some(child) => child,
                None => {
                    let child = self.nodes.len() as u32;
                    self.nodes.push(AliasNode::default());
                    let children = &mut self.nodes[node as usize].children;
                    let at = children.partition_point(|&(w, _)| w < word);
                    children.insert(at, (word, child));
                    child
                }
            };
        }
        &mut self.nodes[node as usize]
    }
}

/// Normalizes an alias: lowercase, collapse whitespace, strip punctuation
/// around words.
fn normalize_alias(s: &str) -> String {
    s.split_whitespace()
        .map(normalize)
        .filter(|w| !w.is_empty())
        .collect::<Vec<_>>()
        .join(" ")
}

/// The catalog as it was before the trie: one map per alias kind, and a
/// string key per lookup. Kept as the oracle for the trie and for the
/// recognizer that walks it.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// The old catalog: gazetteer aliases and user synonyms in two
    /// hash maps, the custom id resolved on every lookup.
    #[derive(Debug, Clone)]
    pub(crate) struct MapCatalog {
        entities: Vec<EntityDef>,
        alias_index: HashMap<String, usize>,
        custom: HashMap<String, String>,
    }

    impl MapCatalog {
        pub(crate) fn builtin() -> MapCatalog {
            let entities = builtin_entities();
            let mut alias_index = HashMap::new();
            for (i, e) in entities.iter().enumerate() {
                for alias in e.aliases {
                    alias_index.insert(normalize_alias(alias), i);
                }
            }
            MapCatalog {
                entities,
                alias_index,
                custom: HashMap::new(),
            }
        }

        pub(crate) fn add_synonyms(&mut self, pairs: &[(&str, &str)]) {
            for (surface, id) in pairs {
                self.custom.insert(normalize_alias(surface), id.to_string());
            }
        }

        pub(crate) fn resolve(&self, surface: &str) -> Option<ResolvedEntity> {
            let key = normalize_alias(surface);
            if let Some(&i) = self.alias_index.get(&key) {
                return Some(self.materialize(i));
            }
            if let Some(id) = self.custom.get(&key) {
                if let Some(i) = self.entities.iter().position(|e| e.id == *id) {
                    return Some(self.materialize(i));
                }
                return Some(ResolvedEntity {
                    id: id.clone(),
                    name: id.clone(),
                    kind: EntityType::Technology,
                    dbpedia: String::new(),
                    yago: String::new(),
                });
            }
            None
        }

        pub(crate) fn custom_len(&self) -> usize {
            self.custom.len()
        }

        /// The gazetteer index of a canonical id.
        pub(crate) fn index_of(&self, id: &str) -> Option<usize> {
            self.entities.iter().position(|e| e.id == id)
        }

        fn materialize(&self, i: usize) -> ResolvedEntity {
            let e = &self.entities[i];
            ResolvedEntity {
                id: e.id.to_string(),
                name: e.name.to_string(),
                kind: e.kind,
                dbpedia: e.dbpedia_url(),
                yago: e.yago_url(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_all_aliases_resolve_to_one_entity() {
        let c = EntityCatalog::builtin();
        let expect = c.resolve("United States of America").unwrap();
        for alias in [
            "USA",
            "US",
            "United States",
            "America",
            "the states",
            "u.s.",
        ] {
            let got = c
                .resolve(alias)
                .unwrap_or_else(|| panic!("unresolved: {alias}"));
            assert_eq!(got.id, expect.id, "{alias}");
        }
        assert_eq!(expect.dbpedia, "http://dbpedia.org/resource/United_States");
    }

    #[test]
    fn naive_string_match_would_split_what_we_merge() {
        // The failure mode the paper warns about: naive matching treats
        // distinct strings as distinct entities.
        let c = EntityCatalog::builtin();
        let s1 = "United States of America";
        let s2 = "USA";
        assert_ne!(s1, s2, "naive comparison says different");
        assert_eq!(c.resolve(s1).unwrap().id, c.resolve(s2).unwrap().id);
    }

    #[test]
    fn unknown_surface_is_none() {
        let c = EntityCatalog::builtin();
        assert!(c.resolve("Atlantis").is_none());
        assert!(c.resolve("").is_none());
    }

    #[test]
    fn resolution_is_case_and_whitespace_insensitive() {
        let c = EntityCatalog::builtin();
        assert_eq!(
            c.resolve("  uNiTeD   sTaTeS  ").unwrap().id,
            "united_states"
        );
    }

    #[test]
    fn custom_synonyms_resolve() {
        let mut c = EntityCatalog::builtin();
        c.add_synonyms([("the big apple", "new_york"), ("GERD", "gastro_reflux")]);
        // Synonym onto a gazetteer entity gets full URLs.
        let ny = c.resolve("The Big Apple").unwrap();
        assert_eq!(ny.id, "new_york");
        assert!(!ny.dbpedia.is_empty());
        // Synonym onto an unknown domain id resolves synthetically.
        let gerd = c.resolve("gerd").unwrap();
        assert_eq!(gerd.id, "gastro_reflux");
        assert!(gerd.dbpedia.is_empty());
    }

    #[test]
    fn builtin_gazetteer_wins_over_custom() {
        let mut c = EntityCatalog::builtin();
        c.add_synonyms([("usa", "some_other_thing")]);
        assert_eq!(c.resolve("USA").unwrap().id, "united_states");
    }

    #[test]
    fn synonym_file_round_trip() {
        let mut c = EntityCatalog::builtin();
        let file = "\
# disease synonyms (paper §3: domains with no disambiguation service)
influenza: flu, the flu, grippe
diabetes_mellitus: diabetes, type 2 diabetes
";
        let added = c.add_synonym_file(file).unwrap();
        assert_eq!(added, 5);
        assert_eq!(c.resolve("the flu").unwrap().id, "influenza");
        assert_eq!(
            c.resolve("Type 2 Diabetes").unwrap().id,
            "diabetes_mellitus"
        );
        assert_eq!(c.custom_len(), 5);
    }

    #[test]
    fn synonym_file_rejects_malformed_lines() {
        let mut c = EntityCatalog::builtin();
        let err = c.add_synonym_file("no separator here").unwrap_err();
        assert!(err.contains("line 1"));
    }

    #[test]
    fn by_id_lookup() {
        let c = EntityCatalog::builtin();
        assert_eq!(c.by_id("ibm").unwrap().name, "IBM");
        assert!(c.by_id("nope").is_none());
    }
    #[test]
    fn resolve_matches_the_map_catalog_oracle() {
        let corpus = crate::ner::oracle::corpus(0x5eed_d15a, 300);
        let mut hits = 0;
        for (trie, map) in crate::ner::oracle::catalogs() {
            assert_eq!(trie.custom_len(), map.custom_len());
            for text in &corpus {
                let words: Vec<&str> = text.split_whitespace().collect();
                for i in 0..words.len() {
                    for len in 1..=7.min(words.len() - i) {
                        let surface = words[i..i + len].join(" ");
                        let got = trie.resolve(&surface);
                        assert_eq!(got, map.resolve(&surface), "{surface:?}");
                        hits += usize::from(got.is_some());
                    }
                }
            }
            assert_eq!(trie.resolve(""), map.resolve(""));
        }
        assert!(hits > 1_000, "{hits} resolved surfaces");
    }

    #[test]
    fn later_gazetteer_entities_own_shared_aliases() {
        let ibm = builtin_entities()
            .into_iter()
            .find(|e| e.id == "ibm")
            .unwrap();
        let mut clone = ibm.clone();
        clone.id = "ibm_clone";
        let c = EntityCatalog::from_entities(vec![ibm, clone]);
        assert_eq!(c.resolve("big blue").unwrap().id, "ibm_clone");
    }

    #[test]
    fn later_custom_synonyms_override_earlier_ones() {
        let mut c = EntityCatalog::builtin();
        c.add_synonyms([("the flu", "influenza"), ("the flu", "grippe")]);
        assert_eq!(c.resolve("The Flu").unwrap().id, "grippe");
        assert_eq!(c.custom_len(), 1);
    }
}
