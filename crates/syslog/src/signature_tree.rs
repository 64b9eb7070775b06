//! Signature-tree template extraction (after Qiu et al., "What happened
//! in my network: mining network events from router syslogs", IMC '10).
//!
//! Raw syslog bodies are tokenized on whitespace and organized into a
//! tree: the root splits on token count, and each subtree recursively
//! splits on the dominant token at the most discriminative position.
//! Leaves become [`Signature`]s — token sequences where stable positions
//! are literals and the rest are wildcards. Tokens that contain digits
//! (numbers, IPs, interface names, hex ids) are treated as variable and
//! never used as split keys, the standard heuristic in log-template
//! mining.
//!
//! The tree then maps *new* raw messages to signature ids via
//! [`SignatureTree::match_message`], which is how the detector converts
//! a live syslog stream into the template sequence the LSTM consumes.

use std::collections::HashMap;

/// Configuration for [`SignatureTree::build`].
#[derive(Debug, Clone)]
pub struct SignatureTreeConfig {
    /// Minimum fraction of a group sharing a token at a position for the
    /// position to drive a split.
    pub split_support: f32,
    /// Groups smaller than this become leaves immediately.
    pub min_group: usize,
    /// Safety cap on the number of extracted signatures.
    pub max_signatures: usize,
}

impl Default for SignatureTreeConfig {
    fn default() -> Self {
        // A low split support matters: templates sharing a token count
        // land in one group, and when a dozen of them each hold well
        // under a third of the group, a high threshold would stop the
        // recursion and collapse them all into a single all-wildcard
        // catch-all signature. Any stable word carried by at least ~3%
        // of the group is worth splitting on.
        SignatureTreeConfig { split_support: 0.03, min_group: 3, max_signatures: 4096 }
    }
}

/// One token of a signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigToken {
    /// Position fixed to this word.
    Lit(String),
    /// Variable position.
    Wildcard,
}

/// An extracted log signature (template).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Dense id within the tree.
    pub id: usize,
    /// Token pattern.
    pub tokens: Vec<SigToken>,
}

impl Signature {
    /// Number of literal positions (specificity).
    pub fn literal_count(&self) -> usize {
        self.tokens.iter().filter(|t| matches!(t, SigToken::Lit(_))).count()
    }

    /// True when `words` matches this signature exactly.
    pub fn matches(&self, words: &[&str]) -> bool {
        words.len() == self.tokens.len()
            && self.tokens.iter().zip(words.iter()).all(|(t, w)| match t {
                SigToken::Lit(lit) => lit == w,
                SigToken::Wildcard => true,
            })
    }

    /// Human-readable pattern with `*` for wildcards.
    pub fn pattern(&self) -> String {
        self.tokens
            .iter()
            .map(|t| match t {
                SigToken::Lit(w) => w.as_str(),
                SigToken::Wildcard => "*",
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A fitted signature tree.
#[derive(Debug, Clone, Default)]
pub struct SignatureTree {
    signatures: Vec<Signature>,
    by_len: HashMap<usize, Vec<usize>>,
}

/// A token is variable-looking when it contains a digit (numbers, IPs,
/// interface names, hex ids) or is the wildcard marker `*` (which
/// appears when a tree is rebuilt from rendered signature patterns).
/// Such tokens never become literals.
fn looks_variable(token: &str) -> bool {
    token == "*" || token.bytes().any(|b| b.is_ascii_digit())
}

impl SignatureTree {
    /// Extracts signatures from a training corpus of raw message bodies.
    pub fn build(corpus: &[&str], cfg: &SignatureTreeConfig) -> SignatureTree {
        assert!(
            (0.0..=1.0).contains(&cfg.split_support),
            "SignatureTree: split_support must be in [0, 1]"
        );
        // Tokenize and group by token count.
        let tokenized: Vec<Vec<&str>> =
            corpus.iter().map(|m| m.split_whitespace().collect()).collect();
        let mut by_count: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, words) in tokenized.iter().enumerate() {
            if !words.is_empty() {
                by_count.entry(words.len()).or_default().push(i);
            }
        }

        let mut tree = SignatureTree::default();
        let mut counts: Vec<usize> = by_count.keys().copied().collect();
        counts.sort_unstable();
        for count in counts {
            let members = &by_count[&count];
            split_group(&tokenized, members, cfg, &mut tree);
        }
        tree
    }

    fn push_signature(&mut self, tokens: Vec<SigToken>) {
        let id = self.signatures.len();
        let len = tokens.len();
        // Deduplicate identical leaves (can arise from sibling subtrees).
        if let Some(ids) = self.by_len.get(&len) {
            if ids.iter().any(|&i| self.signatures[i].tokens == tokens) {
                return;
            }
        }
        self.signatures.push(Signature { id, tokens });
        self.by_len.entry(len).or_default().push(id);
    }

    /// Number of extracted signatures.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// True when no signature was extracted.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// All signatures.
    pub fn signatures(&self) -> &[Signature] {
        &self.signatures
    }

    /// Signature by id.
    pub fn get(&self, id: usize) -> &Signature {
        &self.signatures[id]
    }

    /// Maps a raw message body to the most specific matching signature.
    pub fn match_message(&self, text: &str) -> Option<usize> {
        let words: Vec<&str> = text.split_whitespace().collect();
        let candidates = self.by_len.get(&words.len())?;
        candidates
            .iter()
            .copied()
            .filter(|&id| self.signatures[id].matches(&words))
            .max_by_key(|&id| self.signatures[id].literal_count())
    }
}

fn split_group(
    tokenized: &[Vec<&str>],
    members: &[usize],
    cfg: &SignatureTreeConfig,
    tree: &mut SignatureTree,
) {
    if members.is_empty() || tree.len() >= cfg.max_signatures {
        return;
    }
    let width = tokenized[members[0]].len();

    // Per-position dominant stable token and its support.
    let mut best_split: Option<(usize, &str, f32)> = None;
    let mut all_stable = true;
    let mut stable_token: Vec<Option<&str>> = vec![None; width];
    for p in 0..width {
        let mut freq: HashMap<&str, usize> = HashMap::new();
        for &m in members {
            let tok = tokenized[m][p];
            if !looks_variable(tok) {
                *freq.entry(tok).or_insert(0) += 1;
            }
        }
        // Ties on count are broken by the token itself: `HashMap`
        // iteration order varies per instance, and letting it pick the
        // winner made the whole template catalog (and everything trained
        // on it) differ from run to run.
        let Some((&tok, &count)) = freq.iter().max_by_key(|&(&tok, &c)| (c, tok)) else {
            all_stable = false; // every token variable-looking
            continue;
        };
        if count == members.len() {
            stable_token[p] = Some(tok);
            continue;
        }
        all_stable = false;
        let support = count as f32 / members.len() as f32;
        if support >= cfg.split_support && best_split.is_none_or(|(_, _, s)| support > s) {
            best_split = Some((p, tok, support));
        }
    }

    let small = members.len() < cfg.min_group;
    if all_stable || small || best_split.is_none() {
        // Leaf: stable positions are literals, the rest wildcards.
        let tokens: Vec<SigToken> = (0..width)
            .map(|p| match stable_token[p] {
                Some(tok) => SigToken::Lit(tok.to_string()),
                None => SigToken::Wildcard,
            })
            .collect();
        tree.push_signature(tokens);
        return;
    }

    let (pos, tok, _) = best_split.expect("checked above");
    let tok = tok.to_string();
    let (with, without): (Vec<usize>, Vec<usize>) =
        members.iter().partition(|&&m| tokenized[m][pos] == tok);
    split_group(tokenized, &with, cfg, tree);
    split_group(tokenized, &without, cfg, tree);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        let mut msgs = Vec::new();
        for i in 0..20 {
            msgs.push(format!("BGP peer 10.0.{}.1 session flap count {}", i, i * 3));
            msgs.push(format!("interface xe-0/0/{} carrier down", i % 8));
            msgs.push(format!("fan tray {} failure detected on slot {}", i % 4, i % 6));
        }
        msgs
    }

    fn build_default(msgs: &[String]) -> SignatureTree {
        let refs: Vec<&str> = msgs.iter().map(|s| s.as_str()).collect();
        SignatureTree::build(&refs, &SignatureTreeConfig::default())
    }

    #[test]
    fn extracts_one_signature_per_template() {
        let msgs = corpus();
        let tree = build_default(&msgs);
        assert_eq!(
            tree.len(),
            3,
            "patterns: {:?}",
            tree.signatures().iter().map(|s| s.pattern()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn matches_unseen_instances_of_known_templates() {
        let msgs = corpus();
        let tree = build_default(&msgs);
        let id = tree.match_message("BGP peer 192.168.99.7 session flap count 4242");
        assert!(id.is_some());
        let sig = tree.get(id.unwrap());
        assert!(sig.pattern().starts_with("BGP peer *"), "{}", sig.pattern());
    }

    #[test]
    fn numeric_tokens_become_wildcards() {
        let msgs = corpus();
        let tree = build_default(&msgs);
        for sig in tree.signatures() {
            for tok in &sig.tokens {
                if let SigToken::Lit(w) = tok {
                    assert!(!looks_variable(w), "literal {:?} looks variable", w);
                }
            }
        }
    }

    #[test]
    fn unknown_structure_returns_none() {
        let msgs = corpus();
        let tree = build_default(&msgs);
        assert_eq!(tree.match_message("completely different words entirely here now ok"), None);
        assert_eq!(tree.match_message("short"), None);
    }

    #[test]
    fn distinguishes_templates_with_same_length() {
        // Same token count, different literal structure.
        let msgs: Vec<String> = (0..30)
            .map(|i| {
                if i % 2 == 0 {
                    format!("link up on port {}", i)
                } else {
                    format!("link down on port {}", i)
                }
            })
            .collect();
        let tree = build_default(&msgs);
        assert_eq!(tree.len(), 2);
        let up = tree.match_message("link up on port 99").unwrap();
        let down = tree.match_message("link down on port 99").unwrap();
        assert_ne!(up, down);
    }

    #[test]
    fn most_specific_signature_wins_on_overlap() {
        let mut tree = SignatureTree::default();
        tree.push_signature(vec![
            SigToken::Lit("error".to_string()),
            SigToken::Wildcard,
            SigToken::Wildcard,
        ]);
        tree.push_signature(vec![
            SigToken::Lit("error".to_string()),
            SigToken::Lit("in".to_string()),
            SigToken::Wildcard,
        ]);
        let id = tree.match_message("error in module9").unwrap();
        assert_eq!(tree.get(id).literal_count(), 2);
    }

    #[test]
    fn empty_corpus_yields_empty_tree() {
        let tree = SignatureTree::build(&[], &SignatureTreeConfig::default());
        assert!(tree.is_empty());
        assert_eq!(tree.match_message("anything at all"), None);
    }

    #[test]
    fn duplicate_leaves_are_deduplicated() {
        let msgs: Vec<String> = (0..10).map(|i| format!("same fixed words {}", i)).collect();
        let tree = build_default(&msgs);
        assert_eq!(tree.len(), 1);
    }
}
