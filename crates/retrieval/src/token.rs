//! Text tokenization.

use genedit_telemetry::hash::{fnv1a64, fnv1a64_from};
use std::ops::Range;

/// Lowercase alphanumeric tokenizer. Splits on any non-alphanumeric
/// character, keeps underscores inside identifiers together with their
/// word parts split out (so `ORG_NAME` yields `org` and `name` — matching
//  how analysts phrase questions about snake_case columns).
pub fn tokenize(text: &str) -> Vec<String> {
    let (joined, spans) = lowercase_tokens(text);
    spans.into_iter().map(|s| joined[s].to_owned()).collect()
}

/// Word bigrams over a token stream, joined with `_`.
pub fn bigrams(tokens: &[String]) -> Vec<String> {
    tokens
        .windows(2)
        .map(|w| {
            let mut gram = String::with_capacity(w[0].len() + 1 + w[1].len());
            gram.push_str(&w[0]);
            gram.push('_');
            gram.push_str(&w[1]);
            gram
        })
        .collect()
}

/// The tokenization rule: `text`'s lowercased tokens in one buffer, each
/// followed by a `_` (which no token holds), and each token's span in it.
/// So `joined[spans[i].start..spans[i + 1].end]` is `tokens[i] + "_" +
/// tokens[i + 1]`, the bigram [`bigrams`] builds.
fn lowercase_tokens(text: &str) -> (String, Vec<Range<usize>>) {
    let mut joined = String::with_capacity(text.len() + 1);
    let mut spans = Vec::new();
    let mut start = 0;
    for ch in text.chars().chain([' ']) {
        // ASCII first: for an ASCII character `is_alphanumeric` and
        // `to_lowercase` are the ASCII versions, minus the Unicode tables.
        if ch.is_ascii_alphanumeric() {
            joined.push(ch.to_ascii_lowercase());
        } else if !ch.is_ascii() && ch.is_alphanumeric() {
            joined.extend(ch.to_lowercase());
        } else if joined.len() > start {
            spans.push(start..joined.len());
            joined.push('_');
            start = joined.len();
        }
    }
    (joined, spans)
}

/// A text's terms — its tokens, then the bigrams of adjacent tokens, the
/// order of `tokenize` and then `bigrams` — each as its text and its
/// FNV-1a 64 hash, with no `String` per term: every term is a slice of
/// one buffer.
pub(crate) struct Terms {
    joined: String,
    spans: Vec<Range<usize>>,
    hashes: Vec<u64>,
}

impl Terms {
    pub(crate) fn new(text: &str) -> Terms {
        let (joined, spans) = lowercase_tokens(text);
        let bytes = joined.as_bytes();
        let mut hashes = Vec::with_capacity(2 * spans.len());
        hashes.extend(spans.iter().map(|s| fnv1a64(&bytes[s.clone()])));
        // A bigram's hash continues its left token's FNV state over the
        // `_` and the right token: the hash of the bigram's text.
        for (i, pair) in spans.windows(2).enumerate() {
            hashes.push(fnv1a64_from(hashes[i], &bytes[pair[0].end..pair[1].end]));
        }
        Terms {
            joined,
            spans,
            hashes,
        }
    }

    /// Every term's hash, tokens then bigrams.
    pub(crate) fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Every term's text, tokens then bigrams.
    pub(crate) fn texts(&self) -> impl Iterator<Item = &str> {
        let bigrams = self.spans.windows(2).map(|pair| pair[0].start..pair[1].end);
        (self.spans.iter().cloned().chain(bigrams)).map(|s| &self.joined[s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_case() {
        assert_eq!(
            tokenize("Show me QoQFP, please!"),
            vec!["show", "me", "qoqfp", "please"]
        );
    }

    #[test]
    fn snake_case_columns_split() {
        assert_eq!(tokenize("ORG_NAME"), vec!["org", "name"]);
    }

    #[test]
    fn numbers_kept() {
        assert_eq!(tokenize("Q2 2023"), vec!["q2", "2023"]);
    }

    #[test]
    fn empty_and_symbol_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ???").is_empty());
    }

    #[test]
    fn bigram_windows() {
        let toks = tokenize("best and worst");
        assert_eq!(bigrams(&toks), vec!["best_and", "and_worst"]);
        assert!(bigrams(&tokenize("one")).is_empty());
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(tokenize("Café MÜNCHEN"), vec!["café", "münchen"]);
    }
}
