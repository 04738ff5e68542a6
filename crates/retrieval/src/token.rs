//! Text tokenization.

/// Lowercase alphanumeric tokenizer. Splits on any non-alphanumeric
/// character, keeps underscores inside identifiers together with their
/// word parts split out (so `ORG_NAME` yields `org` and `name` — matching
//  how analysts phrase questions about snake_case columns).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        // ASCII first: for an ASCII character `is_alphanumeric` and
        // `to_lowercase` are the ASCII versions, minus the Unicode tables.
        if ch.is_ascii_alphanumeric() {
            cur.push(ch.to_ascii_lowercase());
        } else if !ch.is_ascii() && ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
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
