//! Character-level vocabulary and tokenization.
//!
//! The paper fine-tunes on wikitext-2 and Tiny-Shakespeare with a
//! subword tokenizer; for the tiny real-training models in this
//! reproduction a character vocabulary keeps the embedding table small
//! while preserving the next-token-prediction task structure.

use std::collections::BTreeMap;

/// A character-level vocabulary mapping each distinct character of a
/// corpus to a contiguous token id.
///
/// Ids are assigned in character (Unicode scalar) order, so the same
/// corpus always yields the same vocabulary.
///
/// # Examples
///
/// ```
/// use menos_data::Vocab;
///
/// let v = Vocab::from_text("hello");
/// assert_eq!(v.size(), 4); // e, h, l, o
/// let ids = v.encode("hell");
/// assert_eq!(v.decode(&ids), "hell");
/// ```
#[derive(Debug, Clone)]
pub struct Vocab {
    char_to_id: BTreeMap<char, usize>,
    id_to_char: Vec<char>,
}

impl Vocab {
    /// Builds a vocabulary over every distinct character in `text`.
    ///
    /// # Panics
    ///
    /// Panics if `text` is empty — an empty vocabulary cannot encode
    /// anything.
    pub fn from_text(text: &str) -> Self {
        assert!(
            !text.is_empty(),
            "cannot build a vocabulary from empty text"
        );
        let mut chars: Vec<char> = text.chars().collect();
        chars.sort_unstable();
        chars.dedup();
        let char_to_id = chars.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        Vocab {
            char_to_id,
            id_to_char: chars,
        }
    }

    /// Number of distinct tokens.
    pub fn size(&self) -> usize {
        self.id_to_char.len()
    }

    /// Encodes text to token ids. Characters outside the vocabulary map
    /// to token 0 (documented lossy fallback, mirroring `<unk>`).
    pub fn encode(&self, text: &str) -> Vec<usize> {
        text.chars()
            .map(|c| self.char_to_id.get(&c).copied().unwrap_or(0))
            .collect()
    }

    /// Decodes token ids back to text.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn decode(&self, ids: &[usize]) -> String {
        ids.iter().map(|&i| self.id_to_char[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let text = "the quick brown fox";
        let v = Vocab::from_text(text);
        assert_eq!(v.decode(&v.encode(text)), text);
    }

    #[test]
    fn ids_are_contiguous_and_sorted() {
        let v = Vocab::from_text("cba");
        assert_eq!(v.size(), 3);
        assert_eq!(v.encode("abc"), vec![0, 1, 2]);
    }

    #[test]
    fn unknown_chars_map_to_zero() {
        let v = Vocab::from_text("ab");
        assert_eq!(v.encode("axb"), vec![0, 0, 1]);
    }

    #[test]
    fn determinism() {
        let a = Vocab::from_text("hello world");
        let b = Vocab::from_text("hello world");
        assert_eq!(a.encode("low"), b.encode("low"));
    }

    #[test]
    #[should_panic(expected = "empty text")]
    fn empty_text_rejected() {
        Vocab::from_text("");
    }
}
