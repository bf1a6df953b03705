//! Next-token-prediction datasets and batching.

use rand::seq::SliceRandom;

use menos_sim::seeded_rng;

/// One training batch for causal language modelling.
///
/// `inputs` and `targets` are row-major `[batch, seq]` token-id
/// matrices with `targets[i][j] = inputs[i][j + 1]` in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Input token ids, `batch_size * seq_len` entries.
    pub inputs: Vec<usize>,
    /// Target token ids (inputs shifted by one), same length.
    pub targets: Vec<usize>,
    /// Number of sequences in the batch.
    pub batch_size: usize,
    /// Tokens per sequence.
    pub seq_len: usize,
}

impl Batch {
    /// The logical dims of the input matrix.
    pub fn dims(&self) -> [usize; 2] {
        [self.batch_size, self.seq_len]
    }
}

/// A tokenized corpus serving fixed-length causal-LM batches.
///
/// Windows are non-overlapping; epoch order is shuffled
/// deterministically from the dataset seed so multi-client runs are
/// reproducible.
///
/// # Examples
///
/// ```
/// use menos_data::TokenDataset;
///
/// let tokens: Vec<usize> = (0..100).map(|i| i % 7).collect();
/// let ds = TokenDataset::new(tokens, 8, 42);
/// let batch = ds.batch(0, 2);
/// assert_eq!(batch.dims(), [2, 8]);
/// assert_eq!(batch.inputs.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct TokenDataset {
    tokens: Vec<usize>,
    seq_len: usize,
    window_order: Vec<usize>,
}

impl TokenDataset {
    /// Builds a dataset of non-overlapping `seq_len` windows over
    /// `tokens` (each window needs `seq_len + 1` tokens for the shifted
    /// target).
    ///
    /// # Panics
    ///
    /// Panics if the corpus is too short for a single window or
    /// `seq_len` is zero.
    pub fn new(tokens: Vec<usize>, seq_len: usize, seed: u64) -> Self {
        assert!(seq_len > 0, "seq_len must be positive");
        assert!(
            tokens.len() > seq_len,
            "corpus of {} tokens too short for seq_len {seq_len}",
            tokens.len()
        );
        let n_windows = (tokens.len() - 1) / seq_len;
        let mut window_order: Vec<usize> = (0..n_windows).collect();
        let mut rng = seeded_rng(seed, "dataset-shuffle");
        window_order.shuffle(&mut rng);
        TokenDataset {
            tokens,
            seq_len,
            window_order,
        }
    }

    /// Number of available windows.
    fn num_windows(&self) -> usize {
        self.window_order.len()
    }

    /// Number of batches per epoch at the given batch size (floor).
    fn batches_per_epoch(&self, batch_size: usize) -> usize {
        self.num_windows() / batch_size
    }

    /// Tokens per sequence.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Splits the corpus into a training and a held-out validation
    /// dataset at `train_frac` (by token position, so the two never
    /// overlap).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_frac < 1` and both halves can hold at
    /// least one window.
    pub fn train_valid_split(&self, train_frac: f64, seed: u64) -> (TokenDataset, TokenDataset) {
        assert!(
            (0.0..1.0).contains(&train_frac) && train_frac > 0.0,
            "train_frac must be in (0, 1)"
        );
        let cut = ((self.tokens.len() as f64) * train_frac) as usize;
        assert!(
            cut > self.seq_len && self.tokens.len() - cut > self.seq_len,
            "split leaves a half too short for seq_len {}",
            self.seq_len
        );
        (
            TokenDataset::new(self.tokens[..cut].to_vec(), self.seq_len, seed),
            TokenDataset::new(self.tokens[cut..].to_vec(), self.seq_len, seed),
        )
    }

    /// Builds batch `index` (wrapping around epochs) of `batch_size`
    /// sequences.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero or exceeds the number of windows.
    pub fn batch(&self, index: usize, batch_size: usize) -> Batch {
        assert!(batch_size > 0, "batch_size must be positive");
        assert!(
            batch_size <= self.num_windows(),
            "batch_size {batch_size} exceeds {} windows",
            self.num_windows()
        );
        let per_epoch = self.batches_per_epoch(batch_size).max(1);
        let b = index % per_epoch;
        let mut inputs = Vec::with_capacity(batch_size * self.seq_len);
        let mut targets = Vec::with_capacity(batch_size * self.seq_len);
        for i in 0..batch_size {
            let w = self.window_order[b * batch_size + i];
            let start = w * self.seq_len;
            inputs.extend_from_slice(&self.tokens[start..start + self.seq_len]);
            targets.extend_from_slice(&self.tokens[start + 1..start + self.seq_len + 1]);
        }
        Batch {
            inputs,
            targets,
            batch_size,
            seq_len: self.seq_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(n: usize, seq: usize) -> TokenDataset {
        TokenDataset::new((0..n).collect(), seq, 1)
    }

    #[test]
    fn targets_are_shifted_inputs() {
        let d = ds(50, 4);
        let b = d.batch(0, 2);
        for i in 0..b.inputs.len() {
            assert_eq!(b.targets[i], b.inputs[i] + 1);
        }
    }

    #[test]
    fn window_counts() {
        // 50 tokens, seq 4: (50-1)/4 = 12 windows.
        let d = ds(50, 4);
        assert_eq!(d.num_windows(), 12);
        assert_eq!(d.batches_per_epoch(4), 3);
        assert_eq!(d.seq_len(), 4);
    }

    #[test]
    fn batches_wrap_epochs() {
        let d = ds(50, 4);
        let b0 = d.batch(0, 4);
        let b3 = d.batch(3, 4); // wraps to batch 0
        assert_eq!(b0, b3);
    }

    #[test]
    fn shuffling_is_deterministic_per_seed() {
        let a = TokenDataset::new((0..100).collect(), 5, 9).batch(0, 2);
        let b = TokenDataset::new((0..100).collect(), 5, 9).batch(0, 2);
        assert_eq!(a, b);
        let c = TokenDataset::new((0..100).collect(), 5, 10).batch(0, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn windows_do_not_overlap() {
        let d = ds(101, 10);
        let b = d.batch(0, d.num_windows());
        // Every window's first token is a multiple of seq_len.
        for i in 0..b.batch_size {
            assert_eq!(b.inputs[i * 10] % 10, 0);
        }
        // All windows distinct.
        let mut starts: Vec<usize> = (0..b.batch_size).map(|i| b.inputs[i * 10]).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), b.batch_size);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_corpus_rejected() {
        TokenDataset::new(vec![1, 2, 3], 4, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_batch_rejected() {
        ds(20, 4).batch(0, 100);
    }

    #[test]
    fn train_valid_split_is_disjoint() {
        let d = ds(100, 4);
        let (train, valid) = d.train_valid_split(0.8, 1);
        // Token ids are 0..100 in order; train windows draw from
        // [0, 80), valid from [80, 100).
        let tb = train.batch(0, train.num_windows());
        assert!(tb.inputs.iter().all(|&t| t < 80));
        let vb = valid.batch(0, valid.num_windows());
        assert!(vb.inputs.iter().all(|&t| t >= 80));
        assert!(train.num_windows() > valid.num_windows());
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn split_rejects_tiny_halves() {
        ds(20, 8).train_valid_split(0.9, 1);
    }
}
