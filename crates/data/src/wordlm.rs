//! Synthetic word-level corpus (PTB-word stand-in).
//!
//! PTB-word has a 10k vocabulary with a heavy-tailed (Zipfian) unigram
//! distribution and strong bigram structure. The generator reproduces
//! both: unigram probabilities follow `p(r) ∝ 1/(r+2)` over rank `r`, and
//! each word carries a seeded successor set that receives most of the
//! transition mass. The split follows the paper's 929k/73k/82k ratios
//! scaled to the requested size.

use zskip_tensor::SeedableStream;

/// Paper split ratios (train, valid, test) for PTB-word.
const SPLIT: (f64, f64, f64) = (929.0, 73.0, 82.0);

/// A generated word-id corpus with train/valid/test splits.
///
/// # Example
///
/// ```
/// use zskip_data::WordCorpus;
///
/// let corpus = WordCorpus::generate(1_000, 20_000, 42);
/// assert_eq!(corpus.vocab_size(), 1_000);
/// assert!(!corpus.train().is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct WordCorpus {
    vocab: usize,
    train: Vec<u32>,
    valid: Vec<u32>,
    test: Vec<u32>,
}

impl WordCorpus {
    /// Generates a corpus of about `total_tokens` tokens over a `vocab`-word
    /// vocabulary from the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `vocab < 10` or `total_tokens < 100`.
    pub fn generate(vocab: usize, total_tokens: usize, seed: u64) -> Self {
        assert!(vocab >= 10, "vocabulary too small");
        assert!(total_tokens >= 100, "corpus too small to split");
        let mut rng = SeedableStream::new(seed);
        let model = BigramModel::new(vocab, &mut rng);
        let total_ratio = SPLIT.0 + SPLIT.1 + SPLIT.2;
        let n_train = (total_tokens as f64 * SPLIT.0 / total_ratio) as usize;
        let n_valid = (total_tokens as f64 * SPLIT.1 / total_ratio) as usize;
        let n_test = total_tokens - n_train - n_valid;
        Self {
            vocab,
            train: model.sample(n_train, &mut rng),
            valid: model.sample(n_valid, &mut rng),
            test: model.sample(n_test, &mut rng),
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab
    }

    /// Training split.
    pub fn train(&self) -> &[u32] {
        &self.train
    }

    /// Validation split.
    pub fn valid(&self) -> &[u32] {
        &self.valid
    }

    /// Test split.
    pub fn test(&self) -> &[u32] {
        &self.test
    }
}

/// Zipf unigram + sparse bigram language model.
#[derive(Clone, Debug)]
struct BigramModel {
    vocab: usize,
    /// Cumulative Zipf distribution for O(log n) sampling.
    zipf_cdf: Vec<f64>,
    /// Per-word successor sets (size `SUCCESSORS`).
    successors: Vec<Vec<u32>>,
}

/// Successor-set size per word.
const SUCCESSORS: usize = 16;
/// Probability that the next word comes from the successor set.
const BIGRAM_MASS: f64 = 0.75;

impl BigramModel {
    fn new(vocab: usize, rng: &mut SeedableStream) -> Self {
        let mut cdf = Vec::with_capacity(vocab);
        let mut acc = 0.0f64;
        for r in 0..vocab {
            acc += 1.0 / (r as f64 + 2.0);
            cdf.push(acc);
        }
        let successors = (0..vocab)
            .map(|_| {
                (0..SUCCESSORS)
                    .map(|_| Self::sample_zipf_raw(&cdf, rng) as u32)
                    .collect()
            })
            .collect();
        Self {
            vocab,
            zipf_cdf: cdf,
            successors,
        }
    }

    fn sample_zipf_raw(cdf: &[f64], rng: &mut SeedableStream) -> usize {
        let total = *cdf.last().expect("non-empty cdf");
        let draw = rng.uniform(0.0, total as f32) as f64;
        match cdf.binary_search_by(|c| c.partial_cmp(&draw).expect("finite")) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    fn sample(&self, len: usize, rng: &mut SeedableStream) -> Vec<u32> {
        let mut out = Vec::with_capacity(len);
        let mut prev = Self::sample_zipf_raw(&self.zipf_cdf, rng) as u32;
        for _ in 0..len {
            let next = if rng.coin(BIGRAM_MASS) {
                let set = &self.successors[prev as usize];
                set[rng.index(set.len())]
            } else {
                Self::sample_zipf_raw(&self.zipf_cdf, rng) as u32
            };
            out.push(next);
            prev = next;
        }
        debug_assert!(out.iter().all(|w| (*w as usize) < self.vocab));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_stay_in_vocabulary() {
        let c = WordCorpus::generate(500, 5_000, 1);
        assert!(c.train().iter().all(|w| (*w as usize) < 500));
    }

    #[test]
    fn split_ratios_match_paper() {
        let c = WordCorpus::generate(200, 10_840, 2); // 100x down-scaled PTB
        let total = (c.train().len() + c.valid().len() + c.test().len()) as f64;
        assert!((c.train().len() as f64 / total - 0.857).abs() < 0.01);
    }

    #[test]
    fn unigram_law_is_heavy_tailed() {
        let c = WordCorpus::generate(1_000, 50_000, 3);
        let mut counts = vec![0usize; 1_000];
        for w in c.train() {
            counts[*w as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Top 10% of types should cover the majority of tokens.
        let head: usize = counts[..100].iter().sum();
        let frac = head as f64 / c.train().len() as f64;
        assert!(frac > 0.5, "head mass {frac}");
    }

    #[test]
    fn bigram_structure_is_present() {
        // The empirical probability that consecutive tokens repeat a
        // context-specific successor should be far above the unigram rate.
        let c = WordCorpus::generate(200, 30_000, 4);
        let t = c.train();
        let mut seen = std::collections::HashMap::<(u32, u32), usize>::new();
        for w in t.windows(2) {
            *seen.entry((w[0], w[1])).or_default() += 1;
        }
        // Count distinct bigram types: with strong structure it is much
        // smaller than the number of tokens.
        let distinct = seen.len() as f64;
        assert!(distinct < t.len() as f64 * 0.8, "distinct {distinct}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = WordCorpus::generate(300, 2_000, 9);
        let b = WordCorpus::generate(300, 2_000, 9);
        assert_eq!(a.train(), b.train());
    }
}
