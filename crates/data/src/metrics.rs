//! Training metrics: loss tracking and perplexity.

/// Perplexity corresponding to a mean cross-entropy (nats).
///
/// # Examples
///
/// ```
/// // A uniform distribution over 4 classes has perplexity 4.
/// let ppl = menos_data::perplexity(4.0f32.ln());
/// assert!((ppl - 4.0).abs() < 1e-4);
/// ```
pub fn perplexity(mean_cross_entropy: f32) -> f32 {
    mean_cross_entropy.exp()
}

/// A convergence curve: (step, loss) points plus helpers the
/// experiment harness uses for reporting.
#[derive(Debug, Clone, Default)]
pub struct LossCurve {
    points: Vec<(usize, f32)>,
}

impl LossCurve {
    /// Creates an empty curve.
    pub fn new() -> Self {
        LossCurve::default()
    }

    /// Appends a (step, loss) sample.
    pub fn push(&mut self, step: usize, loss: f32) {
        self.points.push((step, loss));
    }

    /// Removes and returns the most recent sample — how a split client
    /// rolls back the provisional loss point of a step it must redo
    /// after a reconnect.
    pub fn pop(&mut self) -> Option<(usize, f32)> {
        self.points.pop()
    }

    /// All recorded points.
    pub fn points(&self) -> &[(usize, f32)] {
        &self.points
    }

    /// The final loss, if any samples exist.
    pub fn final_loss(&self) -> Option<f32> {
        self.points.last().map(|&(_, l)| l)
    }

    /// Mean loss over the last `n` samples (or all, if fewer).
    pub fn tail_mean(&self, n: usize) -> Option<f32> {
        if self.points.is_empty() {
            return None;
        }
        let take = n.min(self.points.len());
        let s: f32 = self.points[self.points.len() - take..]
            .iter()
            .map(|&(_, l)| l)
            .sum();
        Some(s / take as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perplexity_of_zero_loss_is_one() {
        assert!((perplexity(0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn loss_curve_statistics() {
        let mut c = LossCurve::new();
        for (i, l) in [5.0, 4.0, 3.0, 1.0, 1.0, 1.0].iter().enumerate() {
            c.push(i, *l);
        }
        assert_eq!(c.final_loss(), Some(1.0));
        assert_eq!(c.tail_mean(3), Some(1.0));
        assert_eq!(c.points().len(), 6);
    }

    #[test]
    fn loss_curve_empty() {
        let c = LossCurve::new();
        assert_eq!(c.final_loss(), None);
        assert_eq!(c.tail_mean(3), None);
    }
}
