//! Optimizers: Adam and SGD with gradient clipping and learning-rate decay.
//!
//! The paper uses ADAM (lr 2e-3) for char-level modeling, ADAM (lr 1e-3)
//! for sequential MNIST, and SGD (lr 1, decay factor 1.2, gradient-norm
//! clip 5) for the word-level task (Section II-B).

use crate::params::{ParamVisitor, Parameterized};
use std::collections::HashMap;

/// A stateful optimizer that can update any [`Parameterized`] model.
pub trait Optimizer {
    /// Applies one update step using the model's accumulated gradients.
    fn step(&mut self, model: &mut dyn Parameterized);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by decay schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Divides the learning rate by `factor` (the paper's "learning decay
    /// factor of 1.2").
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 0`.
    fn decay(&mut self, factor: f32) {
        assert!(factor > 0.0, "decay factor must be positive");
        self.set_learning_rate(self.learning_rate() / factor);
    }
}

/// Global-norm gradient clipping.
///
/// # Example
///
/// ```
/// use zskip_nn::GradClip;
///
/// let clip = GradClip::new(5.0);
/// assert_eq!(clip.max_norm(), 5.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GradClip {
    max_norm: f32,
}

impl GradClip {
    /// Creates a clipper with the given maximum global L2 norm.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm <= 0`.
    pub fn new(max_norm: f32) -> Self {
        assert!(max_norm > 0.0, "clip norm must be positive");
        Self { max_norm }
    }

    /// The configured maximum norm.
    pub fn max_norm(&self) -> f32 {
        self.max_norm
    }

    /// Rescales all gradients so the global norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn apply(&self, model: &mut dyn Parameterized) -> f32 {
        let norm = model.grad_norm();
        if norm > self.max_norm {
            let scale = self.max_norm / norm;
            struct Scale(f32);
            impl ParamVisitor for Scale {
                fn visit(&mut self, _n: &str, _p: &mut [f32], g: &mut [f32]) {
                    for v in g {
                        *v *= self.0;
                    }
                }
            }
            model.visit_params(&mut Scale(scale));
        }
        norm
    }
}

/// Plain SGD: `θ ← θ - lr · g`.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Parameterized) {
        struct Step(f32);
        impl ParamVisitor for Step {
            fn visit(&mut self, _n: &str, p: &mut [f32], g: &mut [f32]) {
                for (w, gv) in p.iter_mut().zip(g.iter()) {
                    *w -= self.0 * gv;
                }
            }
        }
        model.visit_params(&mut Step(self.lr));
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[derive(Clone, Debug, Default)]
struct AdamSlot {
    m: Vec<f32>,
    v: Vec<f32>,
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    slots: HashMap<String, AdamSlot>,
}

impl Adam {
    /// Creates Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            slots: HashMap::new(),
        }
    }

    /// Number of update steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Parameterized) {
        self.t += 1;
        struct Step<'a> {
            lr: f32,
            beta1: f32,
            beta2: f32,
            eps: f32,
            bc1: f32,
            bc2: f32,
            slots: &'a mut HashMap<String, AdamSlot>,
        }
        impl ParamVisitor for Step<'_> {
            fn visit(&mut self, name: &str, p: &mut [f32], g: &mut [f32]) {
                let slot = self.slots.entry(name.to_string()).or_default();
                if slot.m.len() != p.len() {
                    slot.m = vec![0.0; p.len()];
                    slot.v = vec![0.0; p.len()];
                }
                for i in 0..p.len() {
                    slot.m[i] = self.beta1 * slot.m[i] + (1.0 - self.beta1) * g[i];
                    slot.v[i] = self.beta2 * slot.v[i] + (1.0 - self.beta2) * g[i] * g[i];
                    let m_hat = slot.m[i] / self.bc1;
                    let v_hat = slot.v[i] / self.bc2;
                    p[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
                }
            }
        }
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let mut step = Step {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1,
            bc2,
            slots: &mut self.slots,
        };
        model.visit_params(&mut step);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quadratic bowl: loss = Σ w², gradient = 2w.
    struct Bowl {
        w: Vec<f32>,
        g: Vec<f32>,
    }

    impl Parameterized for Bowl {
        fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
            v.visit("w", &mut self.w, &mut self.g);
        }
    }

    impl Bowl {
        fn new() -> Self {
            Self {
                w: vec![1.0, -2.0, 3.0],
                g: vec![0.0; 3],
            }
        }
        fn fill_grad(&mut self) {
            for i in 0..self.w.len() {
                self.g[i] = 2.0 * self.w[i];
            }
        }
        fn loss(&self) -> f32 {
            self.w.iter().map(|w| w * w).sum()
        }
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut b = Bowl::new();
        let mut opt = Sgd::new(0.1);
        let initial = b.loss();
        for _ in 0..50 {
            b.fill_grad();
            opt.step(&mut b);
        }
        assert!(b.loss() < initial * 1e-3);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut b = Bowl::new();
        let mut opt = Adam::new(0.1);
        let initial = b.loss();
        for _ in 0..200 {
            b.fill_grad();
            opt.step(&mut b);
        }
        assert!(b.loss() < initial * 1e-3, "loss {}", b.loss());
        assert_eq!(opt.steps_taken(), 200);
    }

    #[test]
    fn sgd_decay_divides_lr() {
        let mut opt = Sgd::new(1.0);
        opt.decay(1.2);
        assert!((opt.learning_rate() - 1.0 / 1.2).abs() < 1e-6);
    }

    #[test]
    fn clip_rescales_to_max_norm() {
        let mut b = Bowl::new();
        b.g = vec![30.0, 40.0, 0.0]; // norm 50
        let clip = GradClip::new(5.0);
        let pre = clip.apply(&mut b);
        assert!((pre - 50.0).abs() < 1e-4);
        assert!((b.grad_norm() - 5.0).abs() < 1e-4);
        // Direction preserved.
        assert!((b.g[0] / b.g[1] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn clip_leaves_small_gradients_alone() {
        let mut b = Bowl::new();
        b.g = vec![0.3, 0.4, 0.0];
        let clip = GradClip::new(5.0);
        clip.apply(&mut b);
        assert_eq!(b.g, vec![0.3, 0.4, 0.0]);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, the very first Adam step is ≈ lr·sign(g).
        let mut b = Bowl {
            w: vec![1.0],
            g: vec![0.5],
        };
        let mut opt = Adam::new(0.01);
        opt.step(&mut b);
        assert!((b.w[0] - (1.0 - 0.01)).abs() < 1e-4, "w {}", b.w[0]);
    }
}
