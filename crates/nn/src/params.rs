//! Parameter traversal.
//!
//! Optimizers, gradient clipping and freezing all need to walk every
//! `(parameter, gradient)` pair of a model without knowing its structure.
//! Models implement [`Parameterized`]; consumers implement [`ParamVisitor`]
//! and are handed each pair along with a stable name (used by stateful
//! optimizers such as Adam to key their moment buffers).

/// Receives every parameter/gradient pair of a [`Parameterized`] model.
pub trait ParamVisitor {
    /// Called once per parameter tensor.
    ///
    /// `name` is stable across calls for the same model instance; `param`
    /// and `grad` always have equal lengths.
    fn visit(&mut self, name: &str, param: &mut [f32], grad: &mut [f32]);
}

/// A model whose parameters can be traversed.
pub trait Parameterized {
    /// Walks every parameter tensor, invoking `visitor` once per tensor.
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor);

    /// Sets every gradient buffer to zero.
    fn zero_grads(&mut self) {
        struct Zero;
        impl ParamVisitor for Zero {
            fn visit(&mut self, _n: &str, _p: &mut [f32], g: &mut [f32]) {
                g.fill(0.0);
            }
        }
        self.visit_params(&mut Zero);
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        struct Count(usize);
        impl ParamVisitor for Count {
            fn visit(&mut self, _n: &str, p: &mut [f32], _g: &mut [f32]) {
                self.0 += p.len();
            }
        }
        let mut c = Count(0);
        self.visit_params(&mut c);
        c.0
    }

    /// Global L2 norm of all gradients.
    fn grad_norm(&mut self) -> f32 {
        struct Norm(f64);
        impl ParamVisitor for Norm {
            fn visit(&mut self, _n: &str, _p: &mut [f32], g: &mut [f32]) {
                self.0 += g.iter().map(|x| (*x as f64) * (*x as f64)).sum::<f64>();
            }
        }
        let mut n = Norm(0.0);
        self.visit_params(&mut n);
        (n.0.sqrt()) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        w: Vec<f32>,
        dw: Vec<f32>,
        b: Vec<f32>,
        db: Vec<f32>,
    }

    impl Parameterized for Toy {
        fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
            v.visit("w", &mut self.w, &mut self.dw);
            v.visit("b", &mut self.b, &mut self.db);
        }
    }

    fn toy() -> Toy {
        Toy {
            w: vec![1.0, 2.0],
            dw: vec![3.0, 4.0],
            b: vec![5.0],
            db: vec![0.5],
        }
    }

    #[test]
    fn param_count_sums_tensors() {
        assert_eq!(toy().param_count(), 3);
    }

    #[test]
    fn zero_grads_clears_all() {
        let mut t = toy();
        t.zero_grads();
        assert!(t.dw.iter().all(|v| *v == 0.0));
        assert!(t.db.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn grad_norm_is_global_l2() {
        let mut t = toy();
        let expect = (3.0f32 * 3.0 + 4.0 * 4.0 + 0.25).sqrt();
        assert!((t.grad_norm() - expect).abs() < 1e-6);
    }
}
