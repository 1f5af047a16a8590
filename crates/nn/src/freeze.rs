//! Freezing: exporting trained parameters for inference-only consumers.
//!
//! The serving runtime (`zskip-runtime`) keeps its own copies of the
//! parameters — plain matrices, no gradient buffers — extracted through
//! the [`ParamVisitor`] traversal. [`Freezable`] is the contract between
//! a training model and its frozen counterpart: a model that implements
//! it promises a **stable tensor-name contract** (the names and order
//! produced by [`Parameterized::visit_params`] never change for a given
//! model family), so a freezer can match tensors by exact name and fail
//! loudly when the model grows parameters it does not know about.
//!
//! # Why freezing takes `&mut`
//!
//! Exporting is read-only in spirit, but [`Parameterized::visit_params`]
//! hands out `&mut [f32]` slices — the same traversal drives the
//! optimizers, which *do* write — and lazily allocates
//! gradient buffers on first visit. A read-only twin trait would force
//! every layer to duplicate its traversal, so freezing borrows the model
//! mutably and promises not to touch the parameters instead. That
//! promise is checked: in debug builds [`Freezable::export_tensors`]
//! walks the model a second time and asserts every parameter is
//! **byte-identical** to the first walk.

use crate::params::{ParamVisitor, Parameterized};

/// A trained model whose parameters can be exported for inference.
///
/// Implementors only opt in (`impl Freezable for MyModel {}`); the
/// default [`export_tensors`](Freezable::export_tensors) does the work
/// through the model's existing [`Parameterized`] traversal. Each
/// implementing model documents its tensor names on the `impl`.
///
/// # Example
///
/// ```
/// use zskip_nn::models::CharLm;
/// use zskip_nn::Freezable;
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(1);
/// let mut model = CharLm::new(20, 16, &mut rng);
/// let tensors = model.export_tensors();
/// let names: Vec<&str> = tensors.iter().map(|(n, _)| n.as_str()).collect();
/// assert_eq!(names, ["lstm.wx", "lstm.wh", "lstm.b", "linear.w", "linear.b"]);
/// ```
pub trait Freezable: Parameterized {
    /// Exports every parameter tensor as `(name, values)` pairs, in
    /// visitor order.
    ///
    /// The model is only borrowed mutably because [`Parameterized`]
    /// hands out mutable slices (see the module docs); no parameter is
    /// modified — asserted byte-for-byte in debug builds.
    fn export_tensors(&mut self) -> Vec<(String, Vec<f32>)> {
        struct Extract(Vec<(String, Vec<f32>)>);
        impl ParamVisitor for Extract {
            fn visit(&mut self, name: &str, param: &mut [f32], _grad: &mut [f32]) {
                self.0.push((name.to_string(), param.to_vec()));
            }
        }
        let mut ex = Extract(Vec::new());
        self.visit_params(&mut ex);
        #[cfg(debug_assertions)]
        {
            struct Check<'a> {
                snapshot: &'a [(String, Vec<f32>)],
                next: usize,
            }
            impl ParamVisitor for Check<'_> {
                fn visit(&mut self, name: &str, param: &mut [f32], _grad: &mut [f32]) {
                    let (expect_name, expect_data) = &self.snapshot[self.next];
                    self.next += 1;
                    assert_eq!(expect_name, name, "tensor order changed between walks");
                    assert!(
                        expect_data.len() == param.len()
                            && expect_data
                                .iter()
                                .zip(param.iter())
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "freezing mutated parameter {name}"
                    );
                }
            }
            let mut check = Check {
                snapshot: &ex.0,
                next: 0,
            };
            self.visit_params(&mut check);
            assert_eq!(check.next, ex.0.len(), "tensor count changed between walks");
        }
        ex.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        w: Vec<f32>,
        dw: Vec<f32>,
    }

    impl Parameterized for Toy {
        fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
            v.visit("w", &mut self.w, &mut self.dw);
        }
    }

    impl Freezable for Toy {}

    #[test]
    fn export_copies_without_mutating() {
        let mut t = Toy {
            w: vec![1.5, -0.25],
            dw: vec![9.0, 9.0],
        };
        let tensors = t.export_tensors();
        assert_eq!(tensors.len(), 1);
        assert_eq!(tensors[0].0, "w");
        assert_eq!(tensors[0].1, vec![1.5, -0.25]);
        assert_eq!(t.w, vec![1.5, -0.25]);
        assert_eq!(t.dw, vec![9.0, 9.0], "gradients are not part of export");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "mutated parameter")]
    fn mutation_during_export_is_caught() {
        struct Evil {
            w: Vec<f32>,
            dw: Vec<f32>,
            walks: usize,
        }
        impl Parameterized for Evil {
            fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
                self.walks += 1;
                if self.walks == 2 {
                    self.w[0] += 1.0; // corrupt between walks
                }
                v.visit("w", &mut self.w, &mut self.dw);
            }
        }
        impl Freezable for Evil {}
        let mut e = Evil {
            w: vec![1.0],
            dw: vec![0.0],
            walks: 0,
        };
        let _ = e.export_tensors();
    }
}
