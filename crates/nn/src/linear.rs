//! Fully-connected layer.

use crate::init;
use crate::params::{ParamVisitor, Parameterized};
use zskip_tensor::{Matrix, SeedableStream};

/// A dense affine layer `y = x·W + b` with `W : in × out`.
///
/// Used as the classifier head of all three task models.
///
/// # Example
///
/// ```
/// use zskip_nn::Linear;
/// use zskip_tensor::{Matrix, SeedableStream};
///
/// let mut rng = SeedableStream::new(0);
/// let lin = Linear::new(4, 2, &mut rng);
/// let y = lin.forward(&Matrix::zeros(3, 4));
/// assert_eq!((y.rows(), y.cols()), (3, 2));
/// ```
#[derive(Clone, Debug)]
pub struct Linear {
    input: usize,
    output: usize,
    w: Matrix,
    b: Vec<f32>,
    dw: Option<Matrix>,
    db: Option<Vec<f32>>,
}

impl Linear {
    /// Creates a Xavier-initialized layer.
    pub fn new(input: usize, output: usize, rng: &mut SeedableStream) -> Self {
        assert!(input > 0 && output > 0, "linear dims must be positive");
        Self {
            input,
            output,
            w: init::xavier_uniform(input, output, rng),
            b: vec![0.0; output],
            dw: None,
            db: None,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.output
    }

    /// The weight matrix (`in × out`).
    pub fn weight(&self) -> &Matrix {
        &self.w
    }

    /// The bias vector (`out`).
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Forward pass on a `B × in` batch; returns `B × out`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.input_dim()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input, "linear input dim mismatch");
        let mut y = x.matmul(&self.w);
        y.add_row_broadcast(&self.b);
        y
    }

    /// Backward pass: accumulates weight gradients and returns `d_x`.
    ///
    /// `x` must be the same batch that produced `d_y`.
    pub fn backward(&mut self, x: &Matrix, d_y: &Matrix) -> Matrix {
        assert_eq!(d_y.cols(), self.output, "linear output grad mismatch");
        assert_eq!(x.rows(), d_y.rows(), "linear batch mismatch");
        let (i, o) = (self.input, self.output);
        let dw = self.dw.get_or_insert_with(|| Matrix::zeros(i, o));
        dw.add_tgemm(1.0, x, d_y);
        let db = self.db.get_or_insert_with(|| vec![0.0; o]);
        for r in 0..d_y.rows() {
            for (acc, v) in db.iter_mut().zip(d_y.row(r)) {
                *acc += v;
            }
        }
        d_y.matmul_nt(&self.w)
    }
}

impl Parameterized for Linear {
    fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        let (i, o) = (self.input, self.output);
        let dw = self.dw.get_or_insert_with(|| Matrix::zeros(i, o));
        visitor.visit("linear.w", self.w.as_mut_slice(), dw.as_mut_slice());
        let db = self.db.get_or_insert_with(|| vec![0.0; o]);
        visitor.visit("linear.b", &mut self.b, db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Parameterized;

    #[test]
    fn forward_applies_bias() {
        let mut rng = SeedableStream::new(1);
        let mut lin = Linear::new(2, 2, &mut rng);
        struct SetB;
        impl ParamVisitor for SetB {
            fn visit(&mut self, n: &str, p: &mut [f32], _g: &mut [f32]) {
                if n == "linear.b" {
                    p.copy_from_slice(&[1.0, -1.0]);
                }
            }
        }
        lin.visit_params(&mut SetB);
        let y = lin.forward(&Matrix::zeros(1, 2));
        assert_eq!(y.row(0), &[1.0, -1.0]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = SeedableStream::new(2);
        let mut lin = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_fn(4, 3, |r, c| ((r + c) as f32 * 0.31).sin());
        // Loss = sum of outputs -> d_y = ones.
        let loss = |l: &Linear| l.forward(&x).as_slice().iter().sum::<f32>();

        lin.zero_grads();
        let d_y = Matrix::from_fn(4, 2, |_, _| 1.0);
        let _ = lin.backward(&x, &d_y);

        struct Grab(Vec<(String, Vec<f32>, Vec<f32>)>);
        impl ParamVisitor for Grab {
            fn visit(&mut self, n: &str, p: &mut [f32], g: &mut [f32]) {
                self.0.push((n.into(), p.to_vec(), g.to_vec()));
            }
        }
        let mut grab = Grab(Vec::new());
        lin.visit_params(&mut grab);

        let eps = 1e-3f32;
        for (name, values, grads) in &grab.0 {
            for (idx, analytic) in grads.iter().enumerate().take(values.len()) {
                struct Poke<'a>(&'a str, usize, f32);
                impl ParamVisitor for Poke<'_> {
                    fn visit(&mut self, n: &str, p: &mut [f32], _g: &mut [f32]) {
                        if n == self.0 {
                            p[self.1] += self.2;
                        }
                    }
                }
                lin.visit_params(&mut Poke(name, idx, eps));
                let up = loss(&lin);
                lin.visit_params(&mut Poke(name, idx, -2.0 * eps));
                let down = loss(&lin);
                lin.visit_params(&mut Poke(name, idx, eps));
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{name}[{idx}]: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn backward_returns_dx_of_input_shape() {
        let mut rng = SeedableStream::new(3);
        let mut lin = Linear::new(5, 3, &mut rng);
        let x = Matrix::zeros(2, 5);
        let d_y = Matrix::from_fn(2, 3, |_, _| 0.5);
        let dx = lin.backward(&x, &d_y);
        assert_eq!((dx.rows(), dx.cols()), (2, 5));
    }
}
