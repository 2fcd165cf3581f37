use std::sync::OnceLock;

use ndtensor::{matmul, matmul_at_b, Tensor};
use rand::Rng;

use crate::layer::{Layer, LayerKind, ParamGrad};
use crate::{NeuralError, Result};

/// A fully-connected layer computing `y = x·Wᵀ + b`.
///
/// * weights `W`: `[out_features, in_features]`, He-normal initialised
/// * bias `b`: `[out_features]`, zero initialised
/// * input: `[N, in_features]`, output: `[N, out_features]`
///
/// Both forward passes run `matmul(x, Wᵀ) + b` on a transposed weight
/// panel `Wᵀ: [in_features, out_features]`, built on first use and
/// dropped by every `&mut` path to the weights
/// ([`Layer::params_and_grads`], hence `set_params` and optimizer
/// steps). The plain GEMM vectorizes across outputs and amortizes over
/// the batch, which the `[out, in]` layout cannot. For finite weights it
/// is bitwise-equal to the schoolbook `Σ_k x[i][k]·W[j][k]` chain
/// started at +0: its only difference is skipping exact-zero `x`
/// entries, and a ±0 product never changes a chain that starts at +0.
/// The stored `[out, in]` weights stay the source of truth for
/// serialization, backward and saliency.
///
/// # Example
///
/// ```
/// use neural::layer::{Dense, Layer};
/// use ndtensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), neural::NeuralError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let layer = Dense::new(3, 2, &mut rng)?;
/// let y = layer.forward(&Tensor::zeros([4, 3]))?;
/// assert_eq!(y.shape().dims(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    /// `Wᵀ`, `[in_features, out_features]`; empty until the first
    /// forward after construction or a weight update.
    panel: OnceLock<Tensor>,
}

impl Dense {
    /// Creates a He-normal-initialised dense layer.
    ///
    /// # Errors
    ///
    /// Fails when either feature count is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(NeuralError::invalid(
                "Dense::new",
                "feature counts must be non-zero",
            ));
        }
        let mut weight = Tensor::zeros([out_features, in_features]);
        ndtensor::fill_he_normal(&mut weight, rng, in_features)?;
        Ok(Dense {
            weight,
            bias: Tensor::zeros([out_features]),
            grad_weight: Tensor::zeros([out_features, in_features]),
            grad_bias: Tensor::zeros([out_features]),
            cached_input: None,
            panel: OnceLock::new(),
        })
    }

    /// Creates a layer with explicit weights (used by deserialization and
    /// tests).
    ///
    /// # Errors
    ///
    /// Fails when `weight` is not rank 2 or `bias` does not match its
    /// leading dimension.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Result<Self> {
        if weight.rank() != 2 {
            return Err(NeuralError::invalid(
                "Dense::from_parts",
                format!("weight must be rank 2, got {}", weight.shape()),
            ));
        }
        let out = weight.shape().dims()[0];
        if bias.shape().dims() != [out] {
            return Err(NeuralError::invalid(
                "Dense::from_parts",
                format!("bias shape {} does not match out={out}", bias.shape()),
            ));
        }
        let gw = Tensor::zeros(weight.shape().clone());
        let gb = Tensor::zeros(bias.shape().clone());
        Ok(Dense {
            weight,
            bias,
            grad_weight: gw,
            grad_bias: gb,
            cached_input: None,
            panel: OnceLock::new(),
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.shape().dims()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.shape().dims()[0]
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.rank() != 2 || input.shape().dims()[1] != self.in_features() {
            return Err(NeuralError::invalid(
                "Dense::forward",
                format!(
                    "expected input [N, {}], got {}",
                    self.in_features(),
                    input.shape()
                ),
            ));
        }
        Ok(())
    }

    fn compute(&self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input)?;
        let panel = match self.panel.get() {
            Some(panel) => panel,
            None => {
                let built = self.weight.transpose2d()?;
                self.panel.get_or_init(|| built)
            }
        };
        let mut out = matmul(input, panel)?;
        let (n, f) = (out.shape().dims()[0], out.shape().dims()[1]);
        let bias = self.bias.as_slice();
        let data = out.as_mut_slice();
        for i in 0..n {
            for j in 0..f {
                data[i * f + j] += bias[j];
            }
        }
        Ok(out)
    }
}

impl Layer for Dense {
    fn kind(&self) -> LayerKind {
        LayerKind::Dense {
            in_features: self.in_features(),
            out_features: self.out_features(),
        }
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.compute(input)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = self.compute(input)?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .take()
            .ok_or(NeuralError::MissingCache { layer: "Dense" })?;
        let n = input.shape().dims()[0];
        if grad_output.shape().dims() != [n, self.out_features()] {
            return Err(NeuralError::invalid(
                "Dense::backward",
                format!(
                    "expected grad [{n}, {}], got {}",
                    self.out_features(),
                    grad_output.shape()
                ),
            ));
        }
        // dW += gᵀ·x, db += column sums of g, dx = g·W.
        let dw = matmul_at_b(grad_output, &input)?;
        self.grad_weight.axpy(1.0, &dw)?;
        let f = self.out_features();
        let g = grad_output.as_slice();
        let gb = self.grad_bias.as_mut_slice();
        for row in g.chunks(f) {
            for (acc, &v) in gb.iter_mut().zip(row) {
                *acc += v;
            }
        }
        Ok(matmul(grad_output, &self.weight)?)
    }

    fn params_and_grads(&mut self) -> Vec<ParamGrad<'_>> {
        // The caller may rewrite the weights: the panel is stale.
        self.panel.take();
        vec![
            ParamGrad {
                param: &mut self.weight,
                grad: &mut self.grad_weight,
            },
            ParamGrad {
                param: &mut self.bias,
                grad: &mut self.grad_bias,
            },
        ]
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias] // sncheck:allow(hot-path-transitive-alloc): two-element parameter list, built once per characterization profile, never per frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer_with(w: Vec<f32>, b: Vec<f32>, out: usize, inp: usize) -> Dense {
        Dense::from_parts(
            Tensor::from_vec([out, inp], w).unwrap(),
            Tensor::from_vec([out], b).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn forward_computes_affine_map() {
        // y = x·Wᵀ + b with W = [[1, 2], [3, 4]], b = [10, 20].
        let layer = layer_with(vec![1., 2., 3., 4.], vec![10., 20.], 2, 2);
        let x = Tensor::from_vec([1, 2], vec![1., 1.]).unwrap();
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[13., 27.]);
    }

    #[test]
    fn construction_validates() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Dense::new(0, 2, &mut rng).is_err());
        assert!(Dense::new(2, 0, &mut rng).is_err());
        assert!(Dense::from_parts(Tensor::zeros([2, 3]), Tensor::zeros([3])).is_err());
        assert!(Dense::from_parts(Tensor::zeros([2]), Tensor::zeros([2])).is_err());
    }

    #[test]
    fn forward_rejects_bad_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Dense::new(3, 2, &mut rng).unwrap();
        assert!(layer.forward(&Tensor::zeros([2, 4])).is_err());
        assert!(layer.forward(&Tensor::zeros([3])).is_err());
    }

    #[test]
    fn backward_without_cache_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(2, 2, &mut rng).unwrap();
        assert!(matches!(
            layer.backward(&Tensor::zeros([1, 2])),
            Err(NeuralError::MissingCache { .. })
        ));
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = Dense::new(3, 2, &mut rng).unwrap();
        let x = Tensor::from_vec([2, 3], vec![0.5, -0.2, 0.8, 0.1, 0.4, -0.6]).unwrap();

        // Loss = sum of outputs.
        let out = layer.forward_train(&x).unwrap();
        let gin = layer.backward(&Tensor::ones(out.shape().clone())).unwrap();

        let eps = 1e-3f32;
        // Input gradient.
        for probe in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let numeric = (layer.forward(&xp).unwrap().sum() - layer.forward(&xm).unwrap().sum())
                / (2.0 * eps);
            let analytic = gin.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "input grad {probe}: {numeric} vs {analytic}"
            );
        }
        // Weight gradient: dL/dW[o][i] = Σ_batch x[n][i].
        let pgs = layer.params_and_grads();
        let gw = pgs[0].grad.clone();
        for o in 0..2 {
            for i in 0..3 {
                let expect = x.at(&[0, i]).unwrap() + x.at(&[1, i]).unwrap();
                assert!((gw.at(&[o, i]).unwrap() - expect).abs() < 1e-5);
            }
        }
        // Bias gradient: batch size.
        let gb = pgs[1].grad.clone();
        assert!(gb.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        drop(pgs);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(2, 1, &mut rng).unwrap();
        let x = Tensor::ones([1, 2]);
        for _ in 0..2 {
            let out = layer.forward_train(&x).unwrap();
            layer.backward(&Tensor::ones(out.shape().clone())).unwrap();
        }
        {
            let pgs = layer.params_and_grads();
            assert!((pgs[1].grad.as_slice()[0] - 2.0).abs() < 1e-6);
        }
        layer.zero_grads();
        let pgs = layer.params_and_grads();
        assert_eq!(pgs[1].grad.as_slice()[0], 0.0);
    }

    #[test]
    fn param_count_and_set_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(4, 3, &mut rng).unwrap();
        assert_eq!(layer.param_count(), 4 * 3 + 3);
        let new_w = Tensor::ones([3, 4]);
        let new_b = Tensor::ones([3]);
        layer.set_params(&[new_w.clone(), new_b]).unwrap();
        assert_eq!(layer.params()[0], &new_w);
        assert!(layer.set_params(&[Tensor::zeros([2, 2])]).is_err());
    }

    #[test]
    fn weight_updates_invalidate_the_transposed_panel() {
        use crate::optim::{Optimizer, Sgd};

        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // What a layer built from scratch on the current weights computes.
        let fresh = |layer: &Dense, x: &Tensor| {
            let p = layer.params();
            let rebuilt = Dense::from_parts(p[0].clone(), p[1].clone()).unwrap();
            bits(&rebuilt.forward(x).unwrap())
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Dense::new(5, 3, &mut rng).unwrap();
        let x = Tensor::from_vec(
            [2, 5],
            vec![0.5, -0.25, 0.0, 1.5, -2.0, 1.0, 0.75, -0.5, 0.25, 2.0],
        )
        .unwrap();
        let before = bits(&layer.forward(&x).unwrap());

        layer
            .set_params(&[Tensor::full([3, 5], 0.5), Tensor::ones([3])])
            .unwrap();
        let after_set = bits(&layer.forward(&x).unwrap());
        assert_ne!(after_set, before);
        assert_eq!(after_set, fresh(&layer, &x));

        let out = layer.forward_train(&x).unwrap();
        layer.backward(&Tensor::ones(out.shape().clone())).unwrap();
        Sgd::new(0.1)
            .unwrap()
            .step(&mut layer.params_and_grads())
            .unwrap();
        let after_step = bits(&layer.forward(&x).unwrap());
        assert_ne!(after_step, after_set);
        assert_eq!(after_step, fresh(&layer, &x));
        assert_eq!(bits(&layer.forward_train(&x).unwrap()), after_step);
    }
}
