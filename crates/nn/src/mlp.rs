//! The multi-layer perceptron.

use lhr_util::rng::rngs::SmallRng;
use lhr_util::rng::{Rng, SeedableRng};

/// Activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// 1 / (1 + e^{-x})
    Sigmoid,
    /// x
    Identity,
}

impl Activation {
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *activated* output `y`.
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }
}

/// One dense layer: `out = act(W·in + b)`, row-major weights.
#[derive(Debug, Clone)]
struct Dense {
    inputs: usize,
    outputs: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
    activation: Activation,
    // Adam moments (training state).
    m_w: Vec<f32>,
    v_w: Vec<f32>,
    m_b: Vec<f32>,
    v_b: Vec<f32>,
}

impl Dense {
    fn new(inputs: usize, outputs: usize, activation: Activation, rng: &mut SmallRng) -> Self {
        // Xavier/Glorot uniform initialization.
        let bound = (6.0 / (inputs + outputs) as f32).sqrt();
        Dense {
            inputs,
            outputs,
            weights: (0..inputs * outputs)
                .map(|_| rng.gen_range(-bound..bound))
                .collect(),
            bias: vec![0.0; outputs],
            activation,
            m_w: vec![0.0; inputs * outputs],
            v_w: vec![0.0; inputs * outputs],
            m_b: vec![0.0; outputs],
            v_b: vec![0.0; outputs],
        }
    }

    fn forward(&self, input: &[f32], output: &mut Vec<f32>) {
        debug_assert_eq!(input.len(), self.inputs);
        output.clear();
        for o in 0..self.outputs {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let z: f32 = row
                .iter()
                .zip(input.iter())
                .map(|(&w, &x)| w * x)
                .sum::<f32>()
                + self.bias[o];
            output.push(self.activation.apply(z));
        }
    }
}

/// Training hyperparameters for one SGD/Adam step.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Step size.
    pub learning_rate: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Use Adam (true) or plain SGD (false).
    pub adam: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.01,
            weight_decay: 0.0,
            adam: true,
        }
    }
}

/// The network.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    /// Adam step counter.
    t: u64,
}

impl Mlp {
    /// A network with the given layer sizes (`[in, h1, …, out]`), hidden
    /// activation, and output activation, deterministically initialized
    /// from `seed`.
    pub fn new(sizes: &[usize], hidden: Activation, output: Activation, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == sizes.len() { output } else { hidden };
                Dense::new(w[0], w[1], act, &mut rng)
            })
            .collect();
        Mlp { layers, t: 0 }
    }

    /// Input width.
    pub fn n_inputs(&self) -> usize {
        self.layers.first().expect("non-empty").inputs
    }

    /// Output width.
    pub fn n_outputs(&self) -> usize {
        self.layers.last().expect("non-empty").outputs
    }

    /// Forward pass.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        let mut current = input.to_vec();
        let mut next = Vec::new();
        for layer in &self.layers {
            layer.forward(&current, &mut next);
            std::mem::swap(&mut current, &mut next);
        }
        current
    }

    /// One gradient step on a single `(input, target)` pair with MSE loss.
    /// Returns the loss before the update.
    // Indexed loops mirror the textbook backprop equations; iterator chains
    // here would obscure the weight/bias indexing.
    #[allow(clippy::needless_range_loop)]
    pub fn train_step(&mut self, input: &[f32], target: &[f32], config: &TrainConfig) -> f32 {
        assert_eq!(input.len(), self.n_inputs(), "input width mismatch");
        assert_eq!(target.len(), self.n_outputs(), "target width mismatch");

        // Forward, retaining every layer's activated output.
        let mut activations: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len() + 1);
        activations.push(input.to_vec());
        for layer in &self.layers {
            let mut out = Vec::new();
            layer.forward(activations.last().expect("pushed"), &mut out);
            activations.push(out);
        }

        // Loss and output delta (dL/dz for the output layer).
        let output = activations.last().expect("pushed");
        let mut loss = 0.0f32;
        let out_layer = self.layers.last().expect("non-empty");
        let mut delta: Vec<f32> = output
            .iter()
            .zip(target.iter())
            .map(|(&y, &t)| {
                let err = y - t;
                loss += err * err;
                // MSE: dL/dy = 2·err (the 2 is folded into the learning
                // rate by convention); chain through the activation.
                err * out_layer.activation.derivative_from_output(y)
            })
            .collect();
        loss /= output.len() as f32;

        // Backward pass.
        self.t += 1;
        let t = self.t;
        for l in (0..self.layers.len()).rev() {
            let (input_act, output_act) = (&activations[l], &activations[l + 1]);
            debug_assert_eq!(output_act.len(), self.layers[l].outputs);
            // Compute the delta for the previous layer *before* mutating
            // weights.
            let prev_delta: Option<Vec<f32>> = if l > 0 {
                let prev_act = &activations[l];
                let layer = &self.layers[l];
                let prev_activation = self.layers[l - 1].activation;
                let mut pd = vec![0.0f32; layer.inputs];
                for o in 0..layer.outputs {
                    let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                    for (i, &w) in row.iter().enumerate() {
                        pd[i] += w * delta[o];
                    }
                }
                for (i, d) in pd.iter_mut().enumerate() {
                    *d *= prev_activation.derivative_from_output(prev_act[i]);
                }
                Some(pd)
            } else {
                None
            };

            let layer = &mut self.layers[l];
            for o in 0..layer.outputs {
                let d = delta[o];
                for i in 0..layer.inputs {
                    let idx = o * layer.inputs + i;
                    let grad = d * input_act[i] + config.weight_decay * layer.weights[idx];
                    let step = if config.adam {
                        adam_step(
                            &mut layer.m_w[idx],
                            &mut layer.v_w[idx],
                            grad,
                            t,
                            config.learning_rate,
                        )
                    } else {
                        config.learning_rate * grad
                    };
                    layer.weights[idx] -= step;
                }
                let step = if config.adam {
                    adam_step(
                        &mut layer.m_b[o],
                        &mut layer.v_b[o],
                        d,
                        t,
                        config.learning_rate,
                    )
                } else {
                    config.learning_rate * d
                };
                layer.bias[o] -= step;
            }
            if let Some(pd) = prev_delta {
                delta = pd;
            }
        }
        loss
    }

    /// Mean squared error over a batch.
    pub fn mse(&self, inputs: &[Vec<f32>], targets: &[Vec<f32>]) -> f32 {
        assert_eq!(inputs.len(), targets.len());
        if inputs.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f32;
        for (x, t) in inputs.iter().zip(targets.iter()) {
            let y = self.forward(x);
            total += y
                .iter()
                .zip(t.iter())
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f32>()
                / y.len() as f32;
        }
        total / inputs.len() as f32
    }

    /// Approximate in-memory size in bytes (weights + Adam state).
    pub fn approx_size_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| (l.weights.len() * 3 + l.bias.len() * 3) * 4)
            .sum()
    }
}

#[inline]
fn adam_step(m: &mut f32, v: &mut f32, grad: f32, t: u64, lr: f32) -> f32 {
    const B1: f32 = 0.9;
    const B2: f32 = 0.999;
    const EPS: f32 = 1e-8;
    *m = B1 * *m + (1.0 - B1) * grad;
    *v = B2 * *v + (1.0 - B2) * grad * grad;
    let m_hat = *m / (1.0 - B1.powi(t.min(1_000_000) as i32));
    let v_hat = *v / (1.0 - B2.powi(t.min(1_000_000) as i32));
    lr * m_hat / (v_hat.sqrt() + EPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let net = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Identity, 1);
        assert_eq!(net.n_inputs(), 3);
        assert_eq!(net.n_outputs(), 2);
        assert_eq!(net.forward(&[0.1, 0.2, 0.3]).len(), 2);
    }

    #[test]
    fn deterministic_initialization() {
        let a = Mlp::new(&[4, 8, 1], Activation::Relu, Activation::Sigmoid, 9);
        let b = Mlp::new(&[4, 8, 1], Activation::Relu, Activation::Sigmoid, 9);
        assert_eq!(a.forward(&[0.5; 4]), b.forward(&[0.5; 4]));
        let c = Mlp::new(&[4, 8, 1], Activation::Relu, Activation::Sigmoid, 10);
        assert_ne!(a.forward(&[0.5; 4]), c.forward(&[0.5; 4]));
    }

    #[test]
    fn gradient_matches_numerical_estimate() {
        // Analytic gradient (via one SGD step) vs central finite
        // differences on the loss — the canonical backprop correctness
        // check. Uses sigmoid everywhere so the loss surface is smooth.
        let input = vec![0.3f32, -0.7, 0.9];
        let target = vec![0.2f32, 0.8];
        let build = || Mlp::new(&[3, 4, 2], Activation::Sigmoid, Activation::Sigmoid, 3);

        let loss_of = |net: &Mlp| {
            let y = net.forward(&input);
            y.iter()
                .zip(target.iter())
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f32>()
                / y.len() as f32
        };

        // Numerical gradient for a handful of weights.
        for (layer_idx, weight_idx) in [(0usize, 0usize), (0, 5), (1, 3), (1, 7)] {
            let eps = 1e-3f32;
            let mut plus = build();
            plus.layers[layer_idx].weights[weight_idx] += eps;
            let mut minus = build();
            minus.layers[layer_idx].weights[weight_idx] -= eps;
            let numerical = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);

            // Analytic: after one *plain SGD* step with lr = 1, the weight
            // moves by −dL̃/dw where L̃ uses the delta convention
            // `err · act'` (i.e. Σ err² without the mean's 2/n factor, so
            // dL/dw of the *mean* loss equals (2/n) · dL̃/dw).
            let mut net = build();
            let before = net.layers[layer_idx].weights[weight_idx];
            let config = TrainConfig {
                learning_rate: 1.0,
                weight_decay: 0.0,
                adam: false,
            };
            net.train_step(&input, &target, &config);
            let analytic = before - net.layers[layer_idx].weights[weight_idx];
            let expected = numerical * target.len() as f32 / 2.0;

            assert!(
                (analytic - expected).abs() < 1e-3,
                "layer {layer_idx} weight {weight_idx}: analytic {analytic} vs expected {expected}"
            );
        }
    }

    #[test]
    fn learns_a_linear_function() {
        let mut net = Mlp::new(&[2, 8, 1], Activation::Relu, Activation::Identity, 5);
        let config = TrainConfig::default();
        let sample = |k: u32| {
            let x0 = (k % 17) as f32 / 17.0;
            let x1 = (k % 13) as f32 / 13.0;
            (vec![x0, x1], vec![0.6 * x0 - 0.3 * x1 + 0.1])
        };
        for epoch in 0..60 {
            for k in 0..200u32 {
                let (x, y) = sample(k * 31 + epoch);
                net.train_step(&x, &y, &config);
            }
        }
        let (inputs, targets): (Vec<_>, Vec<_>) = (0..100).map(sample).unzip();
        let mse = net.mse(&inputs, &targets);
        assert!(mse < 1e-3, "mse {mse}");
    }

    #[test]
    fn learns_xor_with_sgd_too() {
        let mut net = Mlp::new(&[2, 8, 1], Activation::Relu, Activation::Sigmoid, 11);
        let config = TrainConfig {
            learning_rate: 0.5,
            weight_decay: 0.0,
            adam: false,
        };
        let data = [
            ([0.0, 0.0], [0.0]),
            ([0.0, 1.0], [1.0]),
            ([1.0, 0.0], [1.0]),
            ([1.0, 1.0], [0.0]),
        ];
        for _ in 0..8_000 {
            for (x, y) in &data {
                net.train_step(x, y, &config);
            }
        }
        for (x, y) in &data {
            let out = net.forward(x)[0];
            assert!((out - y[0]).abs() < 0.35, "xor({x:?}) = {out}");
        }
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let build = |decay| {
            let mut net = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Identity, 2);
            let config = TrainConfig {
                learning_rate: 0.01,
                weight_decay: decay,
                adam: false,
            };
            for k in 0..2_000u32 {
                let x = vec![(k % 7) as f32 / 7.0, (k % 5) as f32 / 5.0];
                net.train_step(&x, &[0.5], &config);
            }
            net.layers
                .iter()
                .flat_map(|l| l.weights.iter())
                .map(|w| w * w)
                .sum::<f32>()
        };
        assert!(build(0.1) < build(0.0), "decay did not shrink weights");
    }

    #[test]
    #[should_panic]
    fn wrong_input_width_panics() {
        let mut net = Mlp::new(&[3, 2], Activation::Relu, Activation::Identity, 1);
        net.train_step(&[1.0], &[0.0, 0.0], &TrainConfig::default());
    }
}
