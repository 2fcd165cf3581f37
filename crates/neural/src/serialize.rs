//! JSON (de)serialization of trained networks.
//!
//! A [`crate::Network`] round-trips through [`NetworkSpec`], a plain data
//! description (layer kinds + weights) that serde can handle. JSON keeps
//! saved models human-inspectable; weights are exact because `f32` values
//! survive the decimal round-trip performed by `serde_json`.

use std::path::Path;

use ndtensor::{Conv2dSpec, Tensor};
use serde::{Deserialize, Serialize};

use crate::layer::{
    Conv2d, Dense, Dropout, Flatten, Layer, LayerKind, MaxPool2d, ReLU, Sigmoid, Tanh,
};
use crate::{Network, NeuralError, Result};

/// A shape + flat data pair, the serialized form of a [`Tensor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorData {
    /// Dimension list, outermost first.
    pub shape: Vec<usize>,
    /// Row-major element data.
    pub data: Vec<f32>,
}

impl TensorData {
    fn from_tensor(t: &Tensor) -> Self {
        TensorData {
            shape: t.shape().dims().to_vec(), // sncheck:allow(hot-path-transitive-alloc): snapshot serialization owns its bytes by design; reached from scoring only when a recorder requests a weight snapshot
            data: t.as_slice().to_vec(), // sncheck:allow(hot-path-transitive-alloc): same — the serialized copy must outlive the tensor it snapshots
        }
    }

    fn into_tensor(self) -> Result<Tensor> {
        Ok(Tensor::from_vec(self.shape, self.data)?)
    }

    /// [`TensorData::into_tensor`] for a loaded layer parameter, which
    /// must be finite: a NaN or infinite weight would score every frame
    /// as garbage, and the dense layers' transposed-panel forward is
    /// bitwise-equal to the reference product only for finite weights.
    fn into_param(self, layer: usize, param: &'static str) -> Result<Tensor> {
        if self.data.iter().any(|v| !v.is_finite()) {
            return Err(NeuralError::NonFiniteParam { layer, param });
        }
        self.into_tensor()
    }
}

/// Serialized form of one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Fully-connected layer.
    Dense {
        /// Weight matrix `[out, in]`.
        weight: TensorData,
        /// Bias vector `[out]`.
        bias: TensorData,
    },
    /// 2-D convolution.
    Conv2d {
        /// Kernel bank `[F, C, KH, KW]`.
        weight: TensorData,
        /// Bias vector `[F]`.
        bias: TensorData,
        /// `(stride_h, stride_w)`.
        stride: (usize, usize),
        /// `(pad_h, pad_w)`.
        padding: (usize, usize),
    },
    /// Rectified linear activation.
    ReLU,
    /// Logistic sigmoid activation.
    Sigmoid,
    /// Hyperbolic tangent activation.
    Tanh,
    /// Batch-preserving flatten.
    Flatten,
    /// Non-overlapping max pooling.
    MaxPool2d {
        /// Pooling window.
        window: (usize, usize),
    },
    /// Inverted dropout.
    Dropout {
        /// Drop probability in thousandths (300 = 0.3).
        rate_milli: u32,
    },
}

/// Serialized form of a whole network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

/// Extracts a serializable spec from a network.
///
/// # Errors
///
/// Currently infallible for all built-in layers; returns an error if a
/// layer reports parameters inconsistent with its kind.
pub fn to_spec(network: &Network) -> Result<NetworkSpec> {
    let mut layers = Vec::with_capacity(network.layer_count()); // sncheck:allow(hot-path-transitive-alloc): spec construction is a serialization step, run when recording snapshots, not per frame
    for layer in network.layers() {
        let params = layer.params();
        let spec = match layer.kind() {
            LayerKind::Dense { .. } => {
                let [w, b] = two_params("Dense", &params)?;
                LayerSpec::Dense {
                    weight: TensorData::from_tensor(w),
                    bias: TensorData::from_tensor(b),
                }
            }
            LayerKind::Conv2d { spec, .. } => {
                let [w, b] = two_params("Conv2d", &params)?;
                LayerSpec::Conv2d {
                    weight: TensorData::from_tensor(w),
                    bias: TensorData::from_tensor(b),
                    stride: spec.stride,
                    padding: spec.padding,
                }
            }
            LayerKind::ReLU => LayerSpec::ReLU,
            LayerKind::Sigmoid => LayerSpec::Sigmoid,
            LayerKind::Tanh => LayerSpec::Tanh,
            LayerKind::Flatten => LayerSpec::Flatten,
            LayerKind::MaxPool2d { window } => LayerSpec::MaxPool2d { window },
            LayerKind::Dropout { rate_milli } => LayerSpec::Dropout { rate_milli },
        };
        layers.push(spec);
    }
    Ok(NetworkSpec { layers })
}

fn two_params<'a>(kind: &'static str, params: &[&'a Tensor]) -> Result<[&'a Tensor; 2]> {
    match params {
        [w, b] => Ok([w, b]),
        _ => Err(NeuralError::invalid(
            "to_spec",
            format!(
                "{kind} layer reported {} parameter tensors, expected 2",
                params.len()
            ),
        )),
    }
}

/// Reconstructs a network from its spec.
///
/// # Errors
///
/// Fails when any stored tensor is malformed (shape/data mismatch), a
/// weight or bias is non-finite ([`NeuralError::NonFiniteParam`]), or a
/// layer rejects its weights.
pub fn from_spec(spec: NetworkSpec) -> Result<Network> {
    let mut net = Network::new();
    for (i, layer) in spec.layers.into_iter().enumerate() {
        let boxed: Box<dyn Layer> = match layer {
            LayerSpec::Dense { weight, bias } => Box::new(Dense::from_parts(
                weight.into_param(i, "weight")?,
                bias.into_param(i, "bias")?,
            )?),
            LayerSpec::Conv2d {
                weight,
                bias,
                stride,
                padding,
            } => Box::new(Conv2d::from_parts(
                weight.into_param(i, "weight")?,
                bias.into_param(i, "bias")?,
                Conv2dSpec::new(stride, padding),
            )?),
            LayerSpec::ReLU => Box::new(ReLU::new()),
            LayerSpec::Sigmoid => Box::new(Sigmoid::new()),
            LayerSpec::Tanh => Box::new(Tanh::new()),
            LayerSpec::Flatten => Box::new(Flatten::new()),
            LayerSpec::MaxPool2d { window } => Box::new(MaxPool2d::new(window)?),
            // The training RNG stream is not part of the persisted state;
            // reloaded models are inference artifacts.
            LayerSpec::Dropout { rate_milli } => {
                Box::new(Dropout::new(rate_milli as f32 / 1000.0, 0)?)
            }
        };
        net = net.with_boxed(boxed);
    }
    Ok(net)
}

/// Deep-copies a network by round-tripping its spec. `Network` holds
/// boxed trait objects and is deliberately not `Clone`; this is the
/// supported way to duplicate one (e.g. to share a trained CNN across
/// several pipelines).
///
/// # Errors
///
/// Propagates spec-extraction errors.
pub fn clone_network(network: &Network) -> Result<Network> {
    from_spec(to_spec(network)?)
}

/// Serializes a network to a JSON string.
///
/// # Errors
///
/// Propagates spec-extraction and JSON errors.
pub fn to_json(network: &Network) -> Result<String> {
    let spec = to_spec(network)?;
    serde_json::to_string(&spec).map_err(|e| NeuralError::Serde(e.to_string()))
}

/// Deserializes a network from a JSON string.
///
/// # Errors
///
/// Fails on malformed JSON or invalid layer data.
pub fn from_json(json: &str) -> Result<Network> {
    let spec: NetworkSpec =
        serde_json::from_str(json).map_err(|e| NeuralError::Serde(e.to_string()))?;
    from_spec(spec)
}

/// Saves a network to a JSON file.
///
/// # Errors
///
/// Propagates serialization and I/O errors.
pub fn save_json(network: &Network, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, to_json(network)?)?;
    Ok(())
}

/// Loads a network from a JSON file.
///
/// # Errors
///
/// Propagates I/O and deserialization errors.
pub fn load_json(path: impl AsRef<Path>) -> Result<Network> {
    let json = std::fs::read_to_string(path)?;
    from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{autoencoder, pilotnet, PilotNetConfig};

    #[test]
    fn autoencoder_roundtrips_exactly() {
        let net = autoencoder(40, &[8, 4, 8], 3).unwrap();
        let x = Tensor::from_fn([2, 40], |i| ((i[0] * 40 + i[1]) % 13) as f32 / 12.0);
        let before = net.forward(&x).unwrap();
        let back = from_json(&to_json(&net).unwrap()).unwrap();
        let after = back.forward(&x).unwrap();
        assert_eq!(before, after);
        assert_eq!(back.layer_count(), net.layer_count());
    }

    #[test]
    fn pilotnet_roundtrips_exactly() {
        let cfg = PilotNetConfig {
            height: 40,
            width: 60,
            conv_channels: [2, 3, 4, 4, 4],
            dense_widths: vec![8],
        };
        let net = pilotnet(&cfg, 9).unwrap();
        let x = Tensor::from_fn([1, 1, 40, 60], |i| ((i[2] * 7 + i[3]) % 5) as f32 / 4.0);
        let before = net.forward(&x).unwrap();
        let back = from_json(&to_json(&net).unwrap()).unwrap();
        assert_eq!(back.forward(&x).unwrap(), before);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("saliency_novelty_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.json");
        let net = autoencoder(10, &[4], 1).unwrap();
        save_json(&net, &path).unwrap();
        let back = load_json(&path).unwrap();
        assert_eq!(back.param_count(), net.param_count());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{\"layers\": [{\"Dense\": {\"weight\": {\"shape\": [2, 2], \"data\": [1.0]}, \"bias\": {\"shape\": [2], \"data\": [0.0, 0.0]}}}]}").is_err());
    }

    #[test]
    fn non_finite_params_are_rejected() {
        let net = autoencoder(6, &[3], 0).unwrap();
        for (layer, param, bad) in [(0, "weight", f32::INFINITY), (2, "bias", f32::NAN)] {
            let mut spec = to_spec(&net).unwrap();
            let LayerSpec::Dense { weight, bias } = &mut spec.layers[layer] else {
                panic!("layer {layer} is dense");
            };
            let target = if param == "weight" { weight } else { bias };
            target.data[1] = bad;
            let err = from_spec(spec).unwrap_err();
            assert!(
                matches!(err, NeuralError::NonFiniteParam { layer: l, param: p } if l == layer && p == param),
                "{err}"
            );
        }
    }

    #[test]
    fn dropout_roundtrips_as_identity_at_inference() {
        let net = Network::new()
            .with(Dropout::new(0.25, 9).unwrap())
            .with(crate::layer::ReLU::new());
        let x = Tensor::from_fn([2, 5], |i| i[1] as f32 - 2.0);
        let back = from_json(&to_json(&net).unwrap()).unwrap();
        assert_eq!(back.forward(&x).unwrap(), net.forward(&x).unwrap());
        assert!(matches!(
            to_spec(&back).unwrap().layers[0],
            LayerSpec::Dropout { rate_milli: 250 }
        ));
    }

    #[test]
    fn spec_preserves_structure() {
        let net = autoencoder(6, &[3], 0).unwrap();
        let spec = to_spec(&net).unwrap();
        assert_eq!(spec.layers.len(), 4);
        assert!(matches!(spec.layers[0], LayerSpec::Dense { .. }));
        assert!(matches!(spec.layers[1], LayerSpec::ReLU));
        assert!(matches!(spec.layers[3], LayerSpec::Sigmoid));
    }
}
