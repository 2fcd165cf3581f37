use std::fmt;

use ndtensor::TensorError;

/// Error type for network construction, training and serialization.
#[derive(Debug)]
pub enum NeuralError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A network- or layer-level invariant was violated.
    Invalid {
        /// Short name of the operation that failed.
        op: &'static str,
        /// Human-readable description of the violated invariant.
        reason: String,
    },
    /// A loaded layer parameter holds NaN or ±infinity.
    NonFiniteParam {
        /// Index of the layer in the network.
        layer: usize,
        /// Which parameter tensor: `"weight"` or `"bias"`.
        param: &'static str,
    },
    /// `backward` was called without a preceding `forward_train`.
    MissingCache {
        /// Name of the layer missing its forward cache.
        layer: &'static str,
    },
    /// Weight (de)serialization failed.
    Serde(String),
    /// File I/O failed while saving or loading a model.
    Io(std::io::Error),
}

impl NeuralError {
    /// Builds an [`NeuralError::Invalid`].
    pub fn invalid(op: &'static str, reason: impl Into<String>) -> Self {
        NeuralError::Invalid {
            op,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for NeuralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeuralError::Tensor(e) => write!(f, "tensor error: {e}"),
            NeuralError::Invalid { op, reason } => write!(f, "{op}: {reason}"),
            NeuralError::NonFiniteParam { layer, param } => {
                write!(f, "layer {layer}: {param} holds a non-finite value")
            }
            NeuralError::MissingCache { layer } => {
                write!(f, "{layer}: backward called without forward_train")
            }
            NeuralError::Serde(msg) => write!(f, "serialization error: {msg}"),
            NeuralError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for NeuralError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NeuralError::Tensor(e) => Some(e),
            NeuralError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NeuralError {
    fn from(e: TensorError) -> Self {
        NeuralError::Tensor(e)
    }
}

impl From<std::io::Error> for NeuralError {
    fn from(e: std::io::Error) -> Self {
        NeuralError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(NeuralError::invalid("fit", "empty dataset")
            .to_string()
            .contains("fit"));
        assert!(NeuralError::MissingCache { layer: "Dense" }
            .to_string()
            .contains("Dense"));
        assert!(NeuralError::NonFiniteParam {
            layer: 3,
            param: "bias"
        }
        .to_string()
        .contains("layer 3: bias"));
        assert!(NeuralError::Serde("bad json".into())
            .to_string()
            .contains("bad json"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NeuralError>();
    }
}
