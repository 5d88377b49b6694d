//! Error type for training and identification.

use std::error::Error;
use std::fmt;

use sentinel_fingerprint::FingerprintError;
use sentinel_ml::MlError;

use crate::registry::RegistryMismatch;

/// Errors from the IoT Sentinel core pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// The training dataset cannot support the requested operation.
    BadDataset(String),
    /// An underlying classifier error.
    Ml(MlError),
    /// An underlying fingerprint/dataset error.
    Fingerprint(FingerprintError),
    /// A device type was referenced that the identifier does not know.
    UnknownType(String),
    /// A persisted identifier document could not be parsed.
    Persist {
        /// 1-based line number in the model document.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// Underlying I/O failure while reading or writing a model.
    Io(std::io::Error),
    /// An edit would have invalidated already-issued type ids.
    Registry(RegistryMismatch),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::BadDataset(msg) => write!(f, "bad dataset: {msg}"),
            CoreError::Ml(e) => write!(f, "classifier error: {e}"),
            CoreError::Fingerprint(e) => write!(f, "fingerprint error: {e}"),
            CoreError::UnknownType(t) => write!(f, "unknown device type {t:?}"),
            CoreError::Persist { line, message } => {
                write!(f, "model parse error at line {line}: {message}")
            }
            CoreError::Io(e) => write!(f, "model i/o error: {e}"),
            CoreError::Registry(e) => write!(f, "registry mismatch: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Ml(e) => Some(e),
            CoreError::Fingerprint(e) => Some(e),
            CoreError::Io(e) => Some(e),
            CoreError::Registry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e)
    }
}

impl From<MlError> for CoreError {
    fn from(e: MlError) -> Self {
        CoreError::Ml(e)
    }
}

impl From<RegistryMismatch> for CoreError {
    fn from(e: RegistryMismatch) -> Self {
        CoreError::Registry(e)
    }
}

impl From<FingerprintError> for CoreError {
    fn from(e: FingerprintError) -> Self {
        CoreError::Fingerprint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = CoreError::from(MlError::EmptyTrainingSet);
        assert!(e.to_string().contains("classifier error"));
        assert!(e.source().is_some());
        assert!(CoreError::UnknownType("X".into()).to_string().contains("X"));
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CoreError>();
    }
}
