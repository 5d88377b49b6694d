//! Error types for wire decoding and pcap I/O.

use std::error::Error;
use std::fmt;
use std::io;

/// Errors produced while decoding wire-format frames or reading pcap
/// captures.
///
/// The display form is lowercase without trailing punctuation per Rust
/// API guidelines (C-GOOD-ERR).
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before a complete header or field could be read.
    Truncated {
        /// What was being decoded when the data ran out.
        context: &'static str,
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A field held a value that is not valid for the protocol.
    InvalidField {
        /// The name of the offending field.
        field: &'static str,
        /// The offending value.
        value: u32,
    },
    /// A pcap stream had the wrong magic number.
    BadPcapMagic(u32),
    /// Underlying I/O failure while reading or writing a capture.
    Io(io::Error),
}

impl WireError {
    /// Convenience constructor for [`WireError::Truncated`].
    pub fn truncated(context: &'static str, needed: usize, available: usize) -> Self {
        WireError::Truncated {
            context,
            needed,
            available,
        }
    }

    /// Convenience constructor for [`WireError::InvalidField`].
    pub fn invalid_field(field: &'static str, value: impl Into<u32>) -> Self {
        WireError::InvalidField {
            field,
            value: value.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated {context}: needed {needed} bytes, {available} available"
            ),
            WireError::InvalidField { field, value } => {
                write!(f, "invalid {field}: {value}")
            }
            WireError::BadPcapMagic(m) => write!(f, "bad pcap magic 0x{m:08x}"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl Error for WireError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms_are_lowercase_without_period() {
        let cases: Vec<WireError> = vec![
            WireError::truncated("ipv4 header", 20, 7),
            WireError::invalid_field("tcp data offset", 2u8),
            WireError::BadPcapMagic(0xdeadbeef),
        ];
        for e in cases {
            let s = e.to_string();
            assert!(!s.ends_with('.'), "{s:?} ends with period");
            assert!(
                s.chars().next().unwrap().is_lowercase(),
                "{s:?} not lowercase"
            );
        }
    }

    #[test]
    fn io_error_is_source() {
        let e = WireError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WireError>();
    }
}
