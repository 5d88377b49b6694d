//! The `sentinel-serve` wire format: versioned, length-prefixed binary
//! frames carrying fingerprint queries and identification responses.
//!
//! # Frame layout
//!
//! Every frame — in both directions — is
//!
//! ```text
//! +----------+---------+---------+-------------+===============+
//! | magic    | version | kind    | payload len | payload       |
//! | u32 "SNTL" | u8    | u8      | u32         | len bytes     |
//! +----------+---------+---------+-------------+===============+
//! ```
//!
//! with all multi-byte integers big-endian (network byte order). The
//! 10-byte header is fixed; the payload layout depends on `kind`:
//!
//! | kind | message | payload |
//! |---|---|---|
//! | `0x01` | [`QueryRequest`] | flags `u8` (bit 0: resolve names), count `u16`, then per fingerprint: column count `u16`, columns × 23 × `u32` |
//! | `0x02` | [`QueryResponse`] | service epoch `u64` (0 = unstamped), then count `u16`, then per item: tag `u8` (0 unknown / 1 known), type id `u32` (known only), isolation `u8` (0 strict / 1 restricted / 2 trusted), flags `u8` (bit 0: discrimination ran, bit 1: name follows), then name `u16` len + UTF-8 (flagged only) |
//! | `0x03` | `Ping` | empty |
//! | `0x04` | `Pong` | empty |
//! | `0x05` | [`ReloadRequest`] *(admin)* | the raw model document bytes (see `sentinel_core::persist`) |
//! | `0x06` | [`ReloadAck`] | epoch `u64`, type count `u32` |
//! | `0x07` | `Stats` | empty |
//! | `0x08` | `StatsResponse` | epoch `u64`, counter count `u16`, then per counter: id `u16`, value `u64`; stage count `u8`, then per stage: id `u8`, then count / sum / min / max / p50 / p90 / p99 / p999 as `u64` (durations in nanoseconds) |
//! | `0x7F` | [`ErrorFrame`] | code `u8`, message `u16` len + UTF-8 |
//!
//! # Version policy
//!
//! There is one protocol version, [`VERSION`] (3). A frame carrying
//! any other version byte is refused with a typed
//! [`WireError::UnsupportedVersion`] — a server answers it with an
//! [`ErrorCode::UnsupportedVersion`] error frame and closes the
//! connection. Payload layouts only ever change under a new version
//! byte, so a frame that decodes at all decodes unambiguously; the
//! stats snapshot is additionally forward-compatible (counters and
//! stages travel as `(id, value)` pairs, and a decoder keeps ids it
//! does not recognise).
//!
//! # Robustness
//!
//! Decoding never panics on hostile input: every read is
//! bounds-checked, counts are validated against the remaining payload,
//! enum bytes outside their domain and trailing garbage are rejected
//! with a typed [`WireError`]. The length prefix is capped by the
//! receiver's configured maximum frame size *before* any buffer is
//! sized from it.

use bytes::BufMut;
use sentinel_core::{IsolationClass, ServiceResponse, TypeId};
use sentinel_fingerprint::{Fingerprint, PacketFeatures, FEATURE_COUNT};
use sentinel_obs::{HistogramSummary, MetricsSnapshot};

use std::fmt;

/// Frame magic: `"SNTL"` as a big-endian `u32`.
pub const MAGIC: u32 = 0x534E_544C;

/// The protocol version — the only one encoded, decoded or answered.
pub const VERSION: u8 = 3;

/// Size of the fixed frame header (magic + version + kind + length).
pub const HEADER_LEN: usize = 10;

/// Default cap on a frame's payload length (1 MiB).
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 1 << 20;

/// Message-kind bytes.
pub mod kind {
    /// A batch fingerprint query.
    pub const QUERY_REQUEST: u8 = 0x01;
    /// The response to a batch query.
    pub const QUERY_RESPONSE: u8 = 0x02;
    /// Liveness probe.
    pub const PING: u8 = 0x03;
    /// Liveness answer.
    pub const PONG: u8 = 0x04;
    /// Model hot-reload request (admin-gated server side).
    pub const RELOAD: u8 = 0x05;
    /// Acknowledgement of a completed reload.
    pub const RELOAD_ACK: u8 = 0x06;
    /// Metrics-snapshot request.
    pub const STATS: u8 = 0x07;
    /// Metrics-snapshot response.
    pub const STATS_RESPONSE: u8 = 0x08;
    /// Protocol error report.
    pub const ERROR: u8 = 0x7F;
}

/// Why a frame failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The frame did not start with [`MAGIC`].
    BadMagic(u32),
    /// The version byte is not [`VERSION`].
    UnsupportedVersion(u8),
    /// The kind byte names no known message.
    UnsupportedKind(u8),
    /// The length prefix exceeds the receiver's configured cap.
    FrameTooLarge {
        /// Length the frame claimed.
        len: u32,
        /// The receiver's cap.
        max: u32,
    },
    /// The payload ended before the message did.
    Truncated,
    /// Bytes remained after the message was fully decoded.
    TrailingBytes(usize),
    /// A field carried a value outside its domain.
    BadValue {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: u32,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A count or length exceeds what the format can carry.
    TooLong {
        /// Which field.
        field: &'static str,
        /// Actual length.
        len: usize,
        /// Maximum encodable length.
        max: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(got) => write!(f, "bad frame magic {got:#010x}"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (expected {VERSION})")
            }
            WireError::UnsupportedKind(k) => write!(f, "unsupported message kind {k:#04x}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Truncated => f.write_str("payload truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadValue { field, value } => {
                write!(f, "field {field} carries out-of-domain value {value}")
            }
            WireError::BadUtf8 => f.write_str("string field is not valid UTF-8"),
            WireError::TooLong { field, len, max } => {
                write!(
                    f,
                    "field {field} of length {len} exceeds encodable maximum {max}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Error codes carried in [`ErrorFrame`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The frame or payload violated the format.
    Malformed,
    /// The version byte was not the server's version.
    UnsupportedVersion,
    /// The length prefix exceeded the receiver's cap.
    FrameTooLarge,
    /// The kind byte was unknown or not valid in this direction.
    UnsupportedKind,
    /// The query batch exceeded the server's configured maximum.
    BatchTooLarge,
    /// The peer failed internally while handling the request.
    Internal,
    /// An admin frame (reload) reached a server whose admin channel is
    /// disabled.
    AdminDisabled,
    /// A reload was refused: the model document did not parse, or its
    /// registry would invalidate already-issued type ids.
    ReloadRejected,
    /// The server shed the request instead of computing it — the
    /// in-flight work budget stayed full past the queue deadline, or
    /// an admin reload tripped the rate limit. Retryable: the request
    /// was never executed, so resending after a backoff is safe.
    Overloaded,
}

impl ErrorCode {
    /// The wire byte for this code.
    pub fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnsupportedVersion => 2,
            ErrorCode::FrameTooLarge => 3,
            ErrorCode::UnsupportedKind => 4,
            ErrorCode::BatchTooLarge => 5,
            ErrorCode::Internal => 6,
            ErrorCode::AdminDisabled => 7,
            ErrorCode::ReloadRejected => 8,
            ErrorCode::Overloaded => 9,
        }
    }

    /// Decodes a wire byte.
    pub fn from_u8(value: u8) -> Result<Self, WireError> {
        Ok(match value {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::FrameTooLarge,
            4 => ErrorCode::UnsupportedKind,
            5 => ErrorCode::BatchTooLarge,
            6 => ErrorCode::Internal,
            7 => ErrorCode::AdminDisabled,
            8 => ErrorCode::ReloadRejected,
            9 => ErrorCode::Overloaded,
            other => {
                return Err(WireError::BadValue {
                    field: "error code",
                    value: u32::from(other),
                })
            }
        })
    }

    /// Short stable label used in logs and `Display` output.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::UnsupportedKind => "unsupported-kind",
            ErrorCode::BatchTooLarge => "batch-too-large",
            ErrorCode::Internal => "internal",
            ErrorCode::AdminDisabled => "admin-disabled",
            ErrorCode::ReloadRejected => "reload-rejected",
            ErrorCode::Overloaded => "overloaded",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A batch fingerprint query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryRequest {
    /// Whether the server should attach resolved type names to known
    /// identifications.
    pub resolve_names: bool,
    /// The fingerprints to identify, answered in order.
    pub fingerprints: Vec<Fingerprint>,
}

/// One identification in a [`QueryResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseItem {
    /// The identification verdict, exactly as the in-process
    /// [`sentinel_core::IoTSecurityService::handle`] returns it.
    pub response: ServiceResponse,
    /// The resolved type name, when the request asked for names and
    /// the device was identified.
    pub name: Option<String>,
}

/// The ordered answers to a [`QueryRequest`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResponse {
    /// The [`sentinel_core::ServiceCell`] epoch the whole batch was
    /// answered under. Epochs start at 1, so `None` (an unstamped
    /// response) encodes as 0.
    pub epoch: Option<u64>,
    /// One item per queried fingerprint, in request order.
    pub items: Vec<ResponseItem>,
}

/// A protocol error reported by the peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// What went wrong.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// An admin request to hot-swap the server's model.
///
/// The payload is the raw bytes of a model document
/// (`sentinel_core::persist`); the server loads it into a fresh
/// service and publishes it as the next epoch, provided its
/// `TypeRegistry` extends the currently served one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReloadRequest {
    /// The model document bytes.
    pub model: Vec<u8>,
}

/// The server's answer to a successful [`ReloadRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadAck {
    /// The epoch the reloaded service was published under.
    pub epoch: u64,
    /// Device types the reloaded service knows.
    pub types: u32,
}

/// Any message the protocol can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A batch fingerprint query (client → server).
    QueryRequest(QueryRequest),
    /// The ordered answers (server → client).
    QueryResponse(QueryResponse),
    /// Liveness probe (client → server).
    Ping,
    /// Liveness answer (server → client).
    Pong,
    /// Model hot-reload request (admin client → server).
    Reload(ReloadRequest),
    /// Reload acknowledgement (server → admin client).
    ReloadAck(ReloadAck),
    /// Metrics-snapshot request (client → server). Read-only
    /// introspection, served whether or not the admin channel is
    /// enabled.
    Stats,
    /// The server's metrics snapshot (server → client).
    StatsResponse(MetricsSnapshot),
    /// Protocol error (server → client).
    Error(ErrorFrame),
}

impl Message {
    /// The kind byte this message travels under.
    pub fn kind(&self) -> u8 {
        match self {
            Message::QueryRequest(_) => kind::QUERY_REQUEST,
            Message::QueryResponse(_) => kind::QUERY_RESPONSE,
            Message::Ping => kind::PING,
            Message::Pong => kind::PONG,
            Message::Reload(_) => kind::RELOAD,
            Message::ReloadAck(_) => kind::RELOAD_ACK,
            Message::Stats => kind::STATS,
            Message::StatsResponse(_) => kind::STATS_RESPONSE,
            Message::Error(_) => kind::ERROR,
        }
    }
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The protocol version the frame arrived under (always
    /// [`VERSION`] once [`decode_header`] accepted it).
    pub version: u8,
    /// The message-kind byte (not yet validated against known kinds).
    pub kind: u8,
    /// Payload length in bytes.
    pub len: u32,
}

/// Validates the fixed 10-byte header: magic, version, and reads the
/// kind and payload length. The length is **not** checked against any
/// cap here — callers must compare it with their configured maximum
/// before allocating.
pub fn decode_header(header: &[u8; HEADER_LEN]) -> Result<FrameHeader, WireError> {
    let magic = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = header[4];
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let len = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
    Ok(FrameHeader {
        version,
        kind: header[5],
        len,
    })
}

/// Appends one full frame (header + payload) for `message` to `buf`.
///
/// Encoding is transactional: on any error `buf` is rolled back to its
/// original length, so callers batching several frames into one buffer
/// never ship a half-written frame.
///
/// # Errors
///
/// [`WireError::TooLong`] when a count or string exceeds its field
/// width (batch > 65535, fingerprint > 65535 columns, name or error
/// message > 65535 bytes, payload > `u32::MAX`).
pub fn encode_frame(message: &Message, buf: &mut Vec<u8>) -> Result<(), WireError> {
    write_frame(message.kind(), buf, |buf| match message {
        Message::QueryRequest(request) => {
            encode_query_request(request.resolve_names, &request.fingerprints, buf)
        }
        Message::QueryResponse(response) => encode_query_response(response, buf),
        Message::Ping | Message::Pong => Ok(()),
        Message::Reload(request) => {
            buf.put_slice(&request.model);
            Ok(())
        }
        Message::ReloadAck(ack) => {
            buf.put_u64(ack.epoch);
            buf.put_u32(ack.types);
            Ok(())
        }
        Message::Stats => Ok(()),
        Message::StatsResponse(snapshot) => encode_stats_snapshot(snapshot, buf),
        Message::Error(error) => encode_error(error, buf),
    })
}

/// Appends one full query-request frame built from a **borrowed**
/// fingerprint slice — the clone-free path for clients that already
/// hold the batch (an owned [`QueryRequest`] would copy every column).
/// Same framing and transactional rollback as [`encode_frame`].
///
/// # Errors
///
/// As for [`encode_frame`].
pub fn encode_query_request_frame(
    resolve_names: bool,
    fingerprints: &[Fingerprint],
    buf: &mut Vec<u8>,
) -> Result<(), WireError> {
    write_frame(kind::QUERY_REQUEST, buf, |buf| {
        encode_query_request(resolve_names, fingerprints, buf)
    })
}

/// The shared frame scaffolding: header, payload via `payload`, length
/// patching, and rollback of `buf` to its original length on any
/// failure.
fn write_frame(
    kind_byte: u8,
    buf: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let start = buf.len();
    buf.put_u32(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(kind_byte);
    buf.put_u32(0); // payload length, patched below
    let payload_start = buf.len();
    if let Err(error) = payload(buf) {
        buf.truncate(start);
        return Err(error);
    }
    let payload_len = buf.len() - payload_start;
    let Ok(payload_len) = u32::try_from(payload_len) else {
        buf.truncate(start);
        return Err(WireError::TooLong {
            field: "payload",
            len: payload_len,
            max: u32::MAX as usize,
        });
    };
    buf[start + 6..start + 10].copy_from_slice(&payload_len.to_be_bytes());
    Ok(())
}

/// Decodes the payload of a frame whose header announced `version`
/// and `kind`.
///
/// The payload must be exactly the message: trailing bytes are
/// rejected, every count is validated against the available bytes, and
/// no input can cause a panic. `version` is the header's version byte
/// and is checked here too, so a caller holding a hand-built
/// [`FrameHeader`] gets [`WireError::UnsupportedVersion`] rather than
/// a payload decoded under the wrong layout.
pub fn decode_payload_at(version: u8, kind_byte: u8, payload: &[u8]) -> Result<Message, WireError> {
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let mut reader = Reader::new(payload);
    let message = match kind_byte {
        kind::QUERY_REQUEST => Message::QueryRequest(decode_query_request(&mut reader)?),
        kind::QUERY_RESPONSE => Message::QueryResponse(decode_query_response(&mut reader)?),
        kind::PING => Message::Ping,
        kind::PONG => Message::Pong,
        kind::RELOAD => Message::Reload(ReloadRequest {
            model: reader.take(reader.remaining())?.to_vec(),
        }),
        kind::RELOAD_ACK => Message::ReloadAck(ReloadAck {
            epoch: reader.u64()?,
            types: reader.u32()?,
        }),
        kind::STATS => Message::Stats,
        kind::STATS_RESPONSE => Message::StatsResponse(decode_stats_snapshot(&mut reader)?),
        kind::ERROR => Message::Error(decode_error(&mut reader)?),
        other => return Err(WireError::UnsupportedKind(other)),
    };
    if reader.remaining() != 0 {
        return Err(WireError::TrailingBytes(reader.remaining()));
    }
    Ok(message)
}

/// Decodes one complete frame from the front of `bytes` under a
/// payload cap, returning the message and the bytes consumed.
/// Convenience for tests and in-memory transports; the socket paths
/// read header and payload separately.
pub fn decode_frame(bytes: &[u8], max_frame_bytes: u32) -> Result<(Message, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    let header = decode_header(&header)?;
    if header.len > max_frame_bytes {
        return Err(WireError::FrameTooLarge {
            len: header.len,
            max: max_frame_bytes,
        });
    }
    let len = header.len as usize;
    let Some(payload) = bytes[HEADER_LEN..].get(..len) else {
        return Err(WireError::Truncated);
    };
    Ok((
        decode_payload_at(header.version, header.kind, payload)?,
        HEADER_LEN + len,
    ))
}

// ----- request ------------------------------------------------------

const REQUEST_FLAG_RESOLVE_NAMES: u8 = 0b0000_0001;

fn encode_query_request(
    resolve_names: bool,
    fingerprints: &[Fingerprint],
    buf: &mut Vec<u8>,
) -> Result<(), WireError> {
    buf.put_u8(if resolve_names {
        REQUEST_FLAG_RESOLVE_NAMES
    } else {
        0
    });
    buf.put_u16(check_u16("fingerprint count", fingerprints.len())?);
    for fingerprint in fingerprints {
        buf.put_u16(check_u16("fingerprint columns", fingerprint.len())?);
        for column in fingerprint.columns() {
            for value in column.values() {
                buf.put_u32(*value);
            }
        }
    }
    Ok(())
}

fn decode_query_request(reader: &mut Reader<'_>) -> Result<QueryRequest, WireError> {
    let flags = reader.u8()?;
    if flags & !REQUEST_FLAG_RESOLVE_NAMES != 0 {
        return Err(WireError::BadValue {
            field: "request flags",
            value: u32::from(flags),
        });
    }
    let count = reader.u16()? as usize;
    // Each fingerprint needs at least its 2-byte column count, so a
    // hostile count can over-reserve by at most 2x the frame cap.
    let mut fingerprints = Vec::with_capacity(count.min(reader.remaining() / 2 + 1));
    for _ in 0..count {
        let columns = reader.u16()? as usize;
        let mut cols =
            Vec::with_capacity(columns.min(reader.remaining() / (FEATURE_COUNT * 4) + 1));
        for _ in 0..columns {
            let mut values = [0u32; FEATURE_COUNT];
            for value in values.iter_mut() {
                *value = reader.u32()?;
            }
            cols.push(PacketFeatures::from_raw(values));
        }
        // `from_columns` re-applies consecutive-duplicate discarding,
        // so a non-canonical (hostile) encoding still yields a valid
        // fingerprint rather than corrupt state.
        fingerprints.push(Fingerprint::from_columns(cols));
    }
    Ok(QueryRequest {
        resolve_names: flags & REQUEST_FLAG_RESOLVE_NAMES != 0,
        fingerprints,
    })
}

// ----- response -----------------------------------------------------

const ITEM_TAG_UNKNOWN: u8 = 0;
const ITEM_TAG_KNOWN: u8 = 1;
const ITEM_FLAG_DISCRIMINATED: u8 = 0b0000_0001;
const ITEM_FLAG_NAMED: u8 = 0b0000_0010;

fn isolation_to_u8(class: IsolationClass) -> u8 {
    match class {
        IsolationClass::Strict => 0,
        IsolationClass::Restricted => 1,
        IsolationClass::Trusted => 2,
    }
}

fn isolation_from_u8(value: u8) -> Result<IsolationClass, WireError> {
    Ok(match value {
        0 => IsolationClass::Strict,
        1 => IsolationClass::Restricted,
        2 => IsolationClass::Trusted,
        other => {
            return Err(WireError::BadValue {
                field: "isolation class",
                value: u32::from(other),
            })
        }
    })
}

fn encode_query_response(response: &QueryResponse, buf: &mut Vec<u8>) -> Result<(), WireError> {
    // Epochs start at 1, so 0 is a safe "unstamped" sentinel.
    buf.put_u64(response.epoch.unwrap_or(0));
    buf.put_u16(check_u16("response count", response.items.len())?);
    for item in &response.items {
        match item.response.device_type {
            Some(id) => {
                buf.put_u8(ITEM_TAG_KNOWN);
                buf.put_u32(u32::try_from(id.index()).map_err(|_| WireError::TooLong {
                    field: "type id",
                    len: id.index(),
                    max: u32::MAX as usize,
                })?);
            }
            None => buf.put_u8(ITEM_TAG_UNKNOWN),
        }
        buf.put_u8(isolation_to_u8(item.response.isolation));
        let mut flags = 0u8;
        if item.response.needed_discrimination {
            flags |= ITEM_FLAG_DISCRIMINATED;
        }
        if item.name.is_some() {
            flags |= ITEM_FLAG_NAMED;
        }
        buf.put_u8(flags);
        if let Some(name) = &item.name {
            buf.put_u16(check_u16("type name", name.len())?);
            buf.put_slice(name.as_bytes());
        }
    }
    Ok(())
}

fn decode_query_response(reader: &mut Reader<'_>) -> Result<QueryResponse, WireError> {
    let epoch = match reader.u64()? {
        0 => None,
        stamped => Some(stamped),
    };
    let count = reader.u16()? as usize;
    // Each item is at least 3 bytes (tag + isolation + flags).
    let mut items = Vec::with_capacity(count.min(reader.remaining() / 3 + 1));
    for _ in 0..count {
        let device_type = match reader.u8()? {
            ITEM_TAG_UNKNOWN => None,
            ITEM_TAG_KNOWN => Some(TypeId::from_index(reader.u32()? as usize)),
            other => {
                return Err(WireError::BadValue {
                    field: "item tag",
                    value: u32::from(other),
                })
            }
        };
        let isolation = isolation_from_u8(reader.u8()?)?;
        let flags = reader.u8()?;
        if flags & !(ITEM_FLAG_DISCRIMINATED | ITEM_FLAG_NAMED) != 0 {
            return Err(WireError::BadValue {
                field: "item flags",
                value: u32::from(flags),
            });
        }
        let name = if flags & ITEM_FLAG_NAMED != 0 {
            let len = reader.u16()? as usize;
            let raw = reader.take(len)?;
            Some(
                std::str::from_utf8(raw)
                    .map_err(|_| WireError::BadUtf8)?
                    .to_string(),
            )
        } else {
            None
        };
        items.push(ResponseItem {
            response: ServiceResponse {
                device_type,
                isolation,
                needed_discrimination: flags & ITEM_FLAG_DISCRIMINATED != 0,
            },
            name,
        });
    }
    Ok(QueryResponse { epoch, items })
}

// ----- stats --------------------------------------------------------

fn encode_stats_snapshot(snapshot: &MetricsSnapshot, buf: &mut Vec<u8>) -> Result<(), WireError> {
    buf.put_u64(snapshot.epoch);
    buf.put_u16(check_u16("counter count", snapshot.counters.len())?);
    for &(id, value) in &snapshot.counters {
        buf.put_u16(id);
        buf.put_u64(value);
    }
    let stages = u8::try_from(snapshot.stages.len()).map_err(|_| WireError::TooLong {
        field: "stage count",
        len: snapshot.stages.len(),
        max: u8::MAX as usize,
    })?;
    buf.put_u8(stages);
    for &(id, summary) in &snapshot.stages {
        buf.put_u8(id);
        for value in [
            summary.count,
            summary.sum_ns,
            summary.min_ns,
            summary.max_ns,
            summary.p50_ns,
            summary.p90_ns,
            summary.p99_ns,
            summary.p999_ns,
        ] {
            buf.put_u64(value);
        }
    }
    Ok(())
}

fn decode_stats_snapshot(reader: &mut Reader<'_>) -> Result<MetricsSnapshot, WireError> {
    let epoch = reader.u64()?;
    let count = reader.u16()? as usize;
    // Each counter entry is 10 bytes on the wire.
    let mut counters = Vec::with_capacity(count.min(reader.remaining() / 10 + 1));
    for _ in 0..count {
        let id = reader.u16()?;
        let value = reader.u64()?;
        counters.push((id, value));
    }
    let stage_count = reader.u8()? as usize;
    // Each stage entry is 65 bytes on the wire.
    let mut stages = Vec::with_capacity(stage_count.min(reader.remaining() / 65 + 1));
    for _ in 0..stage_count {
        let id = reader.u8()?;
        let summary = HistogramSummary {
            count: reader.u64()?,
            sum_ns: reader.u64()?,
            min_ns: reader.u64()?,
            max_ns: reader.u64()?,
            p50_ns: reader.u64()?,
            p90_ns: reader.u64()?,
            p99_ns: reader.u64()?,
            p999_ns: reader.u64()?,
        };
        stages.push((id, summary));
    }
    Ok(MetricsSnapshot {
        epoch,
        counters,
        stages,
    })
}

// ----- error --------------------------------------------------------

fn encode_error(error: &ErrorFrame, buf: &mut Vec<u8>) -> Result<(), WireError> {
    buf.put_u8(error.code.to_u8());
    buf.put_u16(check_u16("error message", error.message.len())?);
    buf.put_slice(error.message.as_bytes());
    Ok(())
}

fn decode_error(reader: &mut Reader<'_>) -> Result<ErrorFrame, WireError> {
    let code = ErrorCode::from_u8(reader.u8()?)?;
    let len = reader.u16()? as usize;
    let raw = reader.take(len)?;
    Ok(ErrorFrame {
        code,
        message: std::str::from_utf8(raw)
            .map_err(|_| WireError::BadUtf8)?
            .to_string(),
    })
}

// ----- primitives ---------------------------------------------------

fn check_u16(field: &'static str, len: usize) -> Result<u16, WireError> {
    u16::try_from(len).map_err(|_| WireError::TooLong {
        field,
        len,
        max: u16::MAX as usize,
    })
}

/// Bounds-checked big-endian payload reader; every failure is
/// [`WireError::Truncated`], never a panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let slice = self
            .buf
            .get(self.pos..self.pos.checked_add(n).ok_or(WireError::Truncated)?)
            .ok_or(WireError::Truncated)?;
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(tags: &[u32]) -> Fingerprint {
        Fingerprint::from_columns(
            tags.iter()
                .map(|t| {
                    let mut v = [0u32; FEATURE_COUNT];
                    v[18] = *t;
                    PacketFeatures::from_raw(v)
                })
                .collect(),
        )
    }

    fn roundtrip(message: &Message) -> Message {
        let mut buf = Vec::new();
        encode_frame(message, &mut buf).expect("encode");
        let (decoded, consumed) = decode_frame(&buf, DEFAULT_MAX_FRAME_BYTES).expect("decode");
        assert_eq!(consumed, buf.len(), "frame must consume exactly");
        decoded
    }

    #[test]
    fn ping_pong_roundtrip() {
        assert_eq!(roundtrip(&Message::Ping), Message::Ping);
        assert_eq!(roundtrip(&Message::Pong), Message::Pong);
    }

    #[test]
    fn request_roundtrip_preserves_fingerprints() {
        let request = Message::QueryRequest(QueryRequest {
            resolve_names: true,
            fingerprints: vec![fp(&[1, 2, 3]), fp(&[]), fp(&[900, 901])],
        });
        assert_eq!(roundtrip(&request), request);
    }

    #[test]
    fn response_roundtrip_preserves_items() {
        let response = Message::QueryResponse(QueryResponse {
            epoch: Some(41),
            items: vec![
                ResponseItem {
                    response: ServiceResponse {
                        device_type: Some(TypeId::from_index(7)),
                        isolation: IsolationClass::Restricted,
                        needed_discrimination: true,
                    },
                    name: Some("EdnetCam".to_string()),
                },
                ResponseItem {
                    response: ServiceResponse {
                        device_type: None,
                        isolation: IsolationClass::Strict,
                        needed_discrimination: false,
                    },
                    name: None,
                },
            ],
        });
        assert_eq!(roundtrip(&response), response);
    }

    #[test]
    fn epoch_stamp_survives_a_v3_roundtrip() {
        let response = Message::QueryResponse(QueryResponse {
            epoch: Some(u64::MAX - 9),
            items: Vec::new(),
        });
        assert_eq!(roundtrip(&response), response);
        // An unstamped response stays unstamped (0 on the wire).
        let unstamped = Message::QueryResponse(QueryResponse::default());
        assert_eq!(roundtrip(&unstamped), unstamped);
    }

    #[test]
    fn reload_frames_roundtrip() {
        let reload = Message::Reload(ReloadRequest {
            model: b"iot-sentinel-model v2\n...".to_vec(),
        });
        assert_eq!(roundtrip(&reload), reload);
        // An empty document is a valid (if doomed) payload.
        let empty = Message::Reload(ReloadRequest::default());
        assert_eq!(roundtrip(&empty), empty);
        let ack = Message::ReloadAck(ReloadAck {
            epoch: u64::MAX - 3,
            types: 28,
        });
        assert_eq!(roundtrip(&ack), ack);
    }

    #[test]
    fn older_versions_are_refused() {
        let request = Message::QueryRequest(QueryRequest {
            resolve_names: true,
            fingerprints: vec![fp(&[1, 2, 3])],
        });
        let mut buf = Vec::new();
        encode_frame(&request, &mut buf).unwrap();
        assert_eq!(buf[4], VERSION);
        let payload = buf[HEADER_LEN..].to_vec();
        for version in [1, 2, VERSION + 1] {
            buf[4] = version;
            let refused = Some(WireError::UnsupportedVersion(version));
            let mut header = [0u8; HEADER_LEN];
            header.copy_from_slice(&buf[..HEADER_LEN]);
            assert_eq!(decode_header(&header).err(), refused);
            assert_eq!(decode_frame(&buf, DEFAULT_MAX_FRAME_BYTES).err(), refused);
            // A hand-built header cannot smuggle the payload past the
            // decoder either.
            assert_eq!(
                decode_payload_at(version, kind::QUERY_REQUEST, &payload).err(),
                refused
            );
        }
        assert_eq!(
            decode_payload_at(VERSION, kind::QUERY_REQUEST, &payload),
            Ok(request)
        );
    }

    fn sample_snapshot() -> MetricsSnapshot {
        use sentinel_obs::{Counter, MetricsRegistry, Stage};
        let registry = MetricsRegistry::new(2);
        registry.add(Counter::QueryFrames, 3);
        registry.add(Counter::QueriesAnswered, 5);
        registry.record(0, Stage::Decode, 1_200);
        registry.record(1, Stage::Scan, 88_000);
        registry.record(0, Stage::Frame, 95_000);
        let mut snapshot = registry.snapshot();
        snapshot.epoch = 2;
        snapshot.set_counter(Counter::Reloads, 1);
        snapshot
    }

    #[test]
    fn stats_roundtrip_preserves_snapshot() {
        assert_eq!(roundtrip(&Message::Stats), Message::Stats);
        let response = Message::StatsResponse(sample_snapshot());
        assert_eq!(roundtrip(&response), response);
    }

    #[test]
    fn stats_snapshot_keeps_unknown_ids() {
        // Forward compatibility: a poller must keep counter/stage ids
        // it does not recognise instead of dropping or rejecting them.
        let mut snapshot = sample_snapshot();
        snapshot.counters.push((4_097, 99));
        snapshot.stages.push((200, Default::default()));
        let response = Message::StatsResponse(snapshot.clone());
        assert_eq!(roundtrip(&response), response);
    }

    #[test]
    fn truncated_stats_response_is_rejected() {
        let mut buf = Vec::new();
        encode_frame(&Message::StatsResponse(sample_snapshot()), &mut buf).unwrap();
        buf.pop();
        let len = (buf.len() - HEADER_LEN) as u32;
        buf[6..10].copy_from_slice(&len.to_be_bytes());
        assert_eq!(
            decode_frame(&buf, DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn truncated_reload_ack_is_rejected() {
        let mut buf = Vec::new();
        encode_frame(
            &Message::ReloadAck(ReloadAck { epoch: 7, types: 3 }),
            &mut buf,
        )
        .unwrap();
        // Shorten the payload by one byte (and fix the length prefix).
        buf.pop();
        let len = (buf.len() - HEADER_LEN) as u32;
        buf[6..10].copy_from_slice(&len.to_be_bytes());
        assert_eq!(
            decode_frame(&buf, DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn error_roundtrip() {
        let error = Message::Error(ErrorFrame {
            code: ErrorCode::BatchTooLarge,
            message: "batch of 9000 exceeds 4096".to_string(),
        });
        assert_eq!(roundtrip(&error), error);
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let mut buf = Vec::new();
        encode_frame(&Message::Ping, &mut buf).unwrap();
        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&bad_magic, DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::BadMagic(_))
        ));
        for version in [1, 2, VERSION + 1] {
            let mut bad_version = buf.clone();
            bad_version[4] = version;
            assert_eq!(
                decode_frame(&bad_version, DEFAULT_MAX_FRAME_BYTES),
                Err(WireError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        encode_frame(&Message::Ping, &mut buf).unwrap();
        buf[6..10].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            decode_frame(&buf, 1024),
            Err(WireError::FrameTooLarge {
                len: u32::MAX,
                max: 1024
            })
        );
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut buf = Vec::new();
        encode_frame(&Message::Ping, &mut buf).unwrap();
        buf[5] = 0x66;
        assert_eq!(
            decode_frame(&buf, DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::UnsupportedKind(0x66))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // A Ping with a one-byte payload: kind decodes, byte remains.
        let mut buf = Vec::new();
        encode_frame(&Message::Ping, &mut buf).unwrap();
        buf.push(0xAA);
        buf[6..10].copy_from_slice(&1u32.to_be_bytes());
        assert_eq!(
            decode_frame(&buf, DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::TrailingBytes(1))
        );
    }

    #[test]
    fn truncated_frames_error_cleanly_at_every_length() {
        let request = Message::QueryRequest(QueryRequest {
            resolve_names: false,
            fingerprints: vec![fp(&[1, 2, 3]), fp(&[4])],
        });
        let mut buf = Vec::new();
        encode_frame(&request, &mut buf).unwrap();
        for cut in 0..buf.len() {
            let err = decode_frame(&buf[..cut], DEFAULT_MAX_FRAME_BYTES)
                .expect_err("strict prefix must not decode");
            // Any prefix is either missing bytes or (when the length
            // prefix itself was cut) carries an inconsistent header —
            // but never panics and never yields a message.
            let _ = err.to_string();
        }
    }

    #[test]
    fn hostile_counts_do_not_over_allocate() {
        // A request claiming 65535 fingerprints in a 10-byte payload
        // must fail with Truncated, not allocate 65535 slots.
        let mut buf = Vec::new();
        buf.put_u8(0); // flags
        buf.put_u16(u16::MAX); // fingerprint count
        buf.put_u16(3); // columns of "first" fingerprint
        assert_eq!(
            decode_payload_at(VERSION, kind::QUERY_REQUEST, &buf),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn out_of_domain_enums_are_rejected() {
        // Isolation byte 9 in a one-item response.
        let mut buf = Vec::new();
        buf.put_u64(0); // epoch stamp (unstamped)
        buf.put_u16(1);
        buf.put_u8(ITEM_TAG_UNKNOWN);
        buf.put_u8(9); // isolation
        buf.put_u8(0); // flags
        assert_eq!(
            decode_payload_at(VERSION, kind::QUERY_RESPONSE, &buf),
            Err(WireError::BadValue {
                field: "isolation class",
                value: 9
            })
        );
        // Unknown request flag bits.
        let mut buf = Vec::new();
        buf.put_u8(0b1000_0000);
        buf.put_u16(0);
        assert!(matches!(
            decode_payload_at(VERSION, kind::QUERY_REQUEST, &buf),
            Err(WireError::BadValue {
                field: "request flags",
                ..
            })
        ));
    }

    #[test]
    fn bad_utf8_name_is_rejected() {
        let mut buf = Vec::new();
        buf.put_u64(0); // epoch stamp (unstamped)
        buf.put_u16(1);
        buf.put_u8(ITEM_TAG_KNOWN);
        buf.put_u32(3);
        buf.put_u8(2); // trusted
        buf.put_u8(ITEM_FLAG_NAMED);
        buf.put_u16(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert_eq!(
            decode_payload_at(VERSION, kind::QUERY_RESPONSE, &buf),
            Err(WireError::BadUtf8)
        );
    }

    #[test]
    fn batch_too_large_to_encode_errors_and_rolls_back() {
        let request = QueryRequest {
            resolve_names: false,
            fingerprints: vec![Fingerprint::default(); u16::MAX as usize + 1],
        };
        // A frame already in the buffer must survive the failed append
        // byte-for-byte (transactional encode).
        let mut buf = Vec::new();
        encode_frame(&Message::Ping, &mut buf).unwrap();
        let before = buf.clone();
        assert!(matches!(
            encode_frame(&Message::QueryRequest(request), &mut buf),
            Err(WireError::TooLong {
                field: "fingerprint count",
                ..
            })
        ));
        assert_eq!(buf, before, "failed encode must not leave partial bytes");

        // Same for a payload-level failure (oversized error message).
        let long_error = Message::Error(ErrorFrame {
            code: ErrorCode::Internal,
            message: "x".repeat(u16::MAX as usize + 1),
        });
        assert!(encode_frame(&long_error, &mut buf).is_err());
        assert_eq!(buf, before);
    }

    #[test]
    fn non_canonical_request_columns_are_deduplicated() {
        // A hostile client may encode consecutive duplicate columns;
        // decoding must yield the canonical (deduplicated) form, the
        // same invariant Fingerprint::from_columns enforces in-process.
        let mut buf = Vec::new();
        buf.put_u8(0);
        buf.put_u16(1);
        buf.put_u16(2);
        for _ in 0..2 {
            for i in 0..FEATURE_COUNT as u32 {
                buf.put_u32(i);
            }
        }
        let Ok(Message::QueryRequest(request)) =
            decode_payload_at(VERSION, kind::QUERY_REQUEST, &buf)
        else {
            panic!("request must decode");
        };
        assert_eq!(request.fingerprints[0].len(), 1);
    }
}
