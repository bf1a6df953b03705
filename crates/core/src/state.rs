//! The versioned, serializable form of everything a Menos server
//! mutates while training: [`ServerState`].
//!
//! A running [`MenosServer`](crate::MenosServer) owns four kinds of
//! mutable state — per-client sessions (adapters, optimizer moments,
//! counters), their quarantine status and resume epochs, the cached
//! `ServerGradients` replies that back lost-reply replay, and the
//! forward-mode switch. `ServerState` is that state flattened into
//! plain data: each session as its own serialized container (see
//! `ServerSession::to_state`), each cached reply as its wire encoding,
//! everything else as scalars. What it deliberately does *not* carry:
//!
//! * the base model — that is re-derived from the seed (or re-bound
//!   from the deployment's store) on start, exactly as at first boot;
//! * Algorithm-2 reservations — those are a pure function of the live
//!   session set, and every restored session starts parked
//!   (quarantined), re-acquiring its reservation through the `Resume`
//!   admission path;
//! * in-flight autograd graphs — the v1.1 resume reconciliation makes
//!   clients redo unacknowledged steps, so only completed-step state
//!   needs to be durable.
//!
//! The byte form is a tagged section container
//! ([`menos_tensor::SectionWriter`]) closed by a CRC-32, so a
//! truncated or bit-flipped snapshot is rejected with a typed
//! [`CheckpointError`] — never a panic, never a partial restore.

use bytes::Bytes;
use menos_split::{ClientId, ForwardMode, ServerMessage, WireMessage};
use menos_tensor::{ByteReader, CheckpointError, Sealed, SectionReader, SectionWriter};

/// Frame-size cap when re-decoding a cached reply out of a snapshot;
/// snapshots are local trusted-path artifacts, but the decode is still
/// length-validated against this bound.
pub(crate) const SNAPSHOT_MAX_FRAME: usize = menos_net::DEFAULT_MAX_FRAME;

// Outer container tags.
const TAG_SERVER_META: u32 = 1;
const TAG_SESSION: u32 = 2;

// Per-session record tags (nested container).
const TAG_RECORD_META: u32 = 1;
const TAG_RECORD_SESSION: u32 = 2;
const TAG_RECORD_REPLY: u32 = 3;

/// One client's durable record inside a [`ServerState`]: identity,
/// resume epoch, liveness at snapshot time, the serialized session,
/// and the cached lost-reply replay (wire-encoded), if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRecord {
    /// The client this record belongs to.
    pub client: ClientId,
    /// Resume epoch fencing stale reconnects.
    pub epoch: u64,
    /// Whether the session was live (vs. quarantined) when captured.
    /// Restore parks every record either way — the connections died
    /// with the process — so this is diagnostic, not behavioural.
    pub live: bool,
    /// The `ServerSession::to_state` container.
    pub session: Sealed,
    /// The last `ServerGradients` reply, wire-encoded, kept so a
    /// resume that raced the reply can replay it after a restart.
    pub last_reply: Option<Vec<u8>>,
}

/// The full mutable state of a [`MenosServer`](crate::MenosServer),
/// versioned and serializable.
///
/// # Examples
///
/// ```
/// use menos_core::{MenosServer, ServerMode, ServerSpec};
/// use menos_models::ModelConfig;
///
/// let config = ModelConfig::tiny_llama(16);
/// let server = MenosServer::new(config, ServerSpec::v100(ServerMode::menos()), 7);
/// let state = server.to_state();
/// let restored = menos_core::ServerState::from_bytes(&state.to_bytes()).unwrap();
/// assert_eq!(restored, state);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerState {
    /// The server's base seed (session seeds derive from it).
    pub seed: u64,
    /// The forward-mode switch at snapshot time.
    pub mode: ForwardMode,
    /// Every session, live or quarantined, sorted by client id.
    pub sessions: Vec<SessionRecord>,
}

fn mode_to_byte(mode: ForwardMode) -> u8 {
    match mode {
        ForwardMode::Cached => 0,
        ForwardMode::NoGradReforward => 1,
    }
}

fn mode_from_byte(b: u8) -> Result<ForwardMode, CheckpointError> {
    match b {
        0 => Ok(ForwardMode::Cached),
        1 => Ok(ForwardMode::NoGradReforward),
        other => Err(CheckpointError::Corrupt(format!("forward mode {other}"))),
    }
}

impl ServerState {
    /// Serializes to the snapshot byte form: one tagged, versioned,
    /// CRC-closed container with a meta section and one nested
    /// container per session.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        meta.extend(self.seed.to_le_bytes());
        meta.push(mode_to_byte(self.mode));
        meta.extend((self.sessions.len() as u64).to_le_bytes());
        let records: Vec<Sealed> = self.sessions.iter().map(encode_record).collect();
        let mut w = SectionWriter::new();
        w.section(TAG_SERVER_META, meta);
        for record in &records {
            w.nested(TAG_SESSION, record);
        }
        w.finish().into_bytes()
    }

    /// Decodes snapshot bytes written by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on truncation, corruption (checksum or
    /// structural), or version mismatch — never panics on untrusted
    /// input. Validation here is purely structural; semantic checks
    /// (does each session rebuild against the model?) happen in
    /// `MenosServer::restore`, which commits nothing until every
    /// record has been validated.
    pub fn from_bytes(bytes: &[u8]) -> Result<ServerState, CheckpointError> {
        let r = SectionReader::parse(bytes)?;
        let mut meta = ByteReader::new(r.require(TAG_SERVER_META)?);
        let seed = meta.u64()?;
        let mode = mode_from_byte(meta.u8()?)?;
        let declared = meta.u64()?;
        meta.finish()?;
        let mut sessions = Vec::new();
        for (tag, body) in r.sections() {
            if tag != TAG_SESSION {
                continue;
            }
            sessions.push(decode_record(body)?);
        }
        if sessions.len() as u64 != declared {
            return Err(CheckpointError::Corrupt(format!(
                "{} session records, meta declares {declared}",
                sessions.len()
            )));
        }
        let mut seen = std::collections::HashSet::new();
        for rec in &sessions {
            if !seen.insert(rec.client) {
                return Err(CheckpointError::Corrupt(format!(
                    "duplicate session record for {}",
                    rec.client
                )));
            }
        }
        Ok(ServerState {
            seed,
            mode,
            sessions,
        })
    }
}

/// Serializes one session record into its nested container bytes —
/// the body of a `TAG_SESSION` section.
fn encode_record(rec: &SessionRecord) -> Sealed {
    let mut rec_meta = Vec::new();
    rec_meta.extend(rec.client.0.to_le_bytes());
    rec_meta.extend(rec.epoch.to_le_bytes());
    rec_meta.push(u8::from(rec.live));
    let mut inner = SectionWriter::new();
    inner.section(TAG_RECORD_META, rec_meta);
    inner.nested(TAG_RECORD_SESSION, &rec.session);
    if let Some(reply) = &rec.last_reply {
        inner.section(TAG_RECORD_REPLY, reply.clone());
    }
    inner.finish()
}

/// Decodes one nested session-record container.
fn decode_record(body: &[u8]) -> Result<SessionRecord, CheckpointError> {
    let inner = SectionReader::parse(body)?;
    let mut rec_meta = ByteReader::new(inner.require(TAG_RECORD_META)?);
    let client = ClientId(rec_meta.u64()?);
    let epoch = rec_meta.u64()?;
    let live = match rec_meta.u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(CheckpointError::Corrupt(format!("liveness byte {other}")));
        }
    };
    rec_meta.finish()?;
    let session = Sealed::parse(inner.require(TAG_RECORD_SESSION)?)?;
    let last_reply = inner.find(TAG_RECORD_REPLY).map(<[u8]>::to_vec);
    Ok(SessionRecord {
        client,
        epoch,
        live,
        session,
        last_reply,
    })
}

/// Serializes one [`SessionRecord`] plus its origin server's base seed
/// into a self-contained, CRC-sealed migration blob — the body of a
/// v1.4 `ImportSession` frame. The seed travels with the record so the
/// importing server can refuse state that was trained against a
/// different base model.
#[must_use]
pub fn encode_session_record(seed: u64, rec: &SessionRecord) -> Vec<u8> {
    let record = encode_record(rec);
    let mut w = SectionWriter::new();
    w.section(TAG_SERVER_META, seed.to_le_bytes().to_vec());
    w.nested(TAG_SESSION, &record);
    w.finish().into_bytes()
}

/// Decodes a migration blob written by [`encode_session_record`],
/// returning `(origin seed, record)`.
///
/// # Errors
///
/// [`CheckpointError`] on truncation, corruption, or version mismatch
/// — never panics on untrusted input. A full server snapshot fed here
/// by mistake is rejected too (its meta section is 17 bytes, not 8).
pub fn decode_session_record(bytes: &[u8]) -> Result<(u64, SessionRecord), CheckpointError> {
    let r = SectionReader::parse(bytes)?;
    let mut meta = ByteReader::new(r.require(TAG_SERVER_META)?);
    let seed = meta.u64()?;
    meta.finish()?;
    let rec = decode_record(r.require(TAG_SESSION)?)?;
    Ok((seed, rec))
}

/// Wire-encodes a cached reply for a [`SessionRecord`].
pub(crate) fn encode_reply(reply: &ServerMessage) -> Vec<u8> {
    reply.to_wire().to_vec()
}

/// Decodes a [`SessionRecord`]'s cached reply back to a message,
/// mapping wire errors into the checkpoint taxonomy.
pub(crate) fn decode_reply(bytes: &[u8]) -> Result<ServerMessage, CheckpointError> {
    let reply = ServerMessage::from_wire(&Bytes::from(bytes.to_vec()), SNAPSHOT_MAX_FRAME)
        .map_err(|e| CheckpointError::Corrupt(format!("cached reply: {e}")))?;
    if !matches!(reply, ServerMessage::ServerGradients { .. }) {
        return Err(CheckpointError::Corrupt(format!(
            "cached reply is {reply:?}, expected ServerGradients"
        )));
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-section container standing in for a session's state: the
    /// record only needs it to be a sealed container.
    fn session_state(bytes: Vec<u8>) -> Sealed {
        let mut w = SectionWriter::new();
        w.section(1, bytes);
        w.finish()
    }

    fn sample() -> ServerState {
        ServerState {
            seed: 21,
            mode: ForwardMode::NoGradReforward,
            sessions: vec![
                SessionRecord {
                    client: ClientId(3),
                    epoch: 2,
                    live: true,
                    session: session_state(vec![1, 2, 3, 4]),
                    last_reply: Some(vec![9, 9]),
                },
                SessionRecord {
                    client: ClientId(7),
                    epoch: 1,
                    live: false,
                    session: session_state(vec![5; 64]),
                    last_reply: None,
                },
            ],
        }
    }

    #[test]
    fn round_trips_including_empty() {
        let state = sample();
        assert_eq!(ServerState::from_bytes(&state.to_bytes()).unwrap(), state);
        let empty = ServerState {
            seed: 0,
            mode: ForwardMode::Cached,
            sessions: vec![],
        };
        assert_eq!(ServerState::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn rejects_truncation_and_bit_flips_everywhere() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(ServerState::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        for offset in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[offset] ^= 1 << (offset % 8);
            assert!(
                ServerState::from_bytes(&flipped).is_err(),
                "offset={offset}"
            );
        }
    }

    #[test]
    fn session_record_blob_round_trips_and_rejects_damage() {
        let state = sample();
        let rec = &state.sessions[0];
        let blob = encode_session_record(state.seed, rec);
        let (seed, decoded) = decode_session_record(&blob).unwrap();
        assert_eq!(seed, state.seed);
        assert_eq!(&decoded, rec);
        for cut in 0..blob.len() {
            assert!(decode_session_record(&blob[..cut]).is_err(), "cut={cut}");
        }
        for offset in 0..blob.len() {
            let mut flipped = blob.clone();
            flipped[offset] ^= 1 << (offset % 8);
            assert!(decode_session_record(&flipped).is_err(), "offset={offset}");
        }
        // The two container formats are mutually exclusive: a full
        // snapshot is not a migration blob and vice versa.
        assert!(decode_session_record(&state.to_bytes()).is_err());
        assert!(ServerState::from_bytes(&blob).is_err());
    }

    #[test]
    fn rejects_duplicate_records_and_count_mismatch() {
        let mut state = sample();
        state.sessions.push(state.sessions[0].clone());
        assert!(matches!(
            ServerState::from_bytes(&state.to_bytes()),
            Err(CheckpointError::Corrupt(msg)) if msg.contains("duplicate")
        ));
    }
}
