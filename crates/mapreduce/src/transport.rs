//! Framed, integrity-checked byte transport between the cluster and its
//! worker processes.
//!
//! Every message crossing a backend boundary is one [`Frame`]: a kind
//! byte, a little-endian length prefix, the payload, and a trailing
//! FxHash checksum over the payload (the workspace-wide stable hash —
//! the same function the shuffle's extent frames use). The checksum is
//! what turns socket-level corruption into a *typed, retryable* event
//! instead of silently wrong bytes: a receiver that reads a frame whose
//! hash does not match reports [`Received::Corrupt`] and stays in sync
//! (the length prefix still bounded the read), so the scheduler can
//! charge the failure to the in-flight task and re-execute it.
//!
//! Two implementations of [`Transport`]:
//! - [`UdsTransport`] — a Unix-domain socket pair, the real inter-process
//!   path used by the multi-process backend (payloads are PR 6 binary
//!   extent images, so the wire reuses `relation::extent` end to end);
//! - [`MemTransport`] — an in-memory queue pair that routes bytes through
//!   the *same* encode/decode, used to test the protocol without forking.

use relation::hash::stable_hash;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Frame header: kind byte + u64 payload length. Payload follows, then a
/// u64 FxHash of the payload.
const HEADER_LEN: usize = 1 + 8;

/// Refuse frames claiming more than this many payload bytes — a corrupted
/// length prefix must not turn into an unbounded allocation.
const MAX_FRAME_BYTES: u64 = 1 << 34;

/// Initial payload buffer for a frame: larger payloads grow the buffer as
/// their bytes actually arrive, so a length prefix alone never reserves
/// more than this.
const INITIAL_PAYLOAD_CAPACITY: u64 = 64 << 10;

/// What a message is, on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Worker → cluster: "I am alive and ready" (sent once at startup).
    Hello,
    /// Worker → cluster: periodic liveness beacon.
    Heartbeat,
    /// Cluster → worker: a task descriptor (+ payload for reduce tasks).
    Task,
    /// Worker → cluster: mid-task progress marker (e.g. "shuffle phase
    /// verified") so retry accounting can charge failures to the right
    /// phase even when the worker dies before finishing.
    Progress,
    /// Worker → cluster: a task result (extent images or a typed error).
    TaskResult,
    /// Cluster → worker: exit cleanly.
    Shutdown,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Hello => 0,
            FrameKind::Heartbeat => 1,
            FrameKind::Task => 2,
            FrameKind::Progress => 3,
            FrameKind::TaskResult => 4,
            FrameKind::Shutdown => 5,
        }
    }

    fn from_byte(b: u8) -> io::Result<FrameKind> {
        Ok(match b {
            0 => FrameKind::Hello,
            1 => FrameKind::Heartbeat,
            2 => FrameKind::Task,
            3 => FrameKind::Progress,
            4 => FrameKind::TaskResult,
            5 => FrameKind::Shutdown,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown frame kind {other}"),
                ))
            }
        })
    }
}

/// One message: a kind and an opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What this message is.
    pub kind: FrameKind,
    /// Message body (task descriptors, extent images, error reports).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-less frame (heartbeats, shutdown).
    pub fn control(kind: FrameKind) -> Frame {
        Frame {
            kind,
            payload: Vec::new(),
        }
    }
}

/// Outcome of receiving one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Received {
    /// A verified frame.
    Frame(Frame),
    /// The frame's payload hash did not match: the bytes are damaged but
    /// the stream is still in sync (the length prefix bounded the read),
    /// so the connection stays usable. The receiver charges the damage to
    /// whatever the peer was sending and moves on.
    Corrupt,
}

/// A bidirectional, framed, integrity-checked message channel.
///
/// `send` takes `&self` so a worker's heartbeat thread and task loop can
/// share one transport; implementations serialize concurrent sends so
/// frames never interleave.
pub trait Transport: Send + Sync {
    /// Send one frame.
    fn send(&self, frame: &Frame) -> io::Result<()>;

    /// Send pre-encoded frame bytes verbatim. This is the chaos hook: the
    /// sender can flip a byte *after* [`encode_frame`] computed the
    /// checksum, producing exactly the wire corruption the receiver's
    /// verification must catch.
    fn send_raw(&self, bytes: &[u8]) -> io::Result<()>;

    /// Receive the next frame, blocking. `Ok(Received::Corrupt)` is a
    /// verification failure with the stream still in sync; `Err` is a
    /// dead or violated connection (EOF, I/O error, bad frame kind).
    fn recv(&self) -> io::Result<Received>;
}

/// Encode one frame to its wire bytes: `[kind u8][len u64][payload][hash u64]`.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + frame.payload.len() + 8);
    out.push(frame.kind.to_byte());
    out.extend_from_slice(&(frame.payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&frame.payload);
    out.extend_from_slice(&stable_hash(&frame.payload).to_le_bytes());
    out
}

/// The byte offset of the payload inside an encoded frame — where the
/// chaos byte-flip lands so it damages data, not the header.
pub fn payload_offset() -> usize {
    HEADER_LEN
}

/// Decode one frame from a reader (blocking until a full frame arrives).
fn read_frame(reader: &mut impl Read) -> io::Result<Received> {
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header)?;
    let kind = FrameKind::from_byte(header[0])?;
    let len = u64::from_le_bytes(header[1..9].try_into().expect("8 header bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame claims {len} payload bytes"),
        ));
    }
    let mut payload = Vec::with_capacity(len.min(INITIAL_PAYLOAD_CAPACITY) as usize);
    reader.take(len).read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "frame truncated: {} of {len} payload byte(s)",
                payload.len()
            ),
        ));
    }
    let mut hash = [0u8; 8];
    reader.read_exact(&mut hash)?;
    if u64::from_le_bytes(hash) != stable_hash(&payload) {
        return Ok(Received::Corrupt);
    }
    Ok(Received::Frame(Frame { kind, payload }))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Transport`] over one end of a Unix-domain socket pair.
#[cfg(unix)]
#[derive(Debug)]
pub struct UdsTransport {
    reader: Mutex<UnixStream>,
    writer: Mutex<UnixStream>,
}

#[cfg(unix)]
impl UdsTransport {
    /// Wrap one end of a socket pair.
    pub fn new(stream: UnixStream) -> io::Result<UdsTransport> {
        let writer = stream.try_clone()?;
        Ok(UdsTransport {
            reader: Mutex::new(stream),
            writer: Mutex::new(writer),
        })
    }
}

#[cfg(unix)]
impl Transport for UdsTransport {
    fn send(&self, frame: &Frame) -> io::Result<()> {
        self.send_raw(&encode_frame(frame))
    }

    fn send_raw(&self, bytes: &[u8]) -> io::Result<()> {
        let mut writer = lock(&self.writer);
        writer.write_all(bytes)?;
        writer.flush()
    }

    fn recv(&self) -> io::Result<Received> {
        let mut reader = lock(&self.reader);
        read_frame(&mut *reader)
    }
}

/// One direction of a [`MemTransport`]: a queue of encoded frames.
#[derive(Debug, Default)]
struct MemQueue {
    frames: Mutex<VecDeque<Vec<u8>>>,
    ready: Condvar,
}

impl MemQueue {
    fn push(&self, bytes: Vec<u8>) {
        lock(&self.frames).push_back(bytes);
        self.ready.notify_one();
    }

    fn pop(&self) -> Vec<u8> {
        let mut frames = lock(&self.frames);
        loop {
            if let Some(bytes) = frames.pop_front() {
                return bytes;
            }
            frames = self
                .ready
                .wait(frames)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// In-memory [`Transport`] pair for protocol tests: frames go through the
/// same encode/decode (and the same corruption detection) as the socket
/// path, without a process boundary.
#[derive(Debug)]
pub struct MemTransport {
    tx: Arc<MemQueue>,
    rx: Arc<MemQueue>,
}

impl MemTransport {
    /// A connected pair: what one end sends, the other receives.
    pub fn pair() -> (MemTransport, MemTransport) {
        let a = Arc::new(MemQueue::default());
        let b = Arc::new(MemQueue::default());
        (
            MemTransport {
                tx: Arc::clone(&a),
                rx: Arc::clone(&b),
            },
            MemTransport { tx: b, rx: a },
        )
    }
}

impl Transport for MemTransport {
    fn send(&self, frame: &Frame) -> io::Result<()> {
        self.send_raw(&encode_frame(frame))
    }

    fn send_raw(&self, bytes: &[u8]) -> io::Result<()> {
        self.tx.push(bytes.to_vec());
        Ok(())
    }

    fn recv(&self) -> io::Result<Received> {
        let bytes = self.rx.pop();
        read_frame(&mut &bytes[..])
    }
}

/// Little-endian payload builder for task descriptors and results.
#[derive(Debug, Default)]
pub(crate) struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    pub fn new() -> PayloadWriter {
        PayloadWriter::default()
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a received payload; every read is bounds-checked so a
/// malformed payload surfaces as an error, never a panic.
#[derive(Debug)]
pub(crate) struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "payload truncated: wanted {n} byte(s) at offset {} of {}",
                    self.pos,
                    self.buf.len()
                ),
            )),
        }
    }

    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Payload bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    pub fn str(&mut self) -> io::Result<&'a str> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad utf-8: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: FrameKind, payload: &[u8]) -> Frame {
        Frame {
            kind,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn frames_round_trip_through_both_transports() {
        let cases = [
            frame(FrameKind::Hello, b""),
            frame(FrameKind::Task, b"descriptor"),
            frame(FrameKind::TaskResult, &vec![7u8; 4096]),
            Frame::control(FrameKind::Shutdown),
        ];
        let (a, b) = MemTransport::pair();
        for f in &cases {
            a.send(f).unwrap();
            assert_eq!(b.recv().unwrap(), Received::Frame(f.clone()));
        }
        #[cfg(unix)]
        {
            let (x, y) = UnixStream::pair().unwrap();
            let (x, y) = (UdsTransport::new(x).unwrap(), UdsTransport::new(y).unwrap());
            for f in &cases {
                x.send(f).unwrap();
                assert_eq!(y.recv().unwrap(), Received::Frame(f.clone()));
                y.send(f).unwrap();
                assert_eq!(x.recv().unwrap(), Received::Frame(f.clone()));
            }
        }
    }

    #[test]
    fn corrupted_payload_is_detected_and_stream_stays_in_sync() {
        let (a, b) = MemTransport::pair();
        let f = frame(FrameKind::TaskResult, b"precious result bytes");
        let mut encoded = encode_frame(&f);
        let mid = payload_offset() + f.payload.len() / 2;
        encoded[mid] ^= 0xFF;
        a.send_raw(&encoded).unwrap();
        a.send(&f).unwrap();
        assert_eq!(b.recv().unwrap(), Received::Corrupt);
        // The next frame decodes cleanly: corruption did not desync.
        assert_eq!(b.recv().unwrap(), Received::Frame(f));
    }

    #[cfg(unix)]
    #[test]
    fn closed_socket_surfaces_as_error_not_corruption() {
        let (x, y) = UnixStream::pair().unwrap();
        let x = UdsTransport::new(x).unwrap();
        drop(y);
        assert!(x.recv().is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let f = frame(FrameKind::Task, b"x");
        let mut encoded = encode_frame(&f);
        encoded[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        let (a, b) = MemTransport::pair();
        a.send_raw(&encoded).unwrap();
        assert!(b.recv().is_err());
    }

    #[test]
    fn length_bomb_allocates_only_what_arrives() {
        // A header claiming 8 GiB (under the cap) followed by 10 bytes: the
        // read must fail on the short payload, not reserve 8 GiB first.
        let mut bytes = vec![FrameKind::TaskResult.to_byte()];
        bytes.extend_from_slice(&(1u64 << 33).to_le_bytes());
        bytes.extend_from_slice(&[7u8; 10]);
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn every_truncation_of_a_frame_is_an_error() {
        let f = frame(FrameKind::TaskResult, b"sealed extent image");
        let encoded = encode_frame(&f);
        for cut in 0..encoded.len() {
            assert!(read_frame(&mut &encoded[..cut]).is_err(), "cut at {cut}");
        }
        assert_eq!(read_frame(&mut &encoded[..]).unwrap(), Received::Frame(f));
    }

    #[test]
    fn payload_reader_round_trips_and_bounds_checks() {
        let mut w = PayloadWriter::new();
        w.u8(3).u64(99).str("stage/a").bytes(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 3);
        assert_eq!(r.u64().unwrap(), 99);
        assert_eq!(r.str().unwrap(), "stage/a");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert!(r.u8().is_err(), "reads past the end must error");
    }
}
