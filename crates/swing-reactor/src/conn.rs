//! Non-blocking framed connection state.
//!
//! A [`FramedConn`] owns one `O_NONBLOCK` socket plus the two state
//! machines a readiness loop needs around it, and tells the loop which
//! readiness to wait for ([`FramedConn::write_blocked`]: writability
//! matters only while a write is stalled on a full socket buffer):
//!
//! * **reads** — whatever bytes the kernel has are fed into the shared
//!   [`FrameAssembler`], which re-slices the torn byte stream back into
//!   frames for `Message::decode_shared`;
//! * **writes** — each outbound message is encoded once through the
//!   zero-copy `encode_segments` path into an [`OutFrame`] (scratch
//!   chunks copied, bulk payloads borrowed), then drained through the
//!   socket across as many short writes as it takes, resuming at the
//!   exact chunk/byte offset where the previous attempt hit `WouldBlock`.

use bytes::BytesMut;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use swing_core::{Result, SharedBytes};
use swing_net::frame::MAX_FRAME;
use swing_net::wire::WireSegment;
use swing_net::{FrameAssembler, Message};

/// One chunk of an outbound frame: either bytes owned by the frame
/// (length prefix + control fields, copied once at encode time) or a
/// bulk payload borrowed from the tuple's shared buffer (never copied).
#[derive(Debug)]
enum OutChunk {
    Owned(Vec<u8>),
    Shared(SharedBytes),
}

impl OutChunk {
    fn as_slice(&self) -> &[u8] {
        match self {
            OutChunk::Owned(v) => v,
            OutChunk::Shared(b) => b.as_slice(),
        }
    }
}

/// An encoded frame queued for writing, with a resume cursor for short
/// writes.
#[derive(Debug)]
pub struct OutFrame {
    chunks: Vec<OutChunk>,
    /// Index of the chunk currently being written.
    chunk: usize,
    /// Bytes of that chunk already written.
    offset: usize,
}

impl OutFrame {
    /// Encode `msg` for transmission. Small segments (length prefix,
    /// control fields) are gathered into one owned chunk; payloads that
    /// `encode_segments` emits as shared references stay zero-copy.
    ///
    /// `scratch`/`segments` are caller-owned scratch space reused
    /// across encodes (cleared here).
    pub fn encode(msg: &Message, scratch: &mut BytesMut, segments: &mut Vec<WireSegment>) -> Self {
        scratch.clear();
        segments.clear();
        msg.encode_segments(scratch, segments);
        let total: usize = segments.iter().map(WireSegment::len).sum();
        debug_assert!(total <= MAX_FRAME, "oversized frame reached the reactor");
        let mut chunks = Vec::with_capacity(1 + segments.len());
        let mut owned = Vec::with_capacity(4 + scratch.len());
        owned.extend_from_slice(&(total as u32).to_be_bytes());
        for seg in segments.iter() {
            match seg {
                WireSegment::Scratch(r) => owned.extend_from_slice(&scratch[r.clone()]),
                WireSegment::Shared(b) => {
                    if !owned.is_empty() {
                        chunks.push(OutChunk::Owned(std::mem::take(&mut owned)));
                    }
                    chunks.push(OutChunk::Shared(b.clone()));
                }
            }
        }
        if !owned.is_empty() {
            chunks.push(OutChunk::Owned(owned));
        }
        OutFrame {
            chunks,
            chunk: 0,
            offset: 0,
        }
    }

    /// Total bytes this frame puts on the wire (prefix included).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        self.chunks.iter().map(|c| c.as_slice().len()).sum()
    }

    fn is_done(&self) -> bool {
        self.chunk >= self.chunks.len()
    }
}

/// Outcome of one drain pass over a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drain {
    /// The socket stopped us (`WouldBlock`); state saved for resume.
    Blocked,
    /// Nothing left to do (queue empty / no more buffered bytes).
    Idle,
    /// The peer closed the connection (read side only).
    Eof,
}

/// A non-blocking socket with framed read/write state machines.
#[derive(Debug)]
pub struct FramedConn {
    stream: TcpStream,
    assembler: FrameAssembler,
    outq: VecDeque<OutFrame>,
    /// Wire bytes queued but not yet written (cheap gauge feed).
    queued_bytes: usize,
    /// The last write attempt stopped on `WouldBlock` with frames
    /// still queued.
    write_blocked: bool,
}

impl FramedConn {
    /// Take ownership of a connected socket, switching it to
    /// non-blocking mode with Nagle disabled.
    pub fn new(stream: TcpStream) -> Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(FramedConn {
            stream,
            assembler: FrameAssembler::new(),
            outq: VecDeque::new(),
            queued_bytes: 0,
            write_blocked: false,
        })
    }

    /// The socket's descriptor, for the readiness wait.
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Whether the socket refused the last write: the only time the
    /// readiness loop needs to hear that it became writable.
    #[must_use]
    pub fn write_blocked(&self) -> bool {
        self.write_blocked
    }

    /// The underlying socket (for peer-addr labels and shutdown).
    #[must_use]
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Frames queued for writing.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.outq.len()
    }

    /// Wire bytes queued for writing.
    #[must_use]
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Queue an encoded frame for writing.
    pub fn enqueue(&mut self, frame: OutFrame) {
        self.queued_bytes += frame.wire_len();
        self.outq.push_back(frame);
    }

    /// Write queued frames until the socket blocks or the queue drains.
    /// Returns the number of complete frames written plus the stop
    /// reason. IO errors other than `WouldBlock`/`Interrupted` are
    /// fatal for the connection.
    pub fn drain_write(&mut self) -> Result<(u64, Drain)> {
        let mut frames_done = 0u64;
        self.write_blocked = false;
        loop {
            let Some(front) = self.outq.front_mut() else {
                return Ok((frames_done, Drain::Idle));
            };
            while !front.is_done() {
                let slice = &front.chunks[front.chunk].as_slice()[front.offset..];
                if slice.is_empty() {
                    front.chunk += 1;
                    front.offset = 0;
                    continue;
                }
                match self.stream.write(slice) {
                    Ok(0) => {
                        return Err(swing_core::Error::io(std::io::Error::new(
                            ErrorKind::WriteZero,
                            "socket accepted zero bytes",
                        )))
                    }
                    Ok(n) => {
                        front.offset += n;
                        self.queued_bytes -= n;
                        if front.offset == front.chunks[front.chunk].as_slice().len() {
                            front.chunk += 1;
                            front.offset = 0;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        self.write_blocked = true;
                        return Ok((frames_done, Drain::Blocked));
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
            self.outq.pop_front();
            frames_done += 1;
        }
    }

    /// Read whatever the kernel has buffered, pushing every completed
    /// frame into `frames`. Returns the stop reason; `Eof` means the
    /// peer closed (clean only if the assembler sits at a frame
    /// boundary — the caller decides how to report it).
    pub fn drain_read(&mut self, buf: &mut [u8], frames: &mut Vec<SharedBytes>) -> Result<Drain> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Ok(Drain::Eof),
                Ok(n) => {
                    self.assembler.feed(&buf[..n]);
                    while let Some(frame) = self.assembler.next_frame()? {
                        frames.push(frame);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(Drain::Blocked),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Whether the read stream currently sits on a frame boundary
    /// (distinguishes clean EOF from truncation).
    #[must_use]
    pub fn at_frame_boundary(&self) -> bool {
        self.assembler.is_at_boundary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use swing_core::{SeqNo, Tuple, UnitId};

    fn pipe() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn encode(msg: &Message) -> OutFrame {
        let mut scratch = BytesMut::new();
        let mut segs = Vec::new();
        OutFrame::encode(msg, &mut scratch, &mut segs)
    }

    #[test]
    fn out_frame_concatenates_prefix_plus_encode() {
        let msg = Message::Data {
            dest: UnitId(1),
            from: UnitId(2),
            tuple: Tuple::with_seq(SeqNo(3)).with("frame", vec![7u8; 6_000]),
        };
        let frame = encode(&msg);
        let mut flat = Vec::new();
        for c in &frame.chunks {
            flat.extend_from_slice(c.as_slice());
        }
        let encoded = msg.encode();
        assert_eq!(&flat[..4], &(encoded.len() as u32).to_be_bytes());
        assert_eq!(&flat[4..], &encoded[..]);
        assert_eq!(frame.wire_len(), flat.len());
        // The 6 kB payload must ride as a borrowed shared chunk.
        assert!(frame
            .chunks
            .iter()
            .any(|c| matches!(c, OutChunk::Shared(_))));
    }

    #[test]
    fn frames_flow_through_nonblocking_pair() {
        let (a, b) = pipe();
        let mut tx = FramedConn::new(a).unwrap();
        let mut rx = FramedConn::new(b).unwrap();
        let msgs: Vec<Message> = (0..50u64)
            .map(|i| Message::Data {
                dest: UnitId(1),
                from: UnitId(0),
                tuple: Tuple::with_seq(SeqNo(i)).with("frame", vec![i as u8; 3_000]),
            })
            .collect();
        for m in &msgs {
            tx.enqueue(encode(m));
        }
        let mut buf = vec![0u8; 64 * 1024];
        let mut frames = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while frames.len() < msgs.len() {
            assert!(std::time::Instant::now() < deadline, "drain timed out");
            let _ = tx.drain_write().unwrap();
            let _ = rx.drain_read(&mut buf, &mut frames).unwrap();
        }
        assert_eq!(tx.queue_len(), 0);
        assert_eq!(tx.queued_bytes(), 0);
        let decoded: Vec<Message> = frames
            .iter()
            .map(|f| Message::decode_shared(f).unwrap())
            .collect();
        assert_eq!(decoded, msgs);
        assert!(rx.at_frame_boundary());
    }

    #[test]
    fn write_resumes_across_would_block() {
        let (a, b) = pipe();
        let mut tx = FramedConn::new(a).unwrap();
        let mut rx = FramedConn::new(b).unwrap();
        // A frame far larger than the socket buffers: the first drain
        // must hit WouldBlock with the cursor mid-frame.
        let msg = Message::Data {
            dest: UnitId(0),
            from: UnitId(0),
            tuple: Tuple::with_seq(SeqNo(0)).with("blob", vec![0xABu8; 4 * 1024 * 1024]),
        };
        tx.enqueue(encode(&msg));
        let (done, drain) = tx.drain_write().unwrap();
        assert_eq!(done, 0);
        assert_eq!(drain, Drain::Blocked);
        assert!(tx.write_blocked());
        assert!(tx.queued_bytes() < tx.outq.front().unwrap().wire_len() + 1);
        let mut buf = vec![0u8; 256 * 1024];
        let mut frames = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while frames.is_empty() {
            assert!(std::time::Instant::now() < deadline, "drain timed out");
            let _ = tx.drain_write().unwrap();
            let _ = rx.drain_read(&mut buf, &mut frames).unwrap();
        }
        assert_eq!(Message::decode_shared(&frames[0]).unwrap(), msg);
        assert!(!tx.write_blocked());
    }

    #[test]
    fn eof_mid_frame_is_not_a_boundary() {
        let (a, b) = pipe();
        let mut rx = FramedConn::new(b).unwrap();
        // Write a torn frame: prefix claims 100 bytes, send only 10.
        let mut raw = a;
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(&[0u8; 10]).unwrap();
        drop(raw);
        let mut buf = vec![0u8; 1024];
        let mut frames = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            assert!(std::time::Instant::now() < deadline, "never saw EOF");
            match rx.drain_read(&mut buf, &mut frames).unwrap() {
                Drain::Eof => break,
                _ => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        assert!(frames.is_empty());
        assert!(!rx.at_frame_boundary());
    }
}
