//! Length-delimited framing for byte-stream transports.
//!
//! TCP delivers a byte stream; each [`Message`](crate::wire::Message) is
//! wrapped in a 4-byte big-endian length prefix so receivers can recover
//! message boundaries. The reactor's connections write the prefix
//! themselves; [`FrameAssembler`] is the one place it is parsed.

use swing_core::{Error, Result, SharedBytes};

/// Largest frame accepted (64 MiB), matching the wire format's chunk cap.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Incremental reassembly of length-prefixed frames from arbitrarily
/// split byte chunks.
///
/// Non-blocking reads deliver whatever the kernel has buffered — a
/// chunk may end mid-prefix, mid-payload, or carry several frames at
/// once. [`feed`](Self::feed) appends raw bytes;
/// [`next_frame`](Self::next_frame) yields each completed frame as a
/// [`SharedBytes`] ready for
/// [`Message::decode_shared`](crate::wire::Message::decode_shared).
/// The reactor's framed connections are built on this state machine,
/// so the torn-read path has exactly one implementation.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Raw bytes fed so far; `pos..` is the unconsumed suffix. Consumed
    /// prefixes are dropped lazily (on [`feed`](Self::feed)) so frame
    /// extraction never shifts the buffer.
    buf: Vec<u8>,
    pos: usize,
}

impl FrameAssembler {
    /// A fresh assembler with no buffered bytes.
    #[must_use]
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Append raw bytes read from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            // Everything consumed: restart at the front, keeping the
            // allocation (steady state for well-paced connections).
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 0 && self.pos >= self.buf.len() / 2 {
            // Compact once the dead prefix dominates, amortising the
            // copy to O(1) per byte fed.
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extract the next complete frame, if one is fully buffered.
    ///
    /// Returns `Ok(None)` while the buffer holds only a partial frame;
    /// call again after more [`feed`](Self::feed)s.
    /// [`Error::FrameTooLarge`] is sticky in practice: the connection
    /// must be dropped, since the byte stream cannot be resynchronised.
    pub fn next_frame(&mut self) -> Result<Option<SharedBytes>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME {
            return Err(Error::FrameTooLarge(len));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let frame = SharedBytes::copy_from_slice(&avail[4..4 + len]);
        self.pos += 4 + len;
        Ok(Some(frame))
    }

    /// Bytes currently buffered (partial frame plus any queued frames).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the stream ended cleanly: EOF with no partial frame
    /// buffered maps to [`Error::Closed`], EOF mid-frame is a
    /// truncation error.
    #[must_use]
    pub fn is_at_boundary(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Append `payload` behind its length prefix.
    fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(payload);
    }

    #[test]
    fn assembler_reassembles_byte_at_a_time() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello");
        write_frame(&mut buf, b"");
        write_frame(&mut buf, &[9u8; 1000]);
        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        for byte in &buf {
            asm.feed(std::slice::from_ref(byte));
            while let Some(f) = asm.next_frame().unwrap() {
                frames.push(f.as_slice().to_vec());
            }
        }
        assert_eq!(frames, vec![b"hello".to_vec(), vec![], vec![9u8; 1000]]);
        assert!(asm.is_at_boundary());
    }

    #[test]
    fn assembler_yields_multiple_frames_from_one_chunk() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"a");
        write_frame(&mut buf, b"bb");
        let mut asm = FrameAssembler::new();
        asm.feed(&buf);
        assert_eq!(asm.next_frame().unwrap().unwrap().as_slice(), b"a");
        assert_eq!(asm.next_frame().unwrap().unwrap().as_slice(), b"bb");
        assert!(asm.next_frame().unwrap().is_none());
    }

    #[test]
    fn assembler_holds_partial_frame_and_reports_not_at_boundary() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello");
        let mut asm = FrameAssembler::new();
        asm.feed(&buf[..buf.len() - 1]);
        assert!(asm.next_frame().unwrap().is_none());
        assert!(!asm.is_at_boundary());
        asm.feed(&buf[buf.len() - 1..]);
        assert_eq!(asm.next_frame().unwrap().unwrap().as_slice(), b"hello");
        assert!(asm.is_at_boundary());
    }

    #[test]
    fn assembler_rejects_oversized_prefix() {
        let mut asm = FrameAssembler::new();
        asm.feed(&u32::MAX.to_be_bytes());
        assert!(matches!(asm.next_frame(), Err(Error::FrameTooLarge(_))));
    }
}
