//! [`MsgSender`]: the one sending handle every Swing link hands out.
//!
//! In-process and chaos links are a plain unbounded `std::sync::mpsc`
//! channel and a `MsgSender` made [`From`] one is exactly that
//! channel's sender. A link dialed through a
//! [`Reactor`](crate::Reactor) is a *bounded* channel whose receiving
//! end the reactor thread drains; that thread sleeps in `epoll_wait`,
//! so such a sender also pokes the reactor's wake handle after every
//! message it queues, and once more when its last clone is dropped (the
//! reactor then drains the queue and closes the connection). A
//! simulated link tells its loop the same way, by ringing a bell
//! ([`MsgSender::rung`]).

use crate::reactor::Waker;
use std::sync::mpsc::{SendError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use swing_net::Message;

/// Sending half of a message link. Cloneable; `send` and `try_send`
/// behave as the underlying channel's do.
#[derive(Debug, Clone)]
pub struct MsgSender(Link);

/// std keeps the two kinds of sending half as two types, and sizes both
/// by the message: an unbounded channel allocates 31 slots at a time
/// from its first message on, a bounded one all of its slots when it is
/// made. At `Message`'s 104 bytes that is 3.5 kB a link, or 28 kB for a
/// 256-message outbox. A link that exists a thousand times over (every
/// reactor outbox, every simulated link) carries boxes instead:
/// 16 bytes a slot, one allocation a message.
#[derive(Debug, Clone)]
enum Link {
    Plain(Sender<Message>),
    Outbox {
        // Declared before `wake`: fields drop in order, so by the time
        // the last clone's `LinkWake` pokes the reactor the channel
        // already reads as disconnected.
        tx: SyncSender<Box<Message>>,
        wake: Arc<LinkWake>,
    },
    Rung {
        tx: Sender<Box<Message>>,
        bell: Sender<usize>,
        link: usize,
    },
}

/// Shared by every clone of one reactor-dialed sender; dropped with the
/// last of them.
#[derive(Debug)]
struct LinkWake(Arc<Waker>);

impl Drop for LinkWake {
    fn drop(&mut self) {
        self.0.wake();
    }
}

impl MsgSender {
    /// A sender whose receiving end `waker`'s reactor drains.
    pub(crate) fn waking(tx: SyncSender<Box<Message>>, waker: Arc<Waker>) -> Self {
        MsgSender(Link::Outbox {
            tx,
            wake: Arc::new(LinkWake(waker)),
        })
    }

    /// A sender for link number `link` of the many that one loop drains
    /// by polling (a simulated fabric's): every message queued on `tx`
    /// is followed by `link` on `bell`, which all of that loop's links
    /// share, so the loop asks only the links that rang. An empty
    /// `try_recv` is two cache lines and a fence, and a federation has
    /// twenty thousand links, nearly all idle at any one event.
    #[must_use]
    pub fn rung(tx: Sender<Box<Message>>, bell: Sender<usize>, link: usize) -> Self {
        MsgSender(Link::Rung { tx, bell, link })
    }

    /// Queue `msg`, blocking while a bounded link is full. Fails only
    /// when the receiving end is gone.
    pub fn send(&self, msg: Message) -> Result<(), SendError<Message>> {
        match &self.0 {
            Link::Plain(tx) => tx.send(msg),
            Link::Outbox { tx, wake } => {
                tx.send(Box::new(msg)).map_err(|e| SendError(*e.0))?;
                wake.0.wake();
                Ok(())
            }
            Link::Rung { tx, bell, link } => {
                tx.send(Box::new(msg)).map_err(|e| SendError(*e.0))?;
                // A loop that is gone took its links' receivers along.
                let _ = bell.send(*link);
                Ok(())
            }
        }
    }

    /// Queue `msg` without blocking: a full bounded link refuses it.
    pub fn try_send(&self, msg: Message) -> Result<(), TrySendError<Message>> {
        match &self.0 {
            Link::Outbox { tx, wake } => {
                tx.try_send(Box::new(msg)).map_err(|e| match e {
                    TrySendError::Full(msg) => TrySendError::Full(*msg),
                    TrySendError::Disconnected(msg) => TrySendError::Disconnected(*msg),
                })?;
                wake.0.wake();
                Ok(())
            }
            // Unbounded: never full.
            _ => self.send(msg).map_err(|e| TrySendError::Disconnected(e.0)),
        }
    }
}

impl From<Sender<Message>> for MsgSender {
    /// A sender nobody needs waking for: `send` is the channel's own.
    fn from(tx: Sender<Message>) -> Self {
        MsgSender(Link::Plain(tx))
    }
}
