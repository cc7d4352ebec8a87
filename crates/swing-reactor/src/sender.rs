//! [`MsgSender`]: the one sending handle every Swing link hands out.
//!
//! In-process, simulated and chaos links are a plain channel and a
//! `MsgSender` made [`From`] one is exactly that channel's sender. A
//! link dialed through a [`Reactor`](crate::Reactor) is a *bounded*
//! channel whose receiving end the reactor thread drains; that thread
//! sleeps in `epoll_wait`, so such a sender also pokes the reactor's
//! wake handle after every message it queues, and once more when its
//! last clone is dropped (the reactor then drains the queue and closes
//! the connection).

use crate::reactor::Waker;
use crossbeam::channel::{SendError, Sender, TrySendError};
use std::sync::Arc;
use swing_net::Message;

/// Sending half of a message link. Cloneable; `send` and `try_send`
/// behave as the underlying channel's do.
#[derive(Debug, Clone)]
pub struct MsgSender {
    // Declared before `link`: fields drop in order, so by the time the
    // last clone's `LinkWake` pokes the reactor the channel already
    // reads as disconnected.
    tx: Sender<Message>,
    link: Option<Arc<LinkWake>>,
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
    pub(crate) fn waking(tx: Sender<Message>, waker: Arc<Waker>) -> Self {
        MsgSender {
            tx,
            link: Some(Arc::new(LinkWake(waker))),
        }
    }

    /// Queue `msg`, blocking while a bounded link is full. Fails only
    /// when the receiving end is gone.
    pub fn send(&self, msg: Message) -> Result<(), SendError<Message>> {
        self.tx.send(msg)?;
        self.notify();
        Ok(())
    }

    /// Queue `msg` without blocking.
    pub fn try_send(&self, msg: Message) -> Result<(), TrySendError<Message>> {
        self.tx.try_send(msg)?;
        self.notify();
        Ok(())
    }

    #[inline]
    fn notify(&self) {
        if let Some(link) = &self.link {
            link.0.wake();
        }
    }
}

impl From<Sender<Message>> for MsgSender {
    /// A sender nobody needs waking for: `send` is the channel's own.
    fn from(tx: Sender<Message>) -> Self {
        MsgSender { tx, link: None }
    }
}
