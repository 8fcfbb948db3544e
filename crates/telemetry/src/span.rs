//! Scoped spans with inclusive/exclusive time accounting.
//!
//! A span covers a lexical scope: entering pushes a frame on a
//! thread-local stack, dropping the guard pops it and charges the
//! elapsed clock time to the full path (`parent;child`). Inclusive
//! time counts everything between enter and exit; exclusive time
//! subtracts the inclusive time of nested spans — exactly the
//! semantics of a collapsed-stack (flame graph) profile.
//!
//! Under the default sim clock, time only advances between simulation
//! events, so spans opened and closed within one event record zero
//! duration (their call counts remain meaningful). The host-cost
//! benchmark switches to the wall clock to measure real CPU time.

use std::cell::RefCell;
use std::marker::PhantomData;

use crate::{clock, recorder};

struct Frame {
    name: &'static str,
    start_us: u64,
    child_us: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`crate::span()`]; dropping it closes the span.
///
/// Not `Send`: a span must close on the thread that opened it.
#[must_use = "a span measures the scope holding its guard"]
pub struct SpanGuard {
    _not_send: PhantomData<*const ()>,
}

pub(crate) fn enter(name: &'static str) -> SpanGuard {
    let start_us = clock::now_micros();
    let _ = STACK.try_with(|stack| {
        stack.borrow_mut().push(Frame {
            name,
            start_us,
            child_us: 0,
        });
    });
    SpanGuard {
        _not_send: PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let now = clock::now_micros();
        let _ = STACK.try_with(|stack| {
            let mut stack = stack.borrow_mut();
            let Some(frame) = stack.pop() else {
                return;
            };
            let inclusive = now.saturating_sub(frame.start_us);
            let exclusive = inclusive.saturating_sub(frame.child_us);
            if let Some(parent) = stack.last_mut() {
                parent.child_us += inclusive;
            }
            let mut path: Vec<&'static str> = stack.iter().map(|f| f.name).collect();
            path.push(frame.name);
            drop(stack);
            recorder::with_local(|data| data.span(path, inclusive, exclusive));
        });
    }
}
