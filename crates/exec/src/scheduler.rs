//! The intra-cascade task scheduler.
//!
//! Section III-B of the paper describes how JIT interacts with the DSMS
//! operator scheduler: feedback must pre-empt regular processing, and a
//! producer serving a resumption gets priority over its consumer so the
//! consumer never idles waiting for the requested tuples.
//!
//! In this single-threaded reproduction a *cascade* (the complete processing
//! of one source arrival) is a queue of tasks. The scheduler realises the
//! paper's policies as three priority classes, processed strictly in order:
//!
//! 1. [`Priority::Control`] — feedback handling (pre-empts everything);
//! 2. [`Priority::Resumed`] — delivery of results produced in response to a
//!    resumption (producer-over-consumer priority);
//! 3. [`Priority::Normal`] — regular data processing, FIFO.

use crate::operator::{DataMessage, OperatorId, Port};
use jit_types::Feedback;
use std::collections::VecDeque;

/// Priority class of a scheduled task (lower value = more urgent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Priority {
    /// Feedback handling; pre-empts all data processing.
    Control,
    /// Delivery of resumed production.
    Resumed,
    /// Regular data delivery.
    Normal,
}

/// What a task asks an operator to do.
#[derive(Debug, Clone)]
pub(crate) enum TaskKind {
    /// Process a data message arriving on a port.
    Data {
        /// Destination input port.
        port: Port,
        /// The message to process.
        msg: DataMessage,
    },
    /// Handle a feedback message from a consumer.
    Feedback(Feedback),
}

/// A unit of work for one operator.
#[derive(Debug, Clone)]
pub(crate) struct Task {
    /// The operator that should perform the work.
    pub(crate) to: OperatorId,
    /// What to do.
    pub(crate) kind: TaskKind,
}

/// Three-class priority queue of tasks with byte accounting for the queued
/// data messages (the "inter-operator queues" of Section III-B).
#[derive(Debug, Default)]
pub(crate) struct Scheduler {
    control: VecDeque<Task>,
    resumed: VecDeque<Task>,
    normal: VecDeque<Task>,
    queued_bytes: usize,
    pushed_total: u64,
}

impl Scheduler {
    /// An empty scheduler.
    pub(crate) fn new() -> Self {
        Scheduler::default()
    }

    /// Enqueue a task at the given priority.
    pub(crate) fn push(&mut self, task: Task, priority: Priority) {
        self.pushed_total += 1;
        if let TaskKind::Data { msg, .. } = &task.kind {
            self.queued_bytes += msg.size_bytes();
        }
        match priority {
            Priority::Control => self.control.push_back(task),
            Priority::Resumed => self.resumed.push_back(task),
            Priority::Normal => self.normal.push_back(task),
        }
    }

    /// Dequeue the most urgent task, if any.
    pub(crate) fn pop(&mut self) -> Option<Task> {
        let task = self
            .control
            .pop_front()
            .or_else(|| self.resumed.pop_front())
            .or_else(|| self.normal.pop_front())?;
        if let TaskKind::Data { msg, .. } = &task.kind {
            self.queued_bytes -= msg.size_bytes();
        }
        Some(task)
    }

    /// Are there no pending tasks?
    pub(crate) fn is_empty(&self) -> bool {
        self.control.is_empty() && self.resumed.is_empty() && self.normal.is_empty()
    }

    /// Bytes held by queued data messages.
    pub(crate) fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Total tasks ever enqueued.
    #[cfg(test)]
    fn pushed_total(&self) -> u64 {
        self.pushed_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::{BaseTuple, SourceId, Timestamp, Tuple, Value};
    use std::sync::Arc;

    fn data_task(op: usize, seq: u64) -> Task {
        let tuple = Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(0),
            seq,
            Timestamp::from_millis(seq),
            vec![Value::int(1)],
        )));
        Task {
            to: OperatorId(op),
            kind: TaskKind::Data {
                port: 0,
                msg: DataMessage::new(tuple),
            },
        }
    }

    fn feedback_task(op: usize) -> Task {
        Task {
            to: OperatorId(op),
            kind: TaskKind::Feedback(Feedback::suspend(vec![])),
        }
    }

    #[test]
    fn priorities_are_strict() {
        let mut s = Scheduler::new();
        s.push(data_task(1, 1), Priority::Normal);
        s.push(data_task(2, 2), Priority::Resumed);
        s.push(feedback_task(3), Priority::Control);
        s.push(data_task(4, 3), Priority::Normal);

        let order: Vec<usize> = std::iter::from_fn(|| s.pop()).map(|t| t.to.0).collect();
        assert_eq!(order, vec![3, 2, 1, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn fifo_within_class() {
        let mut s = Scheduler::new();
        for i in 0..5 {
            s.push(data_task(i, i as u64), Priority::Normal);
        }
        let order: Vec<usize> = std::iter::from_fn(|| s.pop()).map(|t| t.to.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn byte_accounting_tracks_data_messages_only() {
        let mut s = Scheduler::new();
        assert_eq!(s.queued_bytes(), 0);
        s.push(feedback_task(0), Priority::Control);
        assert_eq!(s.queued_bytes(), 0);
        s.push(data_task(1, 1), Priority::Normal);
        assert!(s.queued_bytes() > 0);
        let before = s.queued_bytes();
        s.push(data_task(2, 2), Priority::Normal);
        assert!(s.queued_bytes() > before);
        while s.pop().is_some() {}
        assert_eq!(s.queued_bytes(), 0);
    }

    #[test]
    fn counters() {
        let mut s = Scheduler::new();
        assert!(s.is_empty());
        s.push(data_task(0, 1), Priority::Normal);
        s.push(data_task(0, 2), Priority::Resumed);
        assert_eq!(s.pushed_total(), 2);
        s.pop();
        assert_eq!(s.pushed_total(), 2);
        assert!(s.pop().is_some());
        assert!(s.is_empty());
    }

    #[test]
    fn pop_on_empty_returns_none() {
        let mut s = Scheduler::new();
        assert!(s.pop().is_none());
    }
}
