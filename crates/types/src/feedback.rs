//! Consumer → producer feedback messages.
//!
//! Section III-A introduces two feedback kinds — *suspension*
//! (`<suspend, Π>`) and *resumption* (`<resume, Π>`) — where `Π` is a set of
//! minimal non-demanded sub-tuples (MNSs). These are the only two kinds.
//! Section IV-B's *mark-result* / *unmark-result* pair, which handles a
//! Type II MNS (one spanning both inputs of the producer), is not
//! implemented: such an MNS is ignored, which is always legal.
//!
//! This module defines only the message shape; detection of MNSs and the
//! producer's dynamic production control live in `jit-core`.

use crate::tuple::Tuple;
use std::fmt;

/// The command carried by a feedback message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeedbackCommand {
    /// Stop producing results that are super-tuples of the given MNSs.
    Suspend,
    /// Resume production for the given MNSs and return the suppressed
    /// super-tuples to the consumer.
    Resume,
}

impl fmt::Display for FeedbackCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FeedbackCommand::Suspend => "suspend",
            FeedbackCommand::Resume => "resume",
        };
        write!(f, "{s}")
    }
}

/// A feedback message `<command, Π>` sent from a consumer operator to one of
/// its producers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feedback {
    /// What the producer should do.
    pub command: FeedbackCommand,
    /// The set `Π` of (minimal non-demanded) sub-tuples the command refers to.
    pub mns_set: Vec<Tuple>,
}

impl Feedback {
    /// `<suspend, Π>`.
    pub fn suspend(mns_set: Vec<Tuple>) -> Self {
        Feedback {
            command: FeedbackCommand::Suspend,
            mns_set,
        }
    }

    /// `<resume, Π>`.
    pub fn resume(mns_set: Vec<Tuple>) -> Self {
        Feedback {
            command: FeedbackCommand::Resume,
            mns_set,
        }
    }
}

impl fmt::Display for Feedback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {{", self.command)?;
        for (i, t) in self.mns_set.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SourceId;
    use crate::timestamp::Timestamp;
    use crate::tuple::BaseTuple;
    use crate::value::Value;
    use std::sync::Arc;

    fn tup(source: u16, seq: u64) -> Tuple {
        Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_millis(seq),
            vec![Value::int(1)],
        )))
    }

    #[test]
    fn constructors_set_command() {
        assert_eq!(Feedback::suspend(vec![]).command, FeedbackCommand::Suspend);
        assert_eq!(Feedback::resume(vec![]).command, FeedbackCommand::Resume);
    }

    #[test]
    fn display_matches_paper_notation() {
        let f = Feedback::suspend(vec![tup(0, 1)]);
        let s = f.to_string();
        assert!(s.starts_with("<suspend, {"), "{s}");
        assert!(s.contains("A1"));
    }
}
