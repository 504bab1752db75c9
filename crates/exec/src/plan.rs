//! Executable plan graphs.
//!
//! A plan wires operator instances to streaming sources and to each other via
//! the consumer–producer relationship. Plans are built bottom-up with
//! [`PlanBuilder`]: an operator's inputs must already exist when it is added,
//! which makes cycles impossible by construction.

use crate::operator::{Operator, OperatorId, Port};
use jit_types::SourceId;
use std::fmt;

/// What feeds one input port of an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// A raw streaming source.
    Source(SourceId),
    /// The output of another operator (the producer).
    Operator(OperatorId),
}

/// One operator in the plan, together with its wiring.
pub struct OperatorSlot {
    /// The operator instance.
    pub operator: Box<dyn Operator>,
    /// What feeds each input port (`inputs[p]` feeds port `p`).
    pub inputs: Vec<Input>,
    /// The downstream operators consuming this operator's output, and the
    /// port on which they receive it. Computed by [`PlanBuilder::build`].
    pub consumers: Vec<(OperatorId, Port)>,
    /// Is this a sink (its results are the query's final output)?
    pub is_sink: bool,
}

impl fmt::Debug for OperatorSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OperatorSlot")
            .field("operator", &self.operator.name())
            .field("inputs", &self.inputs)
            .field("consumers", &self.consumers)
            .field("is_sink", &self.is_sink)
            .finish()
    }
}

/// A fully wired, validated plan ready to be executed.
#[derive(Debug)]
pub struct ExecutablePlan {
    /// Operator slots indexed by [`OperatorId`].
    pub slots: Vec<OperatorSlot>,
    /// For each source id (by index), the operators subscribed to it and the
    /// port on which they receive its tuples.
    pub source_subscribers: Vec<Vec<(OperatorId, Port)>>,
}

impl ExecutablePlan {
    /// Number of operators.
    pub fn num_operators(&self) -> usize {
        self.slots.len()
    }

    /// The sink operators (whose output is the query result).
    pub fn sinks(&self) -> Vec<OperatorId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_sink)
            .map(|(i, _)| OperatorId(i))
            .collect()
    }

    /// A textual rendering of the plan topology for diagnostics.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let inputs: Vec<String> = slot
                .inputs
                .iter()
                .map(|inp| match inp {
                    Input::Source(s) => format!("src {s}"),
                    Input::Operator(o) => o.to_string(),
                })
                .collect();
            out.push_str(&format!(
                "Op{} {} <- [{}]{}\n",
                i,
                slot.operator.name(),
                inputs.join(", "),
                if slot.is_sink { "  (sink)" } else { "" }
            ));
        }
        out
    }
}

/// Errors detected while assembling a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// An input referenced an operator id that has not been added yet.
    UnknownOperator(OperatorId),
    /// The number of wired inputs does not match the operator's port count.
    PortMismatch {
        /// The offending operator.
        operator: OperatorId,
        /// Ports the operator expects.
        expected: usize,
        /// Inputs actually wired.
        got: usize,
    },
    /// The plan has no operators.
    Empty,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownOperator(id) => write!(f, "input references unknown operator {id}"),
            PlanError::PortMismatch {
                operator,
                expected,
                got,
            } => write!(
                f,
                "{operator} expects {expected} input port(s) but {got} were wired"
            ),
            PlanError::Empty => write!(f, "plan contains no operators"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Bottom-up plan assembly.
#[derive(Default)]
pub struct PlanBuilder {
    slots: Vec<(Box<dyn Operator>, Vec<Input>)>,
    max_source: usize,
}

impl PlanBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        PlanBuilder::default()
    }

    /// Add an operator whose ports are fed by `inputs` (port `p` gets
    /// `inputs[p]`). Returns the operator's id.
    pub fn add_operator(&mut self, operator: Box<dyn Operator>, inputs: Vec<Input>) -> OperatorId {
        for inp in &inputs {
            if let Input::Source(s) = inp {
                self.max_source = self.max_source.max(s.index() + 1);
            }
        }
        self.slots.push((operator, inputs));
        OperatorId(self.slots.len() - 1)
    }

    /// Validate the wiring and produce an executable plan.
    ///
    /// Operators that no other operator consumes become sinks.
    pub fn build(self) -> Result<ExecutablePlan, PlanError> {
        if self.slots.is_empty() {
            return Err(PlanError::Empty);
        }
        let n = self.slots.len();
        // Validate references and arity.
        for (idx, (op, inputs)) in self.slots.iter().enumerate() {
            if inputs.len() != op.num_ports() {
                return Err(PlanError::PortMismatch {
                    operator: OperatorId(idx),
                    expected: op.num_ports(),
                    got: inputs.len(),
                });
            }
            for inp in inputs {
                if let Input::Operator(OperatorId(p)) = inp {
                    if *p >= n {
                        return Err(PlanError::UnknownOperator(OperatorId(*p)));
                    }
                }
            }
        }
        // Compute consumers and source subscriptions.
        let mut consumers: Vec<Vec<(OperatorId, Port)>> = vec![Vec::new(); n];
        let mut source_subscribers: Vec<Vec<(OperatorId, Port)>> =
            vec![Vec::new(); self.max_source];
        for (idx, (_, inputs)) in self.slots.iter().enumerate() {
            for (port, inp) in inputs.iter().enumerate() {
                match inp {
                    Input::Operator(OperatorId(p)) => {
                        consumers[*p].push((OperatorId(idx), port));
                    }
                    Input::Source(s) => {
                        source_subscribers[s.index()].push((OperatorId(idx), port));
                    }
                }
            }
        }
        let slots = self
            .slots
            .into_iter()
            .zip(consumers)
            .map(|((operator, inputs), consumers)| {
                let is_sink = consumers.is_empty();
                OperatorSlot {
                    operator,
                    inputs,
                    consumers,
                    is_sink,
                }
            })
            .collect();
        Ok(ExecutablePlan {
            slots,
            source_subscribers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{DataMessage, OpContext, OperatorOutput};
    use jit_types::SourceSet;

    struct Dummy {
        name: String,
        ports: usize,
        schema: SourceSet,
    }

    impl Dummy {
        fn boxed(name: &str, ports: usize) -> Box<dyn Operator> {
            Box::new(Dummy {
                name: name.to_string(),
                ports,
                schema: SourceSet::first_n(1),
            })
        }
    }

    impl Operator for Dummy {
        fn name(&self) -> &str {
            &self.name
        }
        fn output_schema(&self) -> SourceSet {
            self.schema
        }
        fn num_ports(&self) -> usize {
            self.ports
        }
        fn process(
            &mut self,
            _port: Port,
            msg: &DataMessage,
            _ctx: &mut OpContext<'_>,
        ) -> OperatorOutput {
            OperatorOutput::with_results(vec![msg.clone()])
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn builds_two_level_tree() {
        let mut b = PlanBuilder::new();
        let op1 = b.add_operator(
            Dummy::boxed("A⋈B", 2),
            vec![Input::Source(SourceId(0)), Input::Source(SourceId(1))],
        );
        let op2 = b.add_operator(
            Dummy::boxed("AB⋈C", 2),
            vec![Input::Operator(op1), Input::Source(SourceId(2))],
        );
        let plan = b.build().unwrap();
        assert_eq!(plan.num_operators(), 2);
        assert_eq!(plan.sinks(), vec![op2]);
        assert!(!plan.slots[op1.0].is_sink);
        assert_eq!(plan.slots[op1.0].consumers, vec![(op2, 0)]);
        assert_eq!(plan.source_subscribers[0], vec![(op1, 0)]);
        assert_eq!(plan.source_subscribers[2], vec![(op2, 1)]);
        let desc = plan.describe();
        assert!(desc.contains("A⋈B"));
        assert!(desc.contains("(sink)"));
    }

    #[test]
    fn empty_plan_is_rejected() {
        assert_eq!(PlanBuilder::new().build().unwrap_err(), PlanError::Empty);
    }

    #[test]
    fn port_mismatch_is_rejected() {
        let mut b = PlanBuilder::new();
        b.add_operator(Dummy::boxed("join", 2), vec![Input::Source(SourceId(0))]);
        match b.build() {
            Err(PlanError::PortMismatch { expected, got, .. }) => {
                assert_eq!(expected, 2);
                assert_eq!(got, 1);
            }
            other => panic!("expected port mismatch, got {other:?}"),
        }
    }

    #[test]
    fn forward_reference_is_rejected() {
        let mut b = PlanBuilder::new();
        b.add_operator(Dummy::boxed("bad", 1), vec![Input::Operator(OperatorId(5))]);
        match b.build() {
            Err(PlanError::UnknownOperator(OperatorId(5))) => {}
            other => panic!("expected unknown operator, got {other:?}"),
        }
    }

    #[test]
    fn multiple_sinks_are_allowed() {
        // Two independent paths.
        let mut b = PlanBuilder::new();
        let a = b.add_operator(Dummy::boxed("pathA", 1), vec![Input::Source(SourceId(0))]);
        let c = b.add_operator(Dummy::boxed("pathB", 1), vec![Input::Source(SourceId(1))]);
        let plan = b.build().unwrap();
        assert_eq!(plan.sinks(), vec![a, c]);
    }

    #[test]
    fn error_display() {
        assert!(PlanError::Empty.to_string().contains("no operators"));
        assert!(PlanError::UnknownOperator(OperatorId(1))
            .to_string()
            .contains("Op1"));
    }
}
