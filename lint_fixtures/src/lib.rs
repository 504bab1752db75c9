//! One module per rule; a trailing marker names the lints that must fire.

pub mod attributes;
pub mod determinism;
pub mod hasher;
pub mod locks;
pub mod panic_hygiene;
pub mod unsafety;
