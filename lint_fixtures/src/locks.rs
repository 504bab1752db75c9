// An unbounded channel has no backpressure; a lock invites lock-order deadlocks.
use std::sync::mpsc;
use std::sync::Mutex; //~ clippy::disallowed_types

pub fn unbounded(_guard: &Mutex<()>) -> (mpsc::Sender<u64>, mpsc::Receiver<u64>) {
    mpsc::channel() //~ clippy::disallowed_methods
}
