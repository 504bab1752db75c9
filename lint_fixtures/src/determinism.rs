// Wall clocks and OS entropy outside the sanctioned sites break
// byte-identical checkpoint replay and shard equivalence.
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Instant, UNIX_EPOCH};

pub fn stamp() -> (Instant, u128, StdRng) {
    let now = Instant::now(); //~ clippy::disallowed_methods
    let wall = std::time::SystemTime::now(); //~ clippy::disallowed_types
    let since_epoch = wall.duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
    (now, since_epoch, StdRng::from_entropy()) //~ clippy::disallowed_methods
}
