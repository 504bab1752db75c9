// SipHash maps and sets where `jit_types::FastMap` / `FastSet` belong.
use std::collections::HashMap; //~ clippy::disallowed_types
use std::collections::HashSet; //~ clippy::disallowed_types

pub fn index(keys: &[u64]) -> (HashMap<u64, usize>, HashSet<u64>) {
    let map = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let set = keys.iter().copied().collect();
    (map, set)
}
