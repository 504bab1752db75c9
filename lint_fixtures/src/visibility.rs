// A `pub` item in a private module is unreachable from the crate root: it
// must be `pub(crate)` or re-exported, and nothing calls it.
pub fn orphan() -> u32 { //~ unreachable_pub dead_code
    7
}
