// `unsafe` is denied everywhere, and a block needs a `// SAFETY:` comment.
pub fn reinterpret(bytes: [u8; 8]) -> u64 {
    unsafe { std::mem::transmute(bytes) } //~ unsafe_code clippy::undocumented_unsafe_blocks
}
