// Library code must not panic, stub itself out or print: a long-running
// session would lose its windows.

pub fn head_and_last(values: &[u64]) -> (u64, u64) {
    let head = *values.first().unwrap(); //~ clippy::unwrap_used
    (head, *values.last().expect("non-empty")) //~ clippy::expect_used
}

pub fn unfinished(step: u8) -> u64 {
    match step {
        0 => panic!("no proof anywhere near this"), //~ clippy::panic
        1 => unreachable!("nothing proves this"), //~ clippy::unreachable
        2 => unimplemented!(), //~ clippy::unimplemented
        3 => todo!(), //~ clippy::todo
        _ => dbg!(u64::from(step)), //~ clippy::dbg_macro
    }
}

pub fn shout() {
    println!("library code has no stdout"); //~ clippy::print_stdout
}
