// Fixture: public items that no non-test code calls.

pub fn only_tested() -> u32 {
    7
}

pub fn only_reexported() -> u32 {
    8
}

pub use self::only_reexported;

fn doubled_batch() -> usize {
    unused_pub_ok::BATCH * 2
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        assert_eq!(super::only_tested(), 7);
    }
}

pub struct Orphan;

impl Orphan {
    fn make() -> Orphan {
        Orphan
    }
}
