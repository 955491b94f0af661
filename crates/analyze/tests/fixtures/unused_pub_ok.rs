// Fixture: public items the rule must leave alone.

// Referenced from unused_pub_bad.rs.
pub const BATCH: usize = 4;

pub struct Counter {
    n: u32,
}

impl Counter {
    pub fn bump(&mut self) -> u32 {
        self.n += 1;
        self.n
    }
}

fn drive(c: &mut Counter) -> u32 {
    c.bump()
}
