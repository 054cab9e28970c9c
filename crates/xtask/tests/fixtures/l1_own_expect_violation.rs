//! Fixture: defining `fn expect(` exempts only `self.expect(` calls;
//! `Option::expect` on any other receiver in the same file still fires.

pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn expect(&mut self, want: u8) -> Result<(), usize> {
        match self.bytes.get(self.pos) {
            Some(&b) if b == want => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.pos),
        }
    }

    pub fn first(&mut self, opt: Option<u8>) -> u8 {
        let want = opt.expect("fixture");
        let _ = self.expect(want);
        want
    }
}
