//! Fixture: a file that defines its own `fn expect(` may call it as
//! `self.expect(`; that is not `Option::expect` and cannot panic.

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

    pub fn pair(&mut self) -> Result<(), usize> {
        self.expect(b'(')?;
        self.expect(b')')
    }
}
