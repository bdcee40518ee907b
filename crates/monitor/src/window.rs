//! Windowed monitoring: seal decided prefixes, bound frontier memory.
//!
//! On an unbounded stream the frontier engines accumulate every state
//! that any interleaving of the whole prefix can reach. Windowing trades
//! that unbounded exactness for flat memory: every `size` events the
//! monitor *seals* the current prefix —
//!
//! * an **admitted** engine keeps only its complete states (all of them
//!   agree the prefix happened; they differ only in memory contents) and
//!   rebases them to an empty sequence — the engine restarts from the
//!   surviving value vectors, so steady-state memory is the number of
//!   distinct memory contents, not the number of interleavings;
//! * a **refuted** engine is rebased losslessly to the per-processor
//!   minimum already scheduled everywhere (a refutation may still heal,
//!   so nothing may be dropped);
//! * an **exhausted** engine is left alone (it does no state work).
//!
//! Each seal records a [`WindowRecord`] — the per-window verdict vector
//! at the boundary — so an operator reads the stream as a sequence of
//! per-window verdicts plus the sealed-prefix commitment. Sealing an
//! admitted window commits to *some* legal interpretation of the prefix;
//! verdicts after a seal are exact for the committed interpretation
//! (DESIGN §12 states the invariant precisely).

use crate::TriVerdict;

/// One sealed window: the verdict vector at its boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRecord {
    /// Stream position (events fed) at which the window was sealed.
    pub end: usize,
    /// Per-model verdicts at the boundary (model order of the monitor).
    pub verdicts: Vec<TriVerdict>,
}

/// Window bookkeeping for one monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowState {
    /// Events per window.
    pub size: usize,
    /// Stream position of the last seal.
    pub sealed_events: usize,
    /// Windows sealed so far.
    pub windows_sealed: u64,
    /// Frontier states dropped or merged away by seals.
    pub states_sealed: u64,
    /// Every sealed window's boundary verdicts, in order.
    records: Vec<WindowRecord>,
}

impl WindowState {
    /// Windowing with `size` events per window (clamped to at least 1).
    pub fn new(size: usize) -> Self {
        WindowState {
            size: size.max(1),
            sealed_events: 0,
            windows_sealed: 0,
            states_sealed: 0,
            records: Vec::new(),
        }
    }

    /// Should the stream seal at position `events`?
    pub fn due(&self, events: usize) -> bool {
        events - self.sealed_events >= self.size
    }

    /// Events from stream position `events` up to the next seal (at
    /// least 1): a batch no longer than this ends at or before the
    /// window boundary, so windows seal every `size` events however
    /// the stream is batched.
    pub fn room(&self, events: usize) -> usize {
        (self.sealed_events + self.size)
            .saturating_sub(events)
            .max(1)
    }

    /// Record a seal at `end` with the boundary verdicts.
    pub fn record(&mut self, end: usize, verdicts: Vec<TriVerdict>) {
        self.records.push(WindowRecord { end, verdicts });
        self.sealed_events = end;
        self.windows_sealed += 1;
    }

    /// The sealed windows, in order.
    pub fn records(&self) -> &[WindowRecord] {
        &self.records
    }

    /// Serialize under the [`smc_core::binfmt`] contract.
    pub fn save_into(&self, buf: &mut Vec<u8>) {
        use smc_core::binfmt::{write_u32, write_u64};
        write_u64(buf, self.size as u64);
        write_u64(buf, self.sealed_events as u64);
        write_u64(buf, self.windows_sealed);
        write_u64(buf, self.states_sealed);
        write_u32(buf, self.records.len() as u32);
        for rec in &self.records {
            write_u64(buf, rec.end as u64);
            for &v in &rec.verdicts {
                buf.push(v as u8);
            }
        }
    }

    /// Rebuild from [`WindowState::save_into`] bytes; each record holds
    /// one verdict byte per monitored model.
    pub fn load_from(
        r: &mut smc_core::binfmt::Reader<'_>,
        num_models: usize,
    ) -> Result<WindowState, String> {
        let size = r.u64()? as usize;
        let mut w = WindowState::new(size.max(1));
        w.sealed_events = r.u64()? as usize;
        w.windows_sealed = r.u64()?;
        w.states_sealed = r.u64()?;
        let n = r.len_prefix(8 + num_models)?;
        for _ in 0..n {
            let end = r.u64()? as usize;
            let mut verdicts = Vec::with_capacity(num_models);
            for _ in 0..num_models {
                let at = r.pos();
                verdicts.push(match r.u8()? {
                    0 => TriVerdict::Admitted,
                    1 => TriVerdict::Violated,
                    2 => TriVerdict::Unknown,
                    v => return Err(format!("unknown verdict {v} at byte {at}")),
                });
            }
            w.records.push(WindowRecord { end, verdicts });
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_fires_every_size_events() {
        let mut w = WindowState::new(3);
        assert!(!w.due(2));
        assert!(w.due(3));
        assert!(w.due(5));
        assert_eq!(w.room(2), 1);
        w.record(5, vec![TriVerdict::Admitted]);
        assert!(!w.due(7));
        assert!(w.due(8));
        assert_eq!((w.room(5), w.room(7)), (3, 1));
        assert_eq!(w.windows_sealed, 1);
        assert_eq!(w.records()[0].end, 5);
    }

    #[test]
    fn window_state_round_trips() {
        let mut w = WindowState::new(10);
        w.states_sealed = 42;
        w.record(10, vec![TriVerdict::Admitted, TriVerdict::Violated]);
        w.record(20, vec![TriVerdict::Unknown, TriVerdict::Admitted]);
        let mut buf = Vec::new();
        w.save_into(&mut buf);
        let mut r = smc_core::binfmt::Reader::new(&buf);
        let back = WindowState::load_from(&mut r, 2).unwrap();
        assert!(r.is_at_end());
        assert_eq!(back, w);
        for cut in 0..buf.len() {
            let mut r = smc_core::binfmt::Reader::new(&buf[..cut]);
            assert!(WindowState::load_from(&mut r, 2).is_err(), "cut {cut}");
        }
        // A garbage verdict byte is rejected with its offset.
        let mut bad = buf.clone();
        let vpos = 32 + 4 + 8; // header + count + first record's end
        bad[vpos] = 9;
        let mut r = smc_core::binfmt::Reader::new(&bad);
        let e = WindowState::load_from(&mut r, 2).unwrap_err();
        assert!(e.contains("unknown verdict 9"), "{e}");
    }
}
