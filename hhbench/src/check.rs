//! Output checks: the failed/attempted tally and the fingerprints that make
//! "same output" a one-word comparison.

use hybrid_core::TraceOutcome;
use simcore::SimTime;

/// Checks attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one check; on failure keep the first few notes.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Check that `got` equals `want`.
    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(got == want, || {
            format!("{what}: got {got:?}, want {want:?}")
        });
    }
}

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// FNV-1a over 8-byte little-endian words (the last one zero-padded):
    /// an eighth of the multiplies of [`Fnv::bytes`], for hashing long
    /// streams on a thread that must keep up with another process.
    pub fn words(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 ^= u64::from_le_bytes(word);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.bytes(bytes);
        h.0
    }
}

/// Fingerprint of every observable field of a replay outcome, in the shape
/// the repository's golden tests pin.
pub fn fingerprint(out: &TraceOutcome) -> u64 {
    let mut h = Fnv::default();
    h.u64(out.results.len() as u64);
    for r in &out.results {
        h.u64(r.id.0 as u64);
        h.bytes(r.app.as_bytes());
        h.u64(r.input_size);
        h.u64(r.cluster as u64);
        h.bytes(r.cluster_name.as_bytes());
        h.u64(r.submit.since(SimTime::ZERO).0);
        h.u64(r.end.since(SimTime::ZERO).0);
        h.u64(r.execution.0);
        h.u64(r.map_phase.0);
        h.u64(r.shuffle_phase.0);
        h.u64(r.reduce_phase.0);
        h.u64(r.maps as u64);
        h.u64(r.reduces as u64);
        h.u64(r.map_waves as u64);
        h.u64(r.data_local_maps as u64);
        match &r.failed {
            None => h.u64(0),
            Some(msg) => {
                h.u64(1);
                h.bytes(msg.as_bytes());
            }
        }
    }
    for v in out.up_class_exec.iter().chain(&out.out_class_exec) {
        h.u64(v.to_bits());
    }
    h.u64(out.makespan.0);
    h.0
}

/// Whether every job id in `results` is distinct and there are `expected`
/// of them: each job completed (or failed) exactly once.
pub fn each_job_once(results: &[mapreduce::JobResult], expected: usize) -> bool {
    let mut ids: Vec<u32> = results.iter().map(|r| r.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len() == results.len() && results.len() == expected
}
