//! The read-back oracle: payloads derived from the seed, and the check
//! that compares what the file system returned with them.
//!
//! Every byte the benchmark writes is a pure function of the run's seed
//! and a tag naming the write (a key and its version, a log record, a
//! mail file).  The model therefore stores only tags, and the oracle
//! regenerates the expected bytes to compare a read-back against.

/// Outcome of one operation as the oracle judged it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The operation succeeded and every byte it read matched the model.
    Ok,
    /// The operation returned an error.
    Error(String),
    /// The operation succeeded but read back bytes the model does not
    /// predict.
    Mismatch(String),
}

impl Verdict {
    /// Failure class, used to tally failures by cause.
    pub fn class(&self) -> Option<String> {
        match self {
            Verdict::Ok => None,
            Verdict::Error(e) => Some(format!("error: {e}")),
            Verdict::Mismatch(_) => Some("read-back mismatch".to_string()),
        }
    }
}

impl From<vfs::FsError> for Verdict {
    fn from(e: vfs::FsError) -> Self {
        Verdict::Error(e.to_string())
    }
}

/// One step of splitmix64, the generator behind every payload.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The payload stream of `(seed, tag)`.
fn stream(seed: u64, tag: u64) -> impl Iterator<Item = u8> {
    let mut state = seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    std::iter::repeat_with(move || splitmix(&mut state).to_le_bytes()).flatten()
}

/// Fills `buf` with the payload of `(seed, tag)`.
pub fn fill(seed: u64, tag: u64, buf: &mut [u8]) {
    for (b, v) in buf.iter_mut().zip(stream(seed, tag)) {
        *b = v;
    }
}

/// The payload of `(seed, tag)`, `len` bytes long.
pub fn payload(seed: u64, tag: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    fill(seed, tag, &mut buf);
    buf
}

/// Compares a read-back with the payload the model predicts; `what`
/// names the read in the failure message.
pub fn check(seed: u64, tag: u64, expected_len: usize, got: &[u8], what: &str) -> Verdict {
    if got.len() != expected_len {
        return Verdict::Mismatch(format!(
            "{what}: read {} bytes, model has {expected_len}",
            got.len()
        ));
    }
    match got.iter().zip(stream(seed, tag)).position(|(a, b)| *a != b) {
        None => Verdict::Ok,
        Some(at) => Verdict::Mismatch(format!("{what}: first wrong byte at {at}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_deterministic_and_distinct() {
        assert_eq!(payload(7, 1, 100), payload(7, 1, 100));
        assert_ne!(payload(7, 1, 100), payload(7, 2, 100));
        assert_ne!(payload(7, 1, 100), payload(8, 1, 100));
        assert_eq!(check(7, 1, 100, &payload(7, 1, 100), "x"), Verdict::Ok);
    }

    #[test]
    fn doctored_bytes_and_lengths_are_mismatches() {
        let mut got = payload(3, 9, 4096);
        got[4000] ^= 1;
        assert!(matches!(check(3, 9, 4096, &got, "x"), Verdict::Mismatch(_)));
        assert!(matches!(
            check(3, 9, 4096, &payload(3, 9, 4095), "x"),
            Verdict::Mismatch(_)
        ));
        // A doctored model (wrong tag) trips the same check.
        assert!(matches!(
            check(3, 10, 4096, &payload(3, 9, 4096), "x"),
            Verdict::Mismatch(_)
        ));
    }
}
