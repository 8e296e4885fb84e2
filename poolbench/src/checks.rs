//! Correctness checks. Each returns `Err` with a description when the
//! program's output is wrong; the run then exits non-zero and prints no
//! figures.

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A repeated op on identical inputs must return a bit-identical schedule.
pub fn same_schedule(what: &str, first: &[u32], again: &[u32]) -> Result<(), String> {
    if first == again {
        return Ok(());
    }
    let at = first
        .iter()
        .zip(again)
        .position(|(a, b)| a != b)
        .unwrap_or(first.len().min(again.len()));
    Err(format!(
        "{what}: schedule differs from the first run at interval {at} (lengths {} and {})",
        first.len(),
        again.len()
    ))
}

/// Reports that must be byte-equal must have equal digests.
pub fn same_digest(what: &str, first: u64, again: u64) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!(
            "{what}: report differs from the first day ({first:016x} vs {again:016x})"
        ))
    }
}

/// Every request of a pool is either a hit or a miss.
pub fn hit_accounting(pool: &str, requests: u64, hits: u64, misses: u64) -> Result<(), String> {
    if hits.checked_add(misses) == Some(requests) {
        Ok(())
    } else {
        Err(format!(
            "pool {pool}: hits {hits} + misses {misses} != requests {requests}"
        ))
    }
}

/// The entries the client saw acknowledged must equal the daemon's count.
pub fn injected_count(source: &str, acked: u64, reported: u64) -> Result<(), String> {
    if acked == reported {
        Ok(())
    } else {
        Err(format!(
            "{source} reports {reported} injected entries, the client had {acked} acknowledged"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipped_schedule_entry_fails() {
        let first = vec![3, 3, 4, 4, 5];
        assert!(same_schedule("p", &first, &first.clone()).is_ok());
        let mut flipped = first.clone();
        flipped[2] ^= 1;
        let err = same_schedule("p", &first, &flipped).unwrap_err();
        assert!(err.contains("interval 2"), "{err}");
        assert!(same_schedule("p", &first, &first[..4]).is_err());
    }

    #[test]
    fn changed_report_byte_fails() {
        let a = fnv1a(b"FleetReport { pools: [hits: 10] }");
        let b = fnv1a(b"FleetReport { pools: [hits: 11] }");
        assert!(same_digest("day", a, a).is_ok());
        assert!(same_digest("day", a, b).is_err());
    }

    #[test]
    fn unbalanced_hits_fail() {
        assert!(hit_accounting("p", 10, 7, 3).is_ok());
        assert!(hit_accounting("p", 10, 7, 2).is_err());
        assert!(hit_accounting("p", 0, u64::MAX, 1).is_err());
    }

    #[test]
    fn mismatched_injected_count_fails() {
        assert!(injected_count("/status", 1600, 1600).is_ok());
        assert!(injected_count("/status", 1600, 1584).is_err());
    }
}
