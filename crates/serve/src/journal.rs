//! Write-ahead event journal.
//!
//! Every state-mutating request is appended (and fsynced) here *before* it
//! executes, as one text record per line:
//!
//! ```text
//! FMJ1 <seq> <crc32-hex> <payload>
//! ```
//!
//! The CRC covers the payload bytes. Replay walks the file from the top
//! and stops at the first record that fails to parse or verify — a crash
//! mid-append can only tear the *tail*, so everything before the torn
//! record is trusted and the torn bytes are discarded (and truncated away
//! on reopen, so the next append never splices onto garbage).

use fairmove_rl::store::crc32;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

const TAG: &str = "FMJ1";

/// One replayed journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Monotonic sequence number (0-based).
    pub seq: u64,
    /// The journaled command text.
    pub payload: String,
}

/// Outcome of scanning a journal file.
#[derive(Debug)]
pub struct Replay {
    /// Valid records, in order.
    pub records: Vec<Record>,
    /// Bytes of torn/garbage tail discarded (0 on a clean file).
    pub torn_bytes: u64,
    /// Offset of the first byte past the last valid record.
    valid_len: u64,
}

/// Parses journal `bytes`, stopping at the first invalid record.
pub fn scan(bytes: &[u8]) -> Replay {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut expected_seq = 0u64;
    while offset < bytes.len() {
        let Some(rel_end) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break; // unterminated tail
        };
        let line = &bytes[offset..offset + rel_end];
        let Some(record) = parse_line(line, expected_seq) else {
            break;
        };
        records.push(record);
        expected_seq += 1;
        offset += rel_end + 1;
    }
    Replay {
        records,
        torn_bytes: (bytes.len() - offset) as u64,
        valid_len: offset as u64,
    }
}

fn parse_line(line: &[u8], expected_seq: u64) -> Option<Record> {
    let line = std::str::from_utf8(line).ok()?;
    let mut it = line.splitn(4, ' ');
    if it.next() != Some(TAG) {
        return None;
    }
    let seq: u64 = it.next()?.parse().ok()?;
    let crc = u32::from_str_radix(it.next()?, 16).ok()?;
    let payload = it.next()?;
    // A record with the wrong sequence number means the file was spliced
    // or rewritten — nothing after it is trustworthy.
    if seq != expected_seq || crc32(payload.as_bytes()) != crc {
        return None;
    }
    Some(Record {
        seq,
        payload: payload.to_string(),
    })
}

/// An open journal: replayed once at open, append-only afterwards.
#[derive(Debug)]
pub struct Journal {
    file: File,
    next_seq: u64,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, scanning existing
    /// records. Any torn tail is truncated off before appends resume.
    pub fn open(path: &Path) -> io::Result<(Journal, Replay)> {
        // Existing records are the whole point of reopening: never truncate
        // here (the only truncation is the torn-tail trim below).
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let replay = scan(&bytes);
        if replay.torn_bytes > 0 {
            file.set_len(replay.valid_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(replay.valid_len))?;
        let next_seq = replay.records.len() as u64;
        Ok((Journal { file, next_seq }, replay))
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends `payload` (must be newline-free) as the next record and
    /// fsyncs before returning, so an acknowledged command survives a crash.
    pub fn append(&mut self, payload: &str) -> io::Result<u64> {
        debug_assert!(!payload.contains('\n'), "journal payloads are one line");
        let seq = self.next_seq;
        let line = format!("{TAG} {seq} {:08x} {payload}\n", crc32(payload.as_bytes()));
        self.file.write_all(line.as_bytes())?;
        self.file.sync_all()?;
        self.next_seq += 1;
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("fairmove-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let path = tmp("roundtrip");
        {
            let (mut j, replay) = Journal::open(&path).unwrap();
            assert!(replay.records.is_empty());
            assert_eq!(j.append("STEP F").unwrap(), 0);
            assert_eq!(j.append("EVENT surge 3 1.5 10 20").unwrap(), 1);
            assert_eq!(j.append("STEP G").unwrap(), 2);
        }
        let (j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(
            replay
                .records
                .iter()
                .map(|r| r.payload.as_str())
                .collect::<Vec<_>>(),
            vec!["STEP F", "EVENT surge 3 1.5 10 20", "STEP G"]
        );
        assert_eq!(j.next_seq(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_at_every_byte_keeps_the_valid_prefix() {
        let path = tmp("torn");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append("STEP F").unwrap();
            j.append("STEP S").unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let first_len = full.iter().position(|&b| b == b'\n').unwrap() + 1;
        for cut in 0..full.len() {
            let replay = scan(&full[..cut]);
            let want = if cut >= full.len() {
                2
            } else if cut > first_len {
                // Anywhere inside the second record (even one byte in) the
                // tail is torn; the first record survives untouched.
                1
            } else if cut == first_len {
                1
            } else {
                0
            };
            assert_eq!(replay.records.len(), want, "cut at {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_truncates_garbage_and_appends_continue() {
        let path = tmp("truncate");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append("STEP F").unwrap();
        }
        // Simulate a crash mid-append: half a record, no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"FMJ1 1 deadbeef STE").unwrap();
        }
        let (mut j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn_bytes > 0);
        assert_eq!(j.append("STEP S").unwrap(), 1);
        // The file is now clean: a third open sees both records, no tears.
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bitflips_and_spliced_sequences_stop_the_scan() {
        let path = tmp("bitflip");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append("STEP F").unwrap();
            j.append("STEP S").unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let first_len = full.iter().position(|&b| b == b'\n').unwrap() + 1;
        // Flip one payload byte of the second record: CRC catches it.
        let mut corrupt = full.clone();
        *corrupt.last_mut().unwrap() = b'\n'; // keep the newline
        let flip_at = full.len() - 2;
        corrupt[flip_at] ^= 0x01;
        assert_eq!(scan(&corrupt).records.len(), 1);
        // Duplicate the first record after itself: sequence check catches it.
        let mut spliced = full[..first_len].to_vec();
        spliced.extend_from_slice(&full[..first_len]);
        assert_eq!(scan(&spliced).records.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
