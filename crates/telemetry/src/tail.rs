//! Incremental tailing of the observability JSONL artifacts.
//!
//! The `rla_top` dashboard follows two kinds of files while a run or
//! sweep is producing them: streamed `.timeline.jsonl` exports (one
//! sample object per line, see [`crate::timeline`]) and the sweep
//! heartbeat sink (one job object per line, see [`crate::progress`]).
//! [`JsonlTail`] is the `tail -f` half: it remembers a byte offset into
//! one file and, on every poll, returns the *complete* lines appended
//! since — a partial trailing line is buffered until its newline
//! arrives, so a record is never seen torn.
//!
//! Parsing is not this module's job: each returned line goes through
//! [`Json::parse`](crate::json::Json::parse), and a consumer skips the
//! lines that fail — a foreign line in a watched file must not take the
//! dashboard down.

use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Follows one JSONL file by byte offset, like `tail -f`. See the
/// module docs.
#[derive(Debug)]
pub struct JsonlTail {
    path: PathBuf,
    offset: u64,
    partial: Vec<u8>,
}

impl JsonlTail {
    /// Tail `path` from the beginning (existing content is returned by
    /// the first [`poll`](Self::poll)).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JsonlTail {
            path: path.into(),
            offset: 0,
            partial: Vec::new(),
        }
    }

    /// The tailed path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read everything appended since the last poll and return the
    /// complete lines (no trailing `\n`). A missing file is "no new
    /// lines", not an error — sweeps create their artifacts lazily. A
    /// file that shrank (truncated/recreated) is re-read from the start.
    pub fn poll(&mut self) -> std::io::Result<Vec<String>> {
        let mut f = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let len = f.metadata()?.len();
        if len < self.offset {
            self.offset = 0;
            self.partial.clear();
        }
        if len == self.offset {
            return Ok(Vec::new());
        }
        f.seek(SeekFrom::Start(self.offset))?;
        let mut buf = Vec::with_capacity((len - self.offset) as usize);
        f.take(len - self.offset).read_to_end(&mut buf)?;
        self.offset += buf.len() as u64;

        let mut lines = Vec::new();
        for b in buf {
            if b == b'\n' {
                let line = std::mem::take(&mut self.partial);
                lines.push(String::from_utf8_lossy(&line).into_owned());
            } else {
                self.partial.push(b);
            }
        }
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rla_tail_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn tail_returns_only_complete_appended_lines() {
        let path = temp_file("grow.jsonl");
        let mut tail = JsonlTail::new(&path);
        assert!(tail.poll().unwrap().is_empty(), "missing file is quiet");

        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "{{\"a\":1}}").unwrap();
        write!(f, "{{\"b\":").unwrap(); // torn write: no newline yet
        f.flush().unwrap();
        assert_eq!(tail.poll().unwrap(), vec!["{\"a\":1}".to_string()]);
        assert!(tail.poll().unwrap().is_empty(), "partial line held back");

        writeln!(f, "2}}").unwrap();
        f.flush().unwrap();
        assert_eq!(tail.poll().unwrap(), vec!["{\"b\":2}".to_string()]);
    }

    #[test]
    fn tail_recovers_from_truncation() {
        let path = temp_file("trunc.jsonl");
        std::fs::write(&path, "{\"a\":1}\n{\"a\":2}\n").unwrap();
        let mut tail = JsonlTail::new(&path);
        assert_eq!(tail.poll().unwrap().len(), 2);
        // File recreated shorter (a new run overwrote it): start over.
        std::fs::write(&path, "{\"a\":9}\n").unwrap();
        assert_eq!(tail.poll().unwrap(), vec!["{\"a\":9}".to_string()]);
    }

    #[test]
    fn a_shrunk_file_drops_the_torn_line_it_cut() {
        let path = temp_file("shrunk.jsonl");
        // A whole line, then a torn one that ends inside a two-byte 'é'.
        let old = "{\"a\":1}\n{\"é\":2}\n";
        std::fs::write(&path, &old.as_bytes()[..11]).unwrap();
        let mut tail = JsonlTail::new(&path);
        assert_eq!(tail.poll().unwrap(), vec!["{\"a\":1}".to_string()]);
        // Recreated shorter than the offset already read: the held-back
        // bytes belonged to the old file and must not prefix the new one.
        std::fs::write(&path, "{\"b\":2}\n").unwrap();
        assert_eq!(tail.poll().unwrap(), vec!["{\"b\":2}".to_string()]);
        assert!(tail.poll().unwrap().is_empty());
    }

    /// Characters of one to four UTF-8 bytes, JSON punctuation among
    /// them, so a cut can land inside any of them.
    const ALPHABET: [char; 8] = ['{', '"', ':', '7', 'é', 'λ', '€', '𝄞'];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Lines (empty ones included) appended in chunks that cut them at
        /// arbitrary bytes come back from a poll after every chunk exactly
        /// as written, in order, each once, and only when whole.
        #[test]
        fn tail_returns_whole_lines_at_any_write_granularity(
            raw in proptest::collection::vec(proptest::collection::vec(0usize..8, 0..12), 0..24),
            chunks in proptest::collection::vec(1usize..48, 1..16),
        ) {
            let lines: Vec<String> = raw
                .iter()
                .map(|l| l.iter().map(|&c| ALPHABET[c]).collect())
                .collect();
            let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let bytes = text.as_bytes();
            let path = temp_file("chunks.jsonl");
            let mut f = std::fs::File::create(&path).unwrap();
            let mut tail = JsonlTail::new(&path);
            let mut seen: Vec<String> = Vec::new();
            let mut at = 0;
            for &n in chunks.iter().cycle() {
                if at == bytes.len() {
                    break;
                }
                let end = (at + n).min(bytes.len());
                f.write_all(&bytes[at..end]).unwrap();
                at = end;
                seen.extend(tail.poll().unwrap());
                let whole = bytes[..at].iter().filter(|&&b| b == b'\n').count();
                proptest::prop_assert_eq!(&seen[..], &lines[..whole], "after byte {}", at);
            }
            proptest::prop_assert_eq!(seen, lines);
        }
    }
}
