//! Resumable campaign journals.
//!
//! A supervised sweep (see [`crate::supervise`]) can attach a journal: a
//! JSON-lines file recording every successfully simulated point as it
//! completes. Re-running the same campaign skips journaled points and
//! re-simulates only the missing ones, reproducing byte-identical figures
//! — the recorded value is the exact `u64` cycle count the simulator
//! produced, and the simulator is deterministic.
//!
//! The first line is a header carrying a digest of the campaign
//! configuration (figure, preset, SM count, the full ordered point grid).
//! A journal whose digest does not match the campaign being run — stale
//! grid, different preset, foreign file — is ignored and rebuilt from
//! scratch, as is a file that fails to parse. A partial trailing line
//! (the tail of a killed campaign's last write) is skipped; every fully
//! written entry before it is honoured.
//!
//! Every line is one flat JSON object whose members are strings or
//! unsigned integers, written by [`Line`] and read by [`Fields::parse`]
//! (this workspace builds offline, with no serialization dependency). The
//! accepted grammar is standard JSON in that shape: unknown keys are
//! ignored, duplicate keys are rejected. The campaign server's wire
//! protocol speaks the same dialect through the same writer and reader.

use crate::poison;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// FNV-1a over `input` — the campaign digest. Stable across runs and
/// platforms, cheap, and collision-resistant enough for "is this journal
/// talking about the same grid?".
pub fn digest(input: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in input.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Escape `s` for embedding in a double-quoted JSON string: quotes,
/// backslashes and control characters only, the form [`Line`] writes.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find(|c: char| c == '"' || c == '\\' || c < ' ') {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out
}

/// Undo [`json_escape`], or any other JSON escaping of a string body,
/// lossily: an escape [`Fields::parse`] would reject becomes U+FFFD.
pub fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => unescape(&mut chars).unwrap_or(char::REPLACEMENT_CHARACTER),
            c => c,
        });
    }
    out
}

/// Decode one escape whose backslash `chars` has just yielded: every
/// RFC 8259 escape, a UTF-16 surrogate pair as its one character.
fn unescape(chars: &mut std::str::Chars<'_>) -> Result<char, String> {
    fn hex4(chars: &mut std::str::Chars<'_>) -> Result<u32, String> {
        (0..4).try_fold(0, |v, _| {
            let digit = chars.next().and_then(|c| c.to_digit(16));
            digit.map(|d| v * 16 + d).ok_or_else(|| "\\u needs four hex digits".to_string())
        })
    }
    Ok(match chars.next() {
        Some('"') => '"',
        Some('\\') => '\\',
        Some('/') => '/',
        Some('b') => '\u{8}',
        Some('f') => '\u{c}',
        Some('n') => '\n',
        Some('r') => '\r',
        Some('t') => '\t',
        Some('u') => {
            let mut code = hex4(chars)?;
            if (0xd800..0xdc00).contains(&code) && chars.as_str().starts_with("\\u") {
                chars.nth(1);
                let low = hex4(chars)?;
                if (0xdc00..0xe000).contains(&low) {
                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                }
            }
            char::from_u32(code).ok_or_else(|| format!("unpaired surrogate \\u{code:04x}"))?
        }
        other => return Err(format!("bad escape {other:?}")),
    })
}

/// One JSON line, read once: a flat object whose members are strings or
/// unsigned integers — every line the journal, the manifest and the
/// campaign server's wire carry.
///
/// The grammar is standard JSON (RFC 8259) in that shape: whitespace
/// between tokens, every escape including surrogate pairs. Unknown keys
/// are kept, and callers ignore them. Duplicate keys, bytes after the
/// closing `}`, any other value (signs, fractions, exponents, leading
/// zeros, `true`, `null`, arrays, objects), an integer past `u64` and an
/// unescaped control character are errors, never a partial read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fields(Vec<(String, Value)>);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Str(String),
    U64(u64),
}

impl Fields {
    /// Read `line` as one flat object.
    pub fn parse(line: &str) -> Result<Fields, String> {
        let mut r = Reader { line, at: 0 };
        let mut members = Vec::new();
        r.expect(b'{')?;
        let mut more = r.peek() != Some(b'}');
        while more {
            let key = r.string()?;
            r.expect(b':')?;
            let value = match r.peek() {
                Some(b'"') => Value::Str(r.string()?),
                Some(b'0'..=b'9') => Value::U64(r.number()?),
                _ => return Err(format!("{key:?} is not a string or an unsigned integer")),
            };
            members.push((key, value));
            more = r.peek() == Some(b',');
            if more {
                r.at += 1;
            }
        }
        r.expect(b'}')?;
        if r.peek().is_some() {
            return Err(format!("bytes after the object at offset {}", r.at));
        }
        members.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if let Some(w) = members.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!("duplicate key {:?}", w[0].0));
        }
        Ok(Fields(members))
    }

    fn get(&self, key: &str) -> Option<&Value> {
        let i = self.0.binary_search_by(|(k, _)| k.as_str().cmp(key)).ok()?;
        Some(&self.0[i].1)
    }

    /// The string member `key`; `None` when absent or not a string.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(s) => Some(s),
            Value::U64(_) => None,
        }
    }

    /// The integer member `key`; `None` when absent or not an integer.
    pub fn u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Value::U64(n) => Some(*n),
            Value::Str(_) => None,
        }
    }
}

/// A cursor over one line for [`Fields::parse`].
struct Reader<'a> {
    line: &'a str,
    at: usize,
}

impl Reader<'_> {
    fn byte(&self) -> Option<u8> {
        self.line.as_bytes().get(self.at).copied()
    }

    /// The next byte after any whitespace, which is consumed.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
        self.byte()
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.peek() != Some(want) {
            return Err(format!("expected '{}' at offset {}", want as char, self.at));
        }
        self.at += 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = self.line[self.at..].chars();
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => out.push(unescape(&mut chars)?),
                Some(c) if c >= ' ' => out.push(c),
                Some(c) => return Err(format!("unescaped control character {c:?}")),
                None => return Err("unterminated string".to_string()),
            }
        }
        self.at = self.line.len() - chars.as_str().len();
        Ok(out)
    }

    fn number(&mut self) -> Result<u64, String> {
        let rest = &self.line[self.at..];
        let digits = &rest[..rest.bytes().take_while(u8::is_ascii_digit).count()];
        self.at += digits.len();
        if digits.len() > 1 && digits.starts_with('0') {
            return Err(format!("leading zero in {digits}"));
        }
        if matches!(self.byte(), Some(b'.' | b'e' | b'E')) {
            return Err(format!("{digits} is followed by a fraction or an exponent"));
        }
        digits.parse().map_err(|_| format!("{digits} does not fit 64 bits"))
    }
}

/// Writes one line the way [`Fields::parse`] reads it: members in the
/// order they are added, strings through [`json_escape`].
#[derive(Debug, Default)]
pub struct Line(String);

impl Line {
    /// Add the string member `key`.
    pub fn str(mut self, key: &str, value: &str) -> Line {
        self.key(key);
        self.0.push('"');
        self.0.push_str(&json_escape(value));
        self.0.push('"');
        self
    }

    /// Add the integer member `key`.
    pub fn u64(mut self, key: &str, value: u64) -> Line {
        self.key(key);
        let _ = write!(self.0, "{value}");
        self
    }

    /// Keys are the dialect's own identifiers, written as given.
    fn key(&mut self, key: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{key}\":");
    }

    /// The finished line, without a newline.
    pub fn end(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// An append-only journal of completed sweep points, keyed by the
/// campaign digest. Shared across worker threads: both maps and the file
/// handle sit behind mutexes, and every [`CampaignJournal::record`] is
/// appended and flushed immediately so a killed campaign keeps every
/// point it finished.
#[derive(Debug)]
pub struct CampaignJournal {
    entries: Mutex<HashMap<String, u64>>,
    file: Mutex<File>,
    resumed: usize,
}

impl CampaignJournal {
    /// Open (or create) the journal at `path` for the campaign identified
    /// by `digest`. An existing file with a matching header is loaded for
    /// resumption; a missing, corrupt or digest-mismatched file is
    /// truncated and rebuilt.
    pub fn open(path: &Path, digest: u64) -> io::Result<CampaignJournal> {
        let digest_hex = format!("{digest:016x}");
        let mut entries = HashMap::new();
        let mut valid = false;
        let mut complete_len = 0u64;
        if let Ok(existing) = std::fs::read_to_string(path) {
            // Only bytes up to the last newline are trustworthy. The tail
            // of a killed write can be a truncated record that *still
            // parses* — `{"key":"b","cycles":42` cut from `...423}` would
            // resume b with the wrong count — so a line counts only once
            // its newline hit the disk.
            let complete = match existing.rfind('\n') {
                Some(i) => &existing[..=i],
                None => "",
            };
            complete_len = complete.len() as u64;
            let mut lines = complete.lines();
            if let Some(header) = lines.next() {
                valid = Fields::parse(header).is_ok_and(|h| {
                    h.u64("gex_campaign") == Some(1) && h.str("digest") == Some(&digest_hex)
                });
            }
            if valid {
                // A complete line that fails to parse is skipped.
                for record in lines.filter_map(|line| Fields::parse(line).ok()) {
                    if let (Some(key), Some(cycles)) = (record.str("key"), record.u64("cycles")) {
                        entries.insert(key.to_string(), cycles);
                    }
                }
            }
        }
        let file = if valid {
            let f = OpenOptions::new().append(true).open(path)?;
            // Drop the torn tail before appending: writing after it would
            // merge the next record into one corrupt line and lose it.
            f.set_len(complete_len)?;
            f
        } else {
            entries.clear();
            let mut f = File::create(path)?;
            let header = Line::default().u64("gex_campaign", 1).str("digest", &digest_hex);
            writeln!(f, "{}", header.end())?;
            f.flush()?;
            f
        };
        let resumed = entries.len();
        Ok(CampaignJournal { entries: Mutex::new(entries), file: Mutex::new(file), resumed })
    }

    /// The journaled value for `key`, if the point already completed in a
    /// previous (or the current) run.
    pub fn get(&self, key: &str) -> Option<u64> {
        poison::lock(&self.entries).get(key).copied()
    }

    /// Record a completed point. Appended to the file and flushed before
    /// returning, so the entry survives a kill right after this call.
    ///
    /// Locks recover from poisoning: a worker thread that panicked while
    /// journaling must not wedge the journal for every other tenant of
    /// the process (each record is a single insert + whole-line append,
    /// so the state behind a poisoned lock is still consistent).
    pub fn record(&self, key: &str, cycles: u64) {
        poison::lock(&self.entries).insert(key.to_string(), cycles);
        let mut f = poison::lock(&self.file);
        let _ = writeln!(f, "{}", Line::default().str("key", key).u64("cycles", cycles).end());
        let _ = f.flush();
    }

    /// Points loaded from disk at open time (i.e. completed by an earlier
    /// run of the same campaign).
    pub fn resumed_points(&self) -> usize {
        self.resumed
    }

    /// Total points currently journaled (resumed plus newly recorded).
    pub fn len(&self) -> usize {
        poison::lock(&self.entries).len()
    }

    /// Snapshot of every journaled `(key, cycles)` pair, in unspecified
    /// order. The campaign server uses this to rebuild completed points
    /// after a restart.
    pub fn entries(&self) -> Vec<(String, u64)> {
        poison::lock(&self.entries).iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// True when nothing is journaled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// -------------------------------------------------- campaign manifests

/// The durable record of an accepted campaign: enough to rebuild the
/// campaign after a crash of the process that accepted it.
///
/// A long-running campaign server writes one manifest per accepted
/// campaign into its journal directory, next to the campaign's
/// [`CampaignJournal`] (both named by the campaign digest). On restart it
/// lists the manifests, reconstructs each campaign from the opaque `spec`
/// string, and resumes from the journal — completed points are served
/// from disk byte-identically, only missing ones re-simulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignManifest {
    /// Stable campaign identity (the server uses `tenant/campaign`).
    pub id: String,
    /// Owning tenant, for per-tenant scheduling and fault accounting.
    pub tenant: String,
    /// Campaign digest: keys the journal header and names both files.
    pub digest: u64,
    /// Opaque single-line serialized campaign spec; the writer defines
    /// the format (newlines are escaped away by the manifest encoding).
    pub spec: String,
}

impl CampaignManifest {
    /// Write the manifest into `dir` as `<digest>.manifest`, atomically
    /// (tempfile + rename), creating `dir` if needed. A kill between any
    /// two instructions leaves either no manifest or a complete one.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = manifest_path(dir, self.digest);
        let tmp = path.with_extension("manifest.tmp");
        {
            let line = Line::default()
                .u64("gex_manifest", 1)
                .str("id", &self.id)
                .str("tenant", &self.tenant)
                .str("digest", &format!("{:016x}", self.digest))
                .str("spec", &self.spec);
            let mut f = File::create(&tmp)?;
            writeln!(f, "{}", line.end())?;
            f.flush()?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Parse a manifest file; `None` for files that are not (complete)
    /// manifests — a torn or foreign file is skipped, never fatal.
    pub fn load(path: &Path) -> Option<CampaignManifest> {
        let content = std::fs::read_to_string(path).ok()?;
        let f = Fields::parse(content.lines().next()?).ok()?;
        if f.u64("gex_manifest") != Some(1) {
            return None;
        }
        Some(CampaignManifest {
            id: f.str("id")?.to_string(),
            tenant: f.str("tenant")?.to_string(),
            digest: u64::from_str_radix(f.str("digest")?, 16).ok()?,
            spec: f.str("spec")?.to_string(),
        })
    }
}

/// The manifest path for a campaign digest inside `dir`.
pub fn manifest_path(dir: &Path, digest: u64) -> PathBuf {
    dir.join(format!("{digest:016x}.manifest"))
}

/// The journal path for a campaign digest inside `dir`.
pub fn journal_path(dir: &Path, digest: u64) -> PathBuf {
    dir.join(format!("{digest:016x}.jsonl"))
}

/// Every parseable manifest in `dir`, sorted by id for deterministic
/// resume order. A missing directory is an empty campaign set, torn or
/// foreign files are skipped — a crash-landed directory always loads.
pub fn list_manifests(dir: &Path) -> Vec<CampaignManifest> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut out: Vec<CampaignManifest> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "manifest"))
        .filter_map(|e| CampaignManifest::load(&e.path()))
        .collect();
    out.sort_by(|a, b| a.id.cmp(&b.id));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gex-journal-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(digest("fig10|Test|2"), digest("fig10|Test|2"));
        assert_ne!(digest("fig10|Test|2"), digest("fig10|Test|4"));
    }

    #[test]
    fn escaping_round_trips() {
        for s in ["plain", "with \"quotes\"", "back\\slash", "ctl\u{1}char", "sgemm/OperandLog { bytes: 8192 }"] {
            let line = format!("{{\"key\":\"{}\",\"cycles\":7}}", json_escape(s));
            let f = Fields::parse(&line).unwrap();
            assert_eq!(f.str("key"), Some(s), "{line}");
            assert_eq!(f.u64("cycles"), Some(7));
        }
    }

    #[test]
    fn the_reader_takes_standard_json_and_refuses_everything_else() {
        let f = Fields::parse(
            " { \"s\" : \"x\\u00e9\\ud83d\\ude00\\b\\f\\r\\/\" ,\"zero\":0,\t\"max\":18446744073709551615 } ",
        )
        .unwrap();
        assert_eq!(f.str("s"), Some("xé\u{1f600}\u{8}\u{c}\r/"));
        assert_eq!((f.u64("zero"), f.u64("max")), (Some(0), Some(u64::MAX)));
        assert_eq!((f.str("zero"), f.u64("s"), f.str("absent")), (None, None, None));
        assert!(Fields::parse("{}").is_ok());
        for bad in [
            "",
            "{",
            "{\"a\":1,}",
            "{a:1}",
            "{\"a\":01}",
            "{\"a\":-1}",
            "{\"a\":+1}",
            "{\"a\":1.5}",
            "{\"a\":1e3}",
            "{\"a\":18446744073709551616}",
            "{\"a\":true}",
            "{\"a\":null}",
            "{\"a\":[1]}",
            "{\"a\":{}}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":\"\\udc00\"}",
            "{\"a\":\"\\x\"}",
            "{\"a\":\"raw\ttab\"}",
            "{\"a\":1} x",
            "{\"a\":1,\"b\":2,\"a\":3}",
        ] {
            assert!(Fields::parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(json_unescape("a\\tb\\ud800c\\q"), "a\tb\u{fffd}c\u{fffd}");
    }

    #[test]
    fn journal_round_trips_and_resumes() {
        let path = tmp("roundtrip");
        let d = digest("campaign-a");
        {
            let j = CampaignJournal::open(&path, d).unwrap();
            assert_eq!(j.resumed_points(), 0);
            j.record("histo/Baseline", 12_345);
            j.record("lbm/ReplayQueue", 678);
            assert_eq!(j.get("histo/Baseline"), Some(12_345));
        }
        let j = CampaignJournal::open(&path, d).unwrap();
        assert_eq!(j.resumed_points(), 2);
        assert_eq!(j.get("lbm/ReplayQueue"), Some(678));
        assert_eq!(j.get("missing"), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_digest_discards_the_journal() {
        let path = tmp("stale");
        {
            let j = CampaignJournal::open(&path, digest("old-grid")).unwrap();
            j.record("a", 1);
        }
        let j = CampaignJournal::open(&path, digest("new-grid")).unwrap();
        assert_eq!(j.resumed_points(), 0, "mismatched digest must be ignored");
        assert!(j.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn manifests_round_trip_through_a_directory() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("gex-manifests-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = CampaignManifest {
            id: "alice/fig10".to_string(),
            tenant: "alice".to_string(),
            digest: digest("alice/fig10|grid"),
            spec: "preset=Test sms=2 \"quoted\"\nsecond line".to_string(),
        };
        let b = CampaignManifest {
            id: "bob/fig13".to_string(),
            tenant: "bob".to_string(),
            digest: digest("bob/fig13|grid"),
            spec: "preset=Paper".to_string(),
        };
        b.save(&dir).unwrap();
        a.save(&dir).unwrap();
        // Foreign and torn files are skipped, not fatal.
        std::fs::write(dir.join("junk.manifest"), "not a manifest").unwrap();
        std::fs::write(dir.join("readme.txt"), "ignore me").unwrap();
        let listed = list_manifests(&dir);
        assert_eq!(listed, vec![a.clone(), b], "sorted by id, junk skipped");
        assert_eq!(CampaignManifest::load(&manifest_path(&dir, a.digest)), Some(a));
        assert_ne!(manifest_path(&dir, 1), journal_path(&dir, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_directory_is_an_empty_set() {
        let dir = std::env::temp_dir().join("gex-manifests-nonexistent-dir");
        assert!(list_manifests(&dir).is_empty());
    }

    #[test]
    fn corrupt_file_and_partial_tail_are_tolerated() {
        let path = tmp("corrupt");
        std::fs::write(&path, "not json at all\n").unwrap();
        let d = digest("grid");
        let j = CampaignJournal::open(&path, d).unwrap();
        assert_eq!(j.resumed_points(), 0);
        j.record("a", 1);
        drop(j);
        // Simulate a kill mid-write: a dangling partial line.
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("{\"key\":\"b\",\"cyc");
        std::fs::write(&path, content).unwrap();
        let j = CampaignJournal::open(&path, d).unwrap();
        assert_eq!(j.get("a"), Some(1), "complete entries before the tear survive");
        assert_eq!(j.get("b"), None, "the torn entry is skipped");
        let _ = std::fs::remove_file(&path);
    }
}
