//! Hostile input on the wire: a seeded byte-mutation loop over valid
//! encodings of every message the campaign server reads or writes.
//!
//! Every line a socket can deliver reaches one of five parsers. For each
//! mutated line, each parser must return (never panic), and any value it
//! accepts must survive its own codec: `parse(encode(v)) == v`. The seed
//! corpus carries escapes, a control character and non-ASCII text, so
//! the mutations land on the escape handling as well as the framing, and
//! every corpus line must re-encode to its own bytes.
//!
//! The same mutator, on its own seed, feeds the campaign journal and
//! manifest readers from disk: they must never panic, a journal resumes
//! only what complete record lines say, and a manifest they accept saves
//! and loads back to itself.

use gex::journal::{self, CampaignJournal, CampaignManifest, Fields};
use gex::{PageSizePolicy, PartitionPolicy, Preset, Scheme};
use gex_prng::Prng;
use gex_serve::wire::{state, Inject};
use gex_serve::{CampaignSpec, Event, PointResult, Request, StatusReply};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 0x5eed_f022;
const MUTATIONS_PER_LINE: usize = 7_000;
const FILE_SEED: u64 = 0x5eed_f11e;
const FILE_MUTATIONS: usize = 3_000;

/// Characters that steer the hand-rolled JSON scanner.
const INTERESTING: &[u8] = b"\"\\{}:,u0123456789 \x01\xc3\xa9";

fn full_spec() -> CampaignSpec {
    CampaignSpec {
        preset: Preset::Test,
        sms: 4,
        weight: 3,
        workloads: vec!["histo".to_string(), "lb\"m\\".to_string(), "sgémm\u{1}".to_string()],
        schemes: vec![Scheme::Baseline, Scheme::WdLastCheck, Scheme::OperandLog { bytes: 8192 }],
        seed: Some(7),
        inject: Some(Inject::Deadline),
        partition: Some(PartitionPolicy::Quarantine),
        pagesize: Some(PageSizePolicy::Transparent),
    }
}

fn status(state: &str) -> StatusReply {
    StatusReply {
        id: "ali\"ce/c→1".to_string(),
        state: state.to_string(),
        points: 8,
        done: 3,
        quarantined: 1,
        cancelled: 2,
        resumed: 1,
    }
}

/// One valid encoding of every message type.
fn corpus() -> Vec<String> {
    let (t, c) = ("a\"b\\c".to_string(), "c\u{1}é".to_string());
    let mut minimal = CampaignSpec::new(Preset::Bench, 1, vec!["lbm".to_string()], vec![]);
    minimal.schemes.push(Scheme::ReplayQueue);
    let mut lines: Vec<String> = [
        Request::Submit { tenant: t.clone(), campaign: c.clone(), spec: full_spec() },
        Request::Status { tenant: t.clone(), campaign: c.clone() },
        Request::Results { tenant: t.clone(), campaign: c.clone() },
        Request::Watch { tenant: t.clone(), campaign: c.clone() },
        Request::Cancel { tenant: t, campaign: c },
        Request::Ping,
        Request::Shutdown,
    ]
    .iter()
    .map(Request::encode)
    .collect();
    lines.push(full_spec().encode());
    lines.push(minimal.encode());
    // A state holding a quote pins that `state` is escaped on the way out.
    lines.push(status(state::RUNNING).encode());
    lines.push(status("done\",").encode());
    lines.extend(
        [
            PointResult::Done { key: "histo/Baseline".to_string(), cycles: 42 },
            PointResult::Quarantined {
                key: "lbm/WdCommit".to_string(),
                kind: "panic".to_string(),
                error: "injected \"panic\"\u{1} ✗".to_string(),
            },
            PointResult::Cancelled { key: "k\\".to_string() },
            PointResult::Pending { key: "ké".to_string() },
        ]
        .iter()
        .map(PointResult::encode),
    );
    lines.extend(
        [
            Event::Point { key: "histo/Baseline".to_string(), cycles: u64::MAX },
            Event::Quarantine {
                key: "k".to_string(),
                kind: "deadline".to_string(),
                error: "budget \"cycles\"\\".to_string(),
            },
            Event::State { state: state::DONE.to_string() },
            Event::State { state: "done\",".to_string() },
        ]
        .iter()
        .map(Event::encode),
    );
    lines
}

/// Apply one to four random byte edits: overwrite, insert, delete,
/// duplicate a span, or splice in a span of another corpus line.
fn mutate(rng: &mut Prng, line: &[u8], corpus: &[String]) -> Vec<u8> {
    let mut b = line.to_vec();
    for _ in 0..rng.gen_range(1..=4usize) {
        let pos = rng.gen_range(0..=b.len());
        let byte = if rng.gen_bool(0.5) {
            INTERESTING[rng.gen_range(0..INTERESTING.len())]
        } else {
            rng.gen::<u8>()
        };
        match rng.gen_range(0..5u32) {
            0 if pos < b.len() => b[pos] = byte,
            1 => b.insert(pos, byte),
            2 if pos < b.len() => {
                let end = rng.gen_range(pos..=b.len().min(pos + 8));
                b.drain(pos..end);
            }
            3 if pos < b.len() => {
                let end = rng.gen_range(pos..=b.len().min(pos + 16));
                let span = b[pos..end].to_vec();
                b.splice(pos..pos, span);
            }
            _ => {
                let other = corpus[rng.gen_range(0..corpus.len())].as_bytes();
                let from = rng.gen_range(0..other.len());
                let to = rng.gen_range(from..=other.len().min(from + 24));
                b.splice(pos..pos, other[from..to].iter().copied());
            }
        }
    }
    b
}

/// Run every parser on `line`; return the re-encoding of each value
/// accepted. Panics (with the line) when a parser panics or an accepted
/// value does not round trip through its own encoding.
fn check(line: &str) -> Vec<String> {
    fn leg<T: PartialEq + std::fmt::Debug>(
        line: &str,
        what: &str,
        parse: impl Fn(&str) -> Result<T, String>,
        encode: impl Fn(&T) -> String,
    ) -> Option<String> {
        let parsed = catch_unwind(AssertUnwindSafe(|| parse(line)))
            .unwrap_or_else(|_| panic!("{what}::parse panicked on {line:?}"));
        let v = parsed.ok()?;
        let again = encode(&v);
        assert_eq!(parse(&again).as_ref(), Ok(&v), "{what} from {line:?} re-encoded as {again:?}");
        Some(again)
    }
    [
        leg(line, "Request", Request::parse, Request::encode),
        leg(line, "CampaignSpec", CampaignSpec::parse, CampaignSpec::encode),
        leg(line, "StatusReply", StatusReply::parse, StatusReply::encode),
        leg(line, "PointResult", PointResult::parse, PointResult::encode),
        leg(line, "Event", Event::parse, Event::encode),
    ]
    .into_iter()
    .flatten()
    .collect()
}

#[test]
fn every_corpus_line_re_encodes_to_itself() {
    for line in corpus() {
        assert!(check(&line).contains(&line), "no parser reproduces {line:?}");
    }
}

#[test]
fn mutated_lines_never_panic_and_accepted_ones_round_trip() {
    let corpus = corpus();
    let mut rng = Prng::seed_from_u64(SEED);
    let (mut tried, mut accepted) = (0usize, 0usize);
    for line in &corpus {
        for _ in 0..MUTATIONS_PER_LINE {
            let bytes = mutate(&mut rng, line.as_bytes(), &corpus);
            accepted += check(&String::from_utf8_lossy(&bytes)).len();
            tried += 1;
        }
    }
    // The mutations must stay close enough to the grammar to reach the
    // accepting paths, or the round-trip half checks nothing.
    assert!(accepted * 10 > tried, "only {accepted} of {tried} mutated lines parsed");
}

#[test]
fn mutated_journals_and_manifests_never_panic_and_resume_only_complete_records() {
    let dir = std::env::temp_dir().join(format!("gex-journal-fuzz-{}", std::process::id()));
    let (files, saved) = (dir.join("files"), dir.join("saved"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&files).unwrap();
    let digest = journal::digest("ali\"ce/c→1|grid");
    let path = journal::journal_path(&files, digest);
    {
        let j = CampaignJournal::open(&path, digest).unwrap();
        j.record("histo/Baseline", 1_234_567);
        j.record("lb\"m\\/OperandLog { bytes: 8192 }", u64::MAX);
        j.record("sgémm\u{1}/WdCommit", 0);
    }
    let manifest = CampaignManifest {
        id: "ali\"ce/c→1".to_string(),
        tenant: "ali\"ce".to_string(),
        digest,
        spec: full_spec().encode(),
    };
    let journal_lines: Vec<String> =
        std::fs::read_to_string(&path).unwrap().lines().map(str::to_string).collect();
    let mut corpus = journal_lines.clone();
    corpus.extend(
        std::fs::read_to_string(manifest.save(&saved).unwrap())
            .unwrap()
            .lines()
            .map(str::to_string),
    );
    // A quarantine sidecar line.
    corpus.push(
        PointResult::Quarantined {
            key: "lbm/WdCommit".to_string(),
            kind: "panic".to_string(),
            error: "injected \"panic\"\u{1} ✗".to_string(),
        }
        .encode(),
    );

    let manifest_file = files.join("fuzzed.manifest");
    let mut rng = Prng::seed_from_u64(FILE_SEED);
    for _ in 0..FILE_MUTATIONS {
        let k = rng.gen_range(0..corpus.len());
        let line =
            String::from_utf8_lossy(&mutate(&mut rng, corpus[k].as_bytes(), &corpus)).into_owned();

        // The mutated line in its slot of the journal (or appended as one
        // more record), with or without the final newline.
        let mut lines = journal_lines.clone();
        match lines.get_mut(k) {
            Some(slot) => *slot = line.clone(),
            None => lines.push(line.clone()),
        }
        let mut text = lines.join("\n");
        if rng.gen_bool(0.5) {
            text.push('\n');
        }
        std::fs::write(&path, &text).unwrap();
        let j = catch_unwind(|| CampaignJournal::open(&path, digest))
            .unwrap_or_else(|_| panic!("CampaignJournal::open panicked on {text:?}"))
            .expect("a readable journal opens");
        let complete = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
        for (key, cycles) in j.entries() {
            assert!(
                complete.lines().skip(1).any(|l| Fields::parse(l)
                    .is_ok_and(|f| f.str("key") == Some(&key) && f.u64("cycles") == Some(cycles))),
                "{key:?} = {cycles} resumed from no complete record of {text:?}"
            );
        }
        drop(j);
        assert!(
            std::fs::read_to_string(&path).unwrap().ends_with('\n'),
            "after open, the next record starts on a line of its own: {text:?}"
        );

        std::fs::write(&manifest_file, format!("{line}\n")).unwrap();
        let loaded = catch_unwind(|| CampaignManifest::load(&manifest_file))
            .unwrap_or_else(|_| panic!("CampaignManifest::load panicked on {line:?}"));
        let listed = catch_unwind(|| journal::list_manifests(&files))
            .unwrap_or_else(|_| panic!("list_manifests panicked on {line:?}"));
        assert_eq!(listed, loaded.clone().into_iter().collect::<Vec<_>>(), "{line:?}");
        if let Some(m) = loaded {
            let again = CampaignManifest::load(&m.save(&saved).unwrap());
            assert_eq!(again.as_ref(), Some(&m), "{line:?} did not save and load back");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
