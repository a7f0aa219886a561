//! End-to-end tests for the on-disk analysis store: warm restarts replay
//! cached roots byte-identically, and every corruption or version skew
//! falls back to a clean cold start — never an error, never a wrong
//! report.

use pata_core::{
    AnalysisConfig, AnalysisRequest, AnalysisSession, SessionOutcome, STORE_SCHEMA_VERSION,
};
use std::path::PathBuf;

const CORPUS: &[(&str, &str)] = &[
    (
        "drivers/net.c",
        r#"
        struct dev { int *res; int len; };
        int net_probe(struct dev *d) {
            if (d->res == NULL) { }
            return *d->res;
        }
        "#,
    ),
    (
        "drivers/block.c",
        r#"
        int blk_probe(int n) {
            int *m = malloc(n);
            if (m == NULL) { return -1; }
            if (n < 0) { return -2; }
            free(m);
            return 0;
        }
        "#,
    ),
    (
        "drivers/char.c",
        r#"
        int chr_helper(int *p) {
            if (p == NULL) { return 0; }
            return *p;
        }
        int chr_probe(int *p) {
            int x = chr_helper(p);
            return x + *p;
        }
        "#,
    ),
];

fn tempdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pata-persist-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn request(files: &[(&str, &str)]) -> AnalysisRequest {
    let mut r = AnalysisRequest::new();
    for (name, text) in files {
        r = r.file(*name, *text);
    }
    r
}

fn config(threads: usize) -> AnalysisConfig {
    AnalysisConfig {
        threads,
        ..AnalysisConfig::default()
    }
}

fn run(store: &std::path::Path, threads: usize, files: &[(&str, &str)]) -> SessionOutcome {
    AnalysisSession::open(config(threads), store)
        .analyze(&request(files))
        .unwrap()
}

#[test]
fn warm_restart_replays_byte_identical_report() {
    let dir = tempdir("roundtrip");
    let store = dir.join("store.json");
    let cold = run(&store, 1, CORPUS);
    assert!(!cold.incremental.warm_start);
    assert_eq!(cold.incremental.clean_roots, 0);
    assert!(store.exists(), "store written after analyze");

    // A brand-new process (session) loads the store and replays everything.
    let warm = run(&store, 1, CORPUS);
    assert!(warm.incremental.warm_start);
    assert_eq!(warm.incremental.dirty_roots, 0);
    assert_eq!(warm.incremental.clean_roots, warm.incremental.roots);
    assert_eq!(warm.report.to_json(), cold.report.to_json());
    // Replayed roots do no exploration work.
    assert_eq!(warm.stats.paths_explored, cold.stats.paths_explored);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_is_byte_stable_across_identical_runs() {
    let dir = tempdir("stable");
    let store = dir.join("store.json");
    run(&store, 1, CORPUS);
    let first = std::fs::read_to_string(&store).unwrap();
    run(&store, 1, CORPUS);
    let second = std::fs::read_to_string(&store).unwrap();
    assert_eq!(first, second, "idempotent runs rewrite identical bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn editing_one_function_dirties_only_its_root() {
    let dir = tempdir("incremental");
    let store = dir.join("store.json");
    run(&store, 1, CORPUS);

    // Append a new file with one new root; existing files untouched, so
    // their functions keep their fingerprints.
    let mut grown: Vec<(&str, &str)> = CORPUS.to_vec();
    grown.push((
        "drivers/tty.c",
        "int tty_probe(int *q) { if (q == NULL) { } return *q; }",
    ));
    let out = run(&store, 1, &grown);
    assert!(out.incremental.warm_start);
    assert_eq!(out.incremental.roots, 4);
    assert_eq!(out.incremental.dirty_roots, 1);
    assert_eq!(out.incremental.clean_roots, 3);
    assert_eq!(out.incremental.changed_functions, 1);

    // The incremental report equals a from-scratch analysis of the same
    // sources.
    let scratch_dir = tempdir("incremental-scratch");
    let scratch = run(&scratch_dir.join("store.json"), 1, &grown);
    assert_eq!(out.report.to_json(), scratch.report.to_json());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch_dir);
}

#[test]
fn corrupted_store_is_a_clean_cold_start() {
    let dir = tempdir("corrupt");
    let store = dir.join("store.json");
    let cold = run(&store, 1, CORPUS);

    for garbage in [
        "not json at all",
        "{\"schema_version\": 1", // truncated document
        "{}",                     // missing fields
        "{\"schema_version\": 1, \"roots\": \"what\"}",
    ] {
        std::fs::write(&store, garbage).unwrap();
        let out = run(&store, 1, CORPUS);
        assert!(!out.incremental.warm_start, "garbage store must be ignored");
        assert_eq!(out.report.to_json(), cold.report.to_json());
        // The bad store was replaced by a fresh valid one.
        let rewritten = std::fs::read_to_string(&store).unwrap();
        assert!(rewritten.contains("\"schema_version\""));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_store_is_a_clean_cold_start() {
    let dir = tempdir("truncate");
    let store = dir.join("store.json");
    let cold = run(&store, 1, CORPUS);
    let full = std::fs::read_to_string(&store).unwrap();
    // Cut the document at several points, including mid-escape territory.
    for frac in [1, 3, 7] {
        let cut = full.len() * frac / 8;
        std::fs::write(&store, &full[..cut]).unwrap();
        let out = run(&store, 1, CORPUS);
        assert!(!out.incremental.warm_start, "truncated at {cut} bytes");
        assert_eq!(out.report.to_json(), cold.report.to_json());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schema_version_mismatch_invalidates_cleanly() {
    let dir = tempdir("schema");
    let store = dir.join("store.json");
    let cold = run(&store, 1, CORPUS);
    let text = std::fs::read_to_string(&store).unwrap();
    let old = format!("\"schema_version\": {STORE_SCHEMA_VERSION}");
    assert!(text.contains(&old), "store carries its schema version");
    std::fs::write(
        &store,
        text.replace(
            &old,
            &format!("\"schema_version\": {}", STORE_SCHEMA_VERSION + 1),
        ),
    )
    .unwrap();
    let out = run(&store, 1, CORPUS);
    assert!(!out.incremental.warm_start, "future schema must not load");
    assert_eq!(out.report.to_json(), cold.report.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_change_invalidates_the_store() {
    let dir = tempdir("config");
    let store = dir.join("store.json");
    run(&store, 1, CORPUS);
    // A verdict-neutral change (thread count) replays the store fine.
    let out = run(&store, 4, CORPUS);
    assert!(out.incremental.warm_start);
    // A verdict-relevant config change (different checker set) must not
    // replay it.
    let changed = AnalysisConfig {
        threads: 1,
        checkers: vec![pata_core::BugKind::MemoryLeak],
        ..AnalysisConfig::default()
    };
    let out = AnalysisSession::open(changed, &store)
        .analyze(&request(CORPUS))
        .unwrap();
    assert!(!out.incremental.warm_start);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reports_identical_across_thread_counts_cold_warm_and_served() {
    let base_dir = tempdir("threads-base");
    let baseline = run(&base_dir.join("store.json"), 1, CORPUS);
    let expected = baseline.report.to_json();

    for threads in [1, 2, 4] {
        let dir = tempdir(&format!("threads-{threads}"));
        let store = dir.join("store.json");
        let cold = run(&store, threads, CORPUS);
        assert_eq!(cold.report.to_json(), expected, "cold, {threads} threads");
        let warm = run(&store, threads, CORPUS);
        assert_eq!(warm.report.to_json(), expected, "warm, {threads} threads");
        assert_eq!(warm.incremental.dirty_roots, 0);

        // Served through the NDJSON loop (what the daemon runs), same
        // store, the embedded report must be the same document.
        let mut session = AnalysisSession::open(config(threads), &store);
        let files = CORPUS
            .iter()
            .map(|(name, text)| {
                format!(
                    "{{\"name\": {}, \"text\": {}}}",
                    pata_core::json::quote(name),
                    pata_core::json::quote(text)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let input = format!("{{\"id\": 1, \"op\": \"analyze\", \"files\": [{files}]}}\n");
        let mut out = Vec::new();
        pata_core::serve_loop(&mut session, input.as_bytes(), &mut out).unwrap();
        let line = String::from_utf8(out).unwrap();
        let doc = pata_core::json::JsonValue::parse(line.trim()).unwrap();
        // The daemon embeds the canonical report document verbatim, so the
        // exact bytes of the cold report must appear in the response.
        let report_start = line.find("\"report\": ").unwrap() + "\"report\": ".len();
        assert!(
            line[report_start..].starts_with(&expected),
            "served, {threads} threads"
        );
        assert_eq!(
            doc.get("serve")
                .and_then(|s| s.get("dirty_roots"))
                .and_then(|v| v.as_u64()),
            Some(0),
            "served warm, {threads} threads"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base_dir);
}

#[test]
fn validation_verdicts_survive_restart() {
    let dir = tempdir("verdicts");
    let store = dir.join("store.json");
    run(&store, 1, CORPUS);
    let text = std::fs::read_to_string(&store).unwrap();
    assert!(
        text.contains("\"validation\""),
        "store persists the validation cache"
    );
    // A warm session that re-validates (dirty root sharing constraints)
    // starts with the imported verdicts.
    let session = AnalysisSession::open(config(1), &store);
    assert!(
        !session.validation_cache().export().is_empty(),
        "verdicts imported on open"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------------------------
// Warm equals cold over seeded edit scripts
// --------------------------------------------------------------------

/// One function of the edit-script corpus: `int name(int *p, int n)`,
/// whose body shape is picked by `variant` and which calls each of
/// `callees` under an `n > 0` guard.
#[derive(Clone, Debug)]
struct Func {
    name: String,
    variant: usize,
    callees: Vec<String>,
}

impl Func {
    fn new(name: &str, variant: usize, callees: &[&str]) -> Func {
        Func {
            name: name.to_owned(),
            variant,
            callees: callees.iter().map(|c| (*c).to_owned()).collect(),
        }
    }

    fn text(&self) -> String {
        let body = match self.variant % 4 {
            // Null check then an unconditional dereference: a NPD report.
            0 => "if (p == NULL) { } x = *p;",
            1 => "if (p == NULL) { return 0; } x = *p;",
            // An early return past an allocation: a leak report.
            2 => "int *m = malloc(n); if (m == NULL) { return -1; } if (n < 0) { return -2; } free(m);",
            _ => "x = n + 1;",
        };
        let mut text = format!(
            "int {}(int *p, int n) {{\n    int x = 0;\n    {body}\n",
            self.name
        );
        for c in &self.callees {
            text.push_str(&format!("    if (n > 0) {{ x = x + {c}(p, n - 1); }}\n"));
        }
        text.push_str("    return x;\n}\n");
        text
    }
}

/// The edit-script corpus: three files of functions. It starts with a
/// mutually recursive pair under a root and a leaf three calls below its
/// root, so edits reach functions inside a call-graph cycle and deep in a
/// closure.
fn edit_script_corpus() -> Vec<Vec<Func>> {
    vec![
        vec![
            Func::new("rec_top", 3, &["rec_even"]),
            Func::new("rec_even", 1, &["rec_odd"]),
            Func::new("rec_odd", 3, &["rec_even", "shared"]),
        ],
        vec![
            Func::new("deep_top", 3, &["deep_mid1"]),
            Func::new("deep_mid1", 3, &["deep_mid2"]),
            Func::new("deep_mid2", 1, &["deep_leaf"]),
            Func::new("deep_leaf", 1, &[]),
        ],
        vec![
            Func::new("shared", 3, &[]),
            Func::new("solo", 2, &[]),
            Func::new("user", 0, &["shared"]),
        ],
    ]
}

const EDIT_FILES: [&str; 3] = ["drivers/rec.c", "drivers/deep.c", "drivers/misc.c"];

/// The functions the script never removes: the recursive pair, the deep
/// chain and their roots.
const FIXED: [&str; 7] = [
    "rec_top",
    "rec_even",
    "rec_odd",
    "deep_top",
    "deep_mid1",
    "deep_mid2",
    "deep_leaf",
];

fn render(files: &[Vec<Func>]) -> Vec<(String, String)> {
    EDIT_FILES
        .iter()
        .zip(files)
        .map(|(name, funcs)| {
            let text: String = funcs.iter().map(Func::text).collect();
            ((*name).to_owned(), text)
        })
        .collect()
}

fn find<'a>(files: &'a mut [Vec<Func>], name: &str) -> &'a mut Func {
    files
        .iter_mut()
        .flatten()
        .find(|f| f.name == name)
        .expect("function exists")
}

/// Applies one seeded edit and returns a description of it. Every fourth
/// step edits a member of the recursive pair and every fourth step (offset
/// by one) the deep leaf; the rest add, remove or modify a random function,
/// including its call edges.
fn edit(
    files: &mut [Vec<Func>],
    rng: &mut pata_corpus::Prng,
    step: usize,
    fresh: &mut usize,
) -> String {
    let names: Vec<String> = files.iter().flatten().map(|f| f.name.clone()).collect();
    match step % 4 {
        0 => {
            let name = if rng.gen_range(0, 2) == 0 {
                "rec_even"
            } else {
                "rec_odd"
            };
            let f = find(files, name);
            f.variant = (f.variant + 1 + rng.gen_range(0, 3)) % 4;
            format!("modify {name} -> variant {}", f.variant)
        }
        1 => {
            let f = find(files, "deep_leaf");
            f.variant = (f.variant + 1 + rng.gen_range(0, 3)) % 4;
            format!("modify deep_leaf -> variant {}", f.variant)
        }
        _ => match rng.gen_range(0, 4) {
            0 => {
                let name = format!("gen{fresh}");
                *fresh += 1;
                let mut callees = Vec::new();
                for _ in 0..rng.gen_range(0, 3) {
                    callees.push(rng.choose(&names).clone());
                }
                let func = Func {
                    name: name.clone(),
                    variant: rng.gen_range(0, 4),
                    callees,
                };
                let file = rng.gen_range(0, files.len());
                let at = rng.gen_range(0, files[file].len() + 1);
                files[file].insert(at, func);
                format!("add {name} to file {file}")
            }
            1 => {
                let removable: Vec<&String> = names
                    .iter()
                    .filter(|n| !FIXED.contains(&n.as_str()))
                    .collect();
                if removable.is_empty() {
                    return "remove: nothing removable".to_owned();
                }
                let name = (*rng.choose(&removable)).clone();
                for funcs in files.iter_mut() {
                    funcs.retain(|f| f.name != name);
                }
                format!("remove {name}")
            }
            2 => {
                let name = rng.choose(&names).clone();
                let callee = rng.choose(&names).clone();
                let f = find(files, &name);
                if let Some(i) = f.callees.iter().position(|c| *c == callee) {
                    f.callees.remove(i);
                    format!("drop call {name} -> {callee}")
                } else {
                    f.callees.push(callee.clone());
                    format!("add call {name} -> {callee}")
                }
            }
            _ => {
                let name = rng.choose(&names).clone();
                let f = find(files, &name);
                f.variant = (f.variant + 1 + rng.gen_range(0, 3)) % 4;
                format!("modify {name} -> variant {}", f.variant)
            }
        },
    }
}

/// ROADMAP item 4: after every step of a seeded add/remove/modify script,
/// the long-lived in-memory session, a session restarted from the on-disk
/// store and a fresh cold session all return the same report, at 1 and 2
/// threads.
#[test]
fn warm_equals_cold_over_seeded_edit_scripts() {
    const STEPS: usize = 24;
    for seed in [0x5eed_0001u64, 0x5eed_0002] {
        let dir = tempdir(&format!("edit-script-{seed:x}"));
        let mut rng = pata_corpus::Prng::seed_from_u64(seed);
        let mut files = edit_script_corpus();
        let mut fresh = 0;
        let mut live: Vec<AnalysisSession> = [1, 2]
            .iter()
            .map(|&t| AnalysisSession::new(config(t)))
            .collect();
        let mut clean_roots = 0;
        for step in 0..=STEPS {
            let what = if step == 0 {
                "initial corpus".to_owned()
            } else {
                edit(&mut files, &mut rng, step, &mut fresh)
            };
            let sources = render(&files);
            let borrowed: Vec<(&str, &str)> = sources
                .iter()
                .map(|(n, t)| (n.as_str(), t.as_str()))
                .collect();
            let req = request(&borrowed);
            let cold = AnalysisSession::new(config(1)).analyze(&req).unwrap();
            let expected = cold.report.to_json();
            for (i, threads) in [1usize, 2].into_iter().enumerate() {
                let ctx = format!("seed {seed:x} step {step} ({what}), {threads} threads");
                let warm = live[i].analyze(&req).unwrap();
                assert_eq!(warm.report.to_json(), expected, "in-memory warm, {ctx}");
                clean_roots += warm.incremental.clean_roots;
                let store = dir.join(format!("store-{threads}.json"));
                let restarted = run(&store, threads, &borrowed);
                assert_eq!(restarted.report.to_json(), expected, "restarted, {ctx}");
                if threads > 1 {
                    let cold_t = AnalysisSession::new(config(threads)).analyze(&req).unwrap();
                    assert_eq!(cold_t.report.to_json(), expected, "cold, {ctx}");
                }
            }
        }
        assert!(clean_roots > 0, "the script must exercise warm reuse");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
