//! `pata` — command-line front-end for the PATA analysis framework.
//!
//! ```text
//! pata analyze <file.c>... [analysis knobs] [--store PATH] [--json]
//!              [--stats] [--stats-json PATH] [--profile]
//! pata serve   [analysis knobs] [--store PATH] [--stats-json PATH]
//!              (--socket PATH | --stdio)
//! pata client  --socket PATH [--op analyze|ping|stats|shutdown]
//!              [--id ID] [<file.c>...]
//! pata corpus <linux|zephyr|riot|tencent> [--scale F] [--seed N] --out DIR
//! pata ir <file.c>...
//! pata fsm
//! ```
//!
//! * `analyze` — run PATA on mini-C source files and print reports.
//!   With `--store PATH` the run opens a persistent analysis session:
//!   previously computed per-root results and validation verdicts are
//!   loaded from the store, only roots affected by changed functions are
//!   re-explored, and the refreshed store is written back.
//! * `serve`   — keep one warm session resident and answer
//!   newline-delimited JSON requests, either on a unix socket (many
//!   concurrent clients share the cache) or on stdin/stdout.
//! * `client`  — submit one request to a running `pata serve` daemon and
//!   print its response line (non-zero exit if the daemon reports an
//!   error).
//! * `corpus`  — write a generated OS model (and its ground-truth manifest
//!   as JSON) to a directory, for external tooling.
//! * `ir`      — dump the lowered PIR of the given sources.
//! * `fsm`     — print every built-in checker's FSM (paper Table 2/7).
//!
//! Unknown flags (and flags that don't apply to the given command) are
//! rejected with a non-zero exit and the usage text.

use pata::core::json::JsonValue;
use pata::core::{
    AliasMode, AnalysisConfig, AnalysisRequest, AnalysisSession, BugKind, FaultPlan, ServeOptions,
    SessionOutcome,
};
use pata::corpus::{Corpus, OsProfile};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "analyze" => cmd_analyze(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "corpus" => cmd_corpus(rest),
        "ir" => cmd_ir(rest),
        "fsm" => cmd_fsm(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pata: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  pata analyze <file.c>... [analysis knobs] [--store PATH] [--json]
               [--stats] [--stats-json PATH] [--profile]
  pata serve   [analysis knobs] [--store PATH] [--stats-json PATH]
               (--socket PATH | --stdio)
  pata client  --socket PATH [--op analyze|ping|stats|shutdown] [--id ID]
               [<file.c>...]
  pata corpus <linux|zephyr|riot|tencent> [--scale F] [--seed N] --out DIR
  pata ir <file.c>...
  pata fsm

analysis knobs (analyze and serve):
  --checkers LIST         comma-separated checker set; any of
                          npd,uva,ml,dl,aiu,dbz,uaf (default npd,uva,ml)
  --na                    disable the path-based alias analysis (PATA-NA)
  --no-validate           skip stage-2 SMT path validation
  --no-validation-cache   disable the cross-root validation verdict cache
  --resolve-fptrs         resolve function-pointer calls to all candidates
  --loops N               loop unrolling bound (default 2)
  --threads N             worker threads for stage-1 exploration (0 = auto)

fault containment (analyze and serve):
  --root-deadline-ms N    per-root wall-clock deadline; a root that
                          exceeds it is demoted to a bounded re-run, and
                          quarantined if that trips again (0 = off)
  --max-live-bytes N      per-root live path-state ceiling in bytes,
                          checked at fork points (0 = off)
  --fault-plan SPEC       deterministic fault injection, e.g.
                          `explore:probe_a@1,store.save,seed=7`; see the
                          pata-core faultinject docs for the grammar

persistence:
  --store PATH            versioned on-disk store for warm restarts; loads
                          cached per-root results + validation verdicts,
                          re-analyzes only roots reachable from changed
                          functions, writes the refreshed store back

serve/client:
  --socket PATH           unix socket the daemon listens on / the client
                          connects to
  --stdio                 serve newline-delimited JSON on stdin/stdout
                          instead of a socket
  --op OP                 client request op: analyze (default when files
                          are given), ping, stats, or shutdown
  --id ID                 client request id echoed in the response
  --raw LINE              client: send LINE verbatim as the request frame
                          (for protocol testing; exit reflects `ok`)
  --max-request-bytes N   serve: longest accepted request line; longer
                          frames get an error response (default 8388608,
                          0 = unlimited)
  --request-timeout-ms N  serve (socket only): per-request reply deadline;
                          slower requests get a timeout error (0 = off)

output (analyze):
  --json                  print the versioned report document
  --stats                 print analysis counters to stderr
  --stats-json PATH       write the telemetry snapshot as JSON (for serve:
                          written when the daemon shuts down)
  --profile               print a telemetry profile table to stderr";

/// Flags shared by `analyze` and `serve`: `(name, takes_value)`.
const CONFIG_FLAGS: &[(&str, bool)] = &[
    ("checkers", true),
    ("na", false),
    ("no-validate", false),
    ("no-validation-cache", false),
    ("resolve-fptrs", false),
    ("loops", true),
    ("threads", true),
    ("root-deadline-ms", true),
    ("max-live-bytes", true),
    ("fault-plan", true),
];

const ANALYZE_FLAGS: &[(&str, bool)] = &[
    ("store", true),
    ("json", false),
    ("stats", false),
    ("stats-json", true),
    ("profile", false),
];

const SERVE_FLAGS: &[(&str, bool)] = &[
    ("store", true),
    ("socket", true),
    ("stdio", false),
    ("stats-json", true),
    ("max-request-bytes", true),
    ("request-timeout-ms", true),
];

const CLIENT_FLAGS: &[(&str, bool)] =
    &[("socket", true), ("op", true), ("id", true), ("raw", true)];

const CORPUS_FLAGS: &[(&str, bool)] = &[("scale", true), ("seed", true), ("out", true)];

/// Levenshtein edit distance — powers "did you mean" flag suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The closest known flag to a mistyped one, if it is close enough to be
/// a plausible typo (distance at most a third of the flag's length, and
/// never more than 3).
fn nearest_flag(name: &str, allowed: &[&[(&str, bool)]]) -> Option<String> {
    allowed
        .iter()
        .flat_map(|set| set.iter())
        .map(|&(n, _)| (edit_distance(name, n), n))
        .min()
        .filter(|&(d, n)| d <= 3.min(n.len().max(name.len()) / 3 + 1))
        .map(|(_, n)| n.to_owned())
}

/// Flags parsed from a command line: each name with its value, if it
/// takes one.
type Flags = Vec<(String, Option<String>)>;

/// Splits `args` into positional arguments and flags, rejecting any flag
/// not in the allowlists. An unknown flag is a hard error (non-zero exit)
/// naming the offending flag, with a nearest-match suggestion when one is
/// plausible.
fn split_args(
    args: &[String],
    allowed: &[&[(&str, bool)]],
) -> Result<(Vec<String>, Flags), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let Some(&(_, takes_value)) = allowed
                .iter()
                .flat_map(|set| set.iter())
                .find(|(n, _)| *n == name)
            else {
                let hint = nearest_flag(name, allowed)
                    .map(|n| format!(" (did you mean `--{n}`?)"))
                    .unwrap_or_default();
                return Err(format!("unknown flag `--{name}`{hint}\n{USAGE}"));
            };
            let value = if takes_value {
                Some(
                    it.next()
                        .ok_or_else(|| format!("--{name} expects a value"))?
                        .clone(),
                )
            } else {
                None
            };
            flags.push((name.to_owned(), value));
        } else if a.starts_with('-') && a.len() > 1 {
            return Err(format!("unknown flag `{a}`\n{USAGE}"));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &'a [(String, Option<String>)], name: &str) -> Option<&'a Option<String>> {
    flags.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

fn parse_checkers(spec: &str) -> Result<Vec<BugKind>, String> {
    spec.split(',')
        .map(|s| match s.trim().to_ascii_lowercase().as_str() {
            "npd" => Ok(BugKind::NullPointerDeref),
            "uva" => Ok(BugKind::UninitVarAccess),
            "ml" => Ok(BugKind::MemoryLeak),
            "dl" => Ok(BugKind::DoubleLock),
            "aiu" => Ok(BugKind::ArrayIndexUnderflow),
            "dbz" => Ok(BugKind::DivisionByZero),
            "uaf" => Ok(BugKind::UseAfterFree),
            "all" => Err("use --checkers npd,uva,ml,dl,aiu,dbz,uaf".to_owned()),
            other => Err(format!("unknown checker `{other}`")),
        })
        .collect()
}

/// Builds an [`AnalysisConfig`] from the shared analysis knobs.
fn build_config(
    flags: &[(String, Option<String>)],
    telemetry: bool,
) -> Result<AnalysisConfig, String> {
    let mut builder = AnalysisConfig::builder().telemetry(telemetry);
    if let Some(Some(spec)) = flag(flags, "checkers") {
        builder = builder.checkers(parse_checkers(spec)?);
    }
    if flag(flags, "na").is_some() {
        builder = builder.alias_mode(AliasMode::None);
    }
    if flag(flags, "no-validate").is_some() {
        builder = builder.validate_paths(false);
    }
    if flag(flags, "no-validation-cache").is_some() {
        builder = builder.validation_cache(false);
    }
    if flag(flags, "resolve-fptrs").is_some() {
        builder = builder.resolve_fptrs(true);
    }
    if let Some(Some(n)) = flag(flags, "loops") {
        builder =
            builder.loop_iterations(n.parse().map_err(|_| format!("bad --loops value `{n}`"))?);
    }
    if let Some(Some(n)) = flag(flags, "threads") {
        builder = builder.threads(
            n.parse()
                .map_err(|_| format!("bad --threads value `{n}`"))?,
        );
    }
    if let Some(Some(n)) = flag(flags, "root-deadline-ms") {
        builder = builder.root_deadline_ms(
            n.parse()
                .map_err(|_| format!("bad --root-deadline-ms value `{n}`"))?,
        );
    }
    if let Some(Some(n)) = flag(flags, "max-live-bytes") {
        builder = builder.max_live_bytes(
            n.parse()
                .map_err(|_| format!("bad --max-live-bytes value `{n}`"))?,
        );
    }
    if let Some(Some(spec)) = flag(flags, "fault-plan") {
        let plan = FaultPlan::parse(spec).map_err(|e| format!("bad --fault-plan: {e}"))?;
        builder = builder.fault_plan(Arc::new(plan));
    }
    builder
        .build()
        .map_err(|e| format!("bad configuration: {e}"))
}

/// Reads `files` into an [`AnalysisRequest`] (the session compiles them).
fn read_request(files: &[String]) -> Result<AnalysisRequest, String> {
    if files.is_empty() {
        return Err("no input files".to_owned());
    }
    let mut request = AnalysisRequest::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
        request = request.file(f.as_str(), text);
    }
    Ok(request)
}

fn open_session(
    flags: &[(String, Option<String>)],
    telemetry: bool,
) -> Result<AnalysisSession, String> {
    let config = build_config(flags, telemetry)?;
    Ok(match flag(flags, "store").cloned().flatten() {
        Some(path) => AnalysisSession::open(config, path),
        None => AnalysisSession::new(config),
    })
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let (files, flags) = split_args(args, &[CONFIG_FLAGS, ANALYZE_FLAGS])?;
    let stats_json = flag(&flags, "stats-json").cloned().flatten();
    let profile = flag(&flags, "profile").is_some();
    let mut session = open_session(&flags, stats_json.is_some() || profile)?;
    let request = read_request(&files)?;
    let SessionOutcome {
        report,
        stats,
        telemetry,
        incremental,
    } = session.analyze(&request).map_err(|e| e.to_string())?;

    if flag(&flags, "json").is_some() {
        println!("{}", report.to_json());
    } else {
        for r in &report.reports {
            println!("{r}");
        }
        if report.reports.is_empty() {
            println!("no bugs found");
        }
    }
    if flag(&flags, "stats").is_some() {
        let s = &stats;
        eprintln!(
            "roots: {}  paths: {}  insts: {}",
            s.roots, s.paths_explored, s.insts_processed
        );
        eprintln!(
            "typestates aware/unaware: {}/{}  constraints aware/unaware: {}/{}",
            s.typestates_aware, s.typestates_unaware, s.constraints_aware, s.constraints_unaware
        );
        eprintln!(
            "dropped repeated: {}  dropped false: {}  reported: {}  time: {:?}",
            s.repeated_bugs_dropped, s.false_bugs_dropped, s.reported, s.time
        );
        eprintln!(
            "validation cache hits/misses: {}/{}  scope reuse: {}  work steals: {}",
            s.validation_cache_hits,
            s.validation_cache_misses,
            s.validation_scope_reuse,
            s.work_steals
        );
        eprintln!(
            "roots dirty/clean: {}/{}  changed functions: {}  warm start: {}",
            incremental.dirty_roots,
            incremental.clean_roots,
            incremental.changed_functions,
            incremental.warm_start
        );
    }
    if let Some(path) = stats_json {
        std::fs::write(&path, telemetry.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if profile {
        eprint!("{}", telemetry.render_profile(10));
        for note in &report.budget_notes {
            eprintln!("budget exhausted: root {} ({})", note.root, note.reason);
        }
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_args(args, &[CONFIG_FLAGS, SERVE_FLAGS])?;
    if let Some(extra) = positional.first() {
        return Err(format!(
            "serve takes no positional arguments (got `{extra}`)"
        ));
    }
    let stats_json = flag(&flags, "stats-json").cloned().flatten();
    let socket = flag(&flags, "socket").cloned().flatten();
    let stdio = flag(&flags, "stdio").is_some();
    if socket.is_some() == stdio {
        return Err("serve needs exactly one of --socket PATH or --stdio".to_owned());
    }
    let mut options = ServeOptions::default();
    if let Some(Some(n)) = flag(&flags, "max-request-bytes") {
        options.max_request_bytes = n
            .parse()
            .map_err(|_| format!("bad --max-request-bytes value `{n}`"))?;
    }
    if let Some(Some(n)) = flag(&flags, "request-timeout-ms") {
        options.request_timeout_ms = n
            .parse()
            .map_err(|_| format!("bad --request-timeout-ms value `{n}`"))?;
    }
    let mut session = open_session(&flags, stats_json.is_some())?;

    let (snapshot, totals) = if stdio {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let totals =
            pata::core::serve_loop_with(&mut session, stdin.lock(), stdout.lock(), options)
                .map_err(|e| format!("serve: {e}"))?;
        (session.telemetry().snapshot(), totals)
    } else {
        #[cfg(unix)]
        {
            let socket = socket.expect("checked above");
            eprintln!("pata serve: listening on {socket}");
            let (session, totals) =
                pata::core::serve_unix_with(session, std::path::Path::new(&socket), options)
                    .map_err(|e| format!("serve: {e}"))?;
            (session.telemetry().snapshot(), totals)
        }
        #[cfg(not(unix))]
        {
            return Err("--socket requires a unix platform; use --stdio".to_owned());
        }
    };
    eprintln!(
        "pata serve: handled {} requests ({} analyzed, {} errors), {} dirty / {} clean roots",
        totals.requests, totals.analyzed, totals.errors, totals.dirty_roots, totals.clean_roots
    );
    if let Some(path) = stats_json {
        std::fs::write(&path, snapshot.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    let (files, flags) = split_args(args, &[CLIENT_FLAGS])?;
    let Some(Some(_socket)) = flag(&flags, "socket") else {
        return Err("--socket PATH is required".to_owned());
    };
    let op = flag(&flags, "op")
        .cloned()
        .flatten()
        .unwrap_or_else(|| if files.is_empty() { "ping" } else { "analyze" }.to_owned());
    let id = flag(&flags, "id")
        .cloned()
        .flatten()
        .unwrap_or_else(|| "0".to_owned());
    let id_json = if id.parse::<i64>().is_ok() {
        id
    } else {
        pata::core::json::quote(&id)
    };
    let line = if let Some(Some(raw)) = flag(&flags, "raw") {
        if !files.is_empty() || flag(&flags, "op").is_some() {
            return Err("--raw replaces the request; drop --op and input files".to_owned());
        }
        raw.clone()
    } else {
        match op.as_str() {
            "analyze" => {
                let request = read_request(&files)?;
                let mut parts = Vec::new();
                for f in request.files {
                    parts.push(format!(
                        "{{\"name\": {}, \"text\": {}}}",
                        pata::core::json::quote(&f.name),
                        pata::core::json::quote(&f.text)
                    ));
                }
                format!(
                    "{{\"id\": {id_json}, \"op\": \"analyze\", \"files\": [{}]}}",
                    parts.join(", ")
                )
            }
            "ping" | "stats" | "shutdown" => {
                if !files.is_empty() {
                    return Err(format!("--op {op} takes no input files"));
                }
                format!("{{\"id\": {id_json}, \"op\": \"{op}\"}}")
            }
            other => return Err(format!("unknown --op `{other}`")),
        }
    };
    #[cfg(unix)]
    {
        let socket = flag(&flags, "socket")
            .cloned()
            .flatten()
            .expect("checked above");
        let response = pata::core::client_request(std::path::Path::new(&socket), &line)
            .map_err(|e| format!("client: {e}"))?;
        println!("{response}");
        let ok = JsonValue::parse(&response)
            .ok()
            .and_then(|doc| doc.get("ok").and_then(JsonValue::as_bool))
            .unwrap_or(false);
        if ok {
            Ok(())
        } else {
            Err("daemon reported an error".to_owned())
        }
    }
    #[cfg(not(unix))]
    {
        let _ = line;
        Err("pata client requires a unix platform".to_owned())
    }
}

fn cmd_corpus(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_args(args, &[CORPUS_FLAGS])?;
    let which = positional.first().map(String::as_str).unwrap_or("zephyr");
    let mut profile = match which {
        "linux" => OsProfile::linux(),
        "zephyr" => OsProfile::zephyr(),
        "riot" => OsProfile::riot(),
        "tencent" => OsProfile::tencent(),
        other => return Err(format!("unknown OS model `{other}`")),
    };
    if let Some(Some(s)) = flag(&flags, "scale") {
        profile = profile.with_scale(s.parse().map_err(|_| format!("bad --scale `{s}`"))?);
    }
    if let Some(Some(s)) = flag(&flags, "seed") {
        profile = profile.with_seed(s.parse().map_err(|_| format!("bad --seed `{s}`"))?);
    }
    let Some(Some(out_dir)) = flag(&flags, "out") else {
        return Err("--out DIR is required".to_owned());
    };

    let corpus = Corpus::generate(&profile);
    let root = std::path::Path::new(out_dir);
    for file in &corpus.files {
        let path = root.join(&file.path);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
        std::fs::write(&path, &file.text).map_err(|e| e.to_string())?;
    }
    // Ground-truth manifest as JSON.
    let manifest_path = root.join("manifest.json");
    let mut f = std::fs::File::create(&manifest_path).map_err(|e| e.to_string())?;
    f.write_all(corpus.manifest.to_json().as_bytes())
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {} files ({} LOC), {} bugs, {} traps -> {}",
        corpus.files.len(),
        corpus.loc(),
        corpus.manifest.bugs.len(),
        corpus.manifest.traps.len(),
        out_dir
    );
    Ok(())
}

fn cmd_ir(args: &[String]) -> Result<(), String> {
    let (files, _) = split_args(args, &[])?;
    if files.is_empty() {
        return Err("no input files".to_owned());
    }
    let mut cc = pata::cc::Compiler::new();
    for f in &files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
        cc.add_source(f, &text);
    }
    let module = cc.compile().map_err(|diags| {
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    })?;
    print!("{}", pata_ir::print_module(&module));
    Ok(())
}

fn cmd_fsm(args: &[String]) -> Result<(), String> {
    let (positional, _) = split_args(args, &[])?;
    if let Some(extra) = positional.first() {
        return Err(format!("fsm takes no arguments (got `{extra}`)"));
    }
    for kind in BugKind::ALL {
        let checker = kind.instantiate();
        let fsm = checker.fsm();
        println!("{} ({})", kind.as_str(), kind.abbrev());
        println!("  states: {}", fsm.states.join(", "));
        println!("  events: {}", fsm.events.join(", "));
        println!("  bug state: {}", fsm.bug_state);
    }
    Ok(())
}
