//! The seeded edit script of the `edit-serve` workload.
//!
//! Each step picks one file uniformly from the whole corpus and makes one
//! of two edits. Every pair of steps makes one of each, in seeded order, so
//! each run's mix is exactly half and half and its median does not swing
//! with the draw:
//!
//! * **literal** — an integer literal inside an existing function body
//!   gets a larger value. The file keeps its line count, so manifest line
//!   numbers stay valid, and exactly the enclosing function's IR changes.
//! * **append** — a new, bug-free interface function is appended to the
//!   file. Because lowering numbers values module-globally, every function
//!   in the files after it is renumbered: this is the edit whose dirty-root
//!   fan-out the benchmark exists to expose.
//!
//! Files are drawn from the whole corpus rather than only appended at the
//! end, because edits at the end would hide that fan-out. What an edit
//! costs depends on where its file sits (fan-out and the unchanged-prefix
//! fingerprint reuse both follow file order), so each kind walks the corpus
//! by a golden-ratio (Weyl) sequence from a seeded start: every file is
//! equally likely at every step, and even a short run covers the corpus
//! evenly instead of clustering by chance.

use pata_corpus::Prng;

/// Which edit a step made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// An integer literal inside a function body changed value.
    Literal,
    /// A new interface function was appended to the file.
    Append,
}

/// One applied edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// Index of the edited file.
    pub file: usize,
    /// What changed.
    pub kind: EditKind,
}

/// A deterministic edit generator: equal seeds give equal edit sequences
/// on equal sources.
#[derive(Debug, Clone)]
pub struct EditScript {
    rng: Prng,
    appended: usize,
    /// The kind of the second step of the current pair, once drawn.
    pending: Option<EditKind>,
    /// Per kind, the next position in `[0, 1)` of the Weyl sequence.
    position: [f64; 2],
}

/// The fractional part of the golden ratio: consecutive multiples spread
/// over `[0, 1)` more evenly than any other step.
const WEYL_STEP: f64 = 0.618_033_988_749_894_9;

impl EditScript {
    /// A script drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let position = [rng.next_f64(), rng.next_f64()];
        EditScript {
            rng,
            appended: 0,
            pending: None,
            position,
        }
    }

    /// Applies the next edit to one of `texts` and says which.
    ///
    /// A literal edit on a file whose function bodies hold no integer
    /// literal becomes an append, so every step changes some function.
    pub fn apply(&mut self, texts: &mut [String]) -> Edit {
        assert!(!texts.is_empty(), "edit script needs at least one file");
        let kind = self.pending.take().unwrap_or_else(|| {
            let (first, second) = if self.rng.gen_bool(0.5) {
                (EditKind::Literal, EditKind::Append)
            } else {
                (EditKind::Append, EditKind::Literal)
            };
            self.pending = Some(second);
            first
        });
        let at = &mut self.position[kind as usize];
        let file = ((*at * texts.len() as f64) as usize).min(texts.len() - 1);
        *at = (*at + WEYL_STEP).fract();
        let text = &mut texts[file];
        if kind == EditKind::Literal {
            let sites = body_literals(text);
            if !sites.is_empty() {
                let (start, end) = sites[self.rng.gen_range(0, sites.len())];
                let old: u64 = text[start..end].parse().expect("digits only");
                let new = old + 1 + self.rng.gen_range(0, 8) as u64;
                text.replace_range(start..end, &new.to_string());
                return Edit {
                    file,
                    kind: EditKind::Literal,
                };
            }
        }
        let k = self.rng.gen_range(1, 64);
        if !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(&format!(
            "\nint bench_edit_{n}(int n) {{\n    int v = n * {k};\n    if (v > {k}) {{\n        return v - {k};\n    }}\n    return 0;\n}}\n",
            n = self.appended
        ));
        self.appended += 1;
        Edit {
            file,
            kind: EditKind::Append,
        }
    }
}

/// Byte ranges of the decimal integer literals inside function bodies
/// whose value reaches the IR.
///
/// A function body starts after a top-level line that contains `(` and
/// ends with `{`, and runs until the braces balance again. Only literals
/// that are returned, assigned or compared count (`return -1`, `x = 4`,
/// `n > 16`): lowering drops some operands, such as allocation sizes
/// (`kmalloc(32)`) and array bounds (`int table[16]`), and an edit there
/// would change no function. Digits inside identifiers (`fold_f22`), string
/// literals and `//` comments are skipped, and so are literals that do not
/// fit `u64`.
pub fn body_literals(text: &str) -> Vec<(usize, usize)> {
    let mut sites = Vec::new();
    let mut depth = 0usize;
    let mut in_body = false;
    let mut offset = 0usize;
    for line in text.split_inclusive('\n') {
        let trimmed = line.trim_end();
        let header = depth == 0 && trimmed.contains('(') && trimmed.ends_with('{');
        if in_body {
            collect_literals(line, offset, &mut sites);
        }
        for b in code_bytes(line) {
            match b {
                b'{' => depth += 1,
                b'}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if header {
            in_body = depth > 0;
        } else if depth == 0 {
            in_body = false;
        }
        offset += line.len();
    }
    sites
}

/// The line's bytes outside string literals and `//` comments (each
/// skipped byte becomes a space, so indices are kept).
fn code_bytes(line: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if in_str {
            if b == b'\\' && i + 1 < bytes.len() {
                out.extend_from_slice(b"  ");
                i += 2;
                continue;
            }
            in_str = b != b'"';
            out.push(b' ');
        } else if b == b'"' {
            in_str = true;
            out.push(b' ');
        } else if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            out.resize(bytes.len(), b' ');
            break;
        } else {
            out.push(b);
        }
        i += 1;
    }
    out
}

fn collect_literals(line: &str, offset: usize, sites: &mut Vec<(usize, usize)>) {
    let code = code_bytes(line);
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut i = 0;
    while i < code.len() {
        if code[i].is_ascii_digit() && (i == 0 || !ident(code[i - 1])) {
            let start = i;
            while i < code.len() && code[i].is_ascii_digit() {
                i += 1;
            }
            let fits = line[start..i]
                .parse::<u64>()
                .is_ok_and(|v| v < u64::MAX / 2);
            if (i == code.len() || !ident(code[i])) && fits && reaches_ir(&code[..start]) {
                sites.push((offset + start, offset + i));
            }
        } else {
            i += 1;
        }
    }
}

/// Whether a literal after `before` is returned, assigned or compared.
fn reaches_ir(before: &[u8]) -> bool {
    let trimmed = |b: &[u8]| -> usize {
        b.iter()
            .rposition(|c| !c.is_ascii_whitespace())
            .map_or(0, |p| p + 1)
    };
    let mut end = trimmed(before);
    if end > 0 && before[end - 1] == b'-' {
        end = trimmed(&before[..end - 1]);
    }
    let prev = &before[..end];
    match prev.last() {
        Some(b'=' | b'<' | b'>') => true,
        _ => {
            prev.ends_with(b"return")
                && (prev.len() == 6
                    || !(prev[prev.len() - 7].is_ascii_alphanumeric()
                        || prev[prev.len() - 7] == b'_'))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pata_corpus::{Corpus, OsProfile};

    const FILE: &str = "// header 7\n\
        struct cfg_f3 { int count; int data2; };\n\
        static int fold_f3(struct cfg_f3 *d, int i) {\n\
        \x20   int table[16];\n\
        \x20   int *buf = kmalloc(32);\n\
        \x20   log_warn(\"late 9 probe\");\n\
        \x20   if (i >= 4) { return -12; }\n\
        \x20   table[2] = 7;\n\
        \x20   return d->data2 + i - 1; // 5\n\
        }\n\
        static struct ops_f3 f3_driver = { .op0 = fold_f3 };\n";

    #[test]
    fn only_returned_assigned_or_compared_literals() {
        let found: Vec<&str> = body_literals(FILE)
            .into_iter()
            .map(|(s, e)| &FILE[s..e])
            .collect();
        assert_eq!(found, ["4", "12", "7"]);
    }

    fn corpus_texts(seed: u64) -> Vec<String> {
        let corpus = Corpus::generate(&OsProfile::linux().with_scale(0.3).with_seed(seed));
        corpus.files.into_iter().map(|f| f.text).collect()
    }

    #[test]
    fn script_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut texts = corpus_texts(3);
            let mut script = EditScript::new(seed);
            let edits: Vec<Edit> = (0..40).map(|_| script.apply(&mut texts)).collect();
            (edits, texts)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn each_kind_covers_the_corpus_evenly() {
        let mut texts = vec![String::from("int f(int n) {\n    return 1;\n}\n"); 100];
        let mut script = EditScript::new(9);
        let mut quarters = [[0usize; 4]; 2];
        for _ in 0..80 {
            let edit = script.apply(&mut texts);
            quarters[edit.kind as usize][edit.file / 25] += 1;
        }
        for q in quarters {
            assert!(
                q.iter().all(|&n| (8..=12).contains(&n)),
                "uneven coverage {q:?}"
            );
        }
    }

    #[test]
    fn every_edit_compiles_and_changes_the_ir() {
        let ir = |text: &str| match pata_cc::compile_one("edited.c", text) {
            Ok(module) => pata_ir::print_module(&module),
            Err(diags) => panic!("edit does not compile: {diags:?}"),
        };
        let mut texts = corpus_texts(5);
        let mut script = EditScript::new(21);
        let mut kinds = [0usize; 2];
        for _ in 0..200 {
            let before = texts.clone();
            let edit = script.apply(&mut texts);
            kinds[edit.kind as usize] += 1;
            let (old, new) = (&before[edit.file], &texts[edit.file]);
            if ir(old) == ir(new) {
                let diff: Vec<(&str, &str)> = old
                    .lines()
                    .zip(new.lines())
                    .filter(|(a, b)| a != b)
                    .collect();
                panic!("edit {edit:?} left the IR unchanged: {diff:?}");
            }
            if edit.kind == EditKind::Literal {
                assert_eq!(old.lines().count(), new.lines().count());
            }
            for (i, (a, b)) in before.iter().zip(&texts).enumerate() {
                assert!(i == edit.file || a == b, "edit touched another file");
            }
        }
        assert!(kinds[0] >= 95 && kinds[0] <= 100, "kinds drawn {kinds:?}");
    }
}
