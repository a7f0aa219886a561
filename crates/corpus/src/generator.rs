//! Corpus assembly: files, registration structs, manifest.
//!
//! Every generated file contains its own struct definitions, a mix of
//! template-instantiated functions (clean distractors, at most one real bug
//! and/or one trap, steered by the profile's densities and category bug
//! shares), and a *registration struct* whose designated initializers take
//! the addresses of the file's entry functions — turning them into module
//! interface functions with no explicit caller (paper Fig. 1 / D1).

use crate::manifest::{GroundTruth, Manifest};
use crate::profile::OsProfile;
use crate::rng::Prng;
use crate::templates::{self, Ctx, Template};
use pata_cc::Compiler;
use pata_ir::{Category, Module};

/// One generated source file.
#[derive(Debug, Clone)]
pub struct GeneratedFile {
    /// Path-like name (`drivers/gpu/dev_f12.c`).
    pub path: String,
    /// Mini-C source text.
    pub text: String,
    /// OS part.
    pub category: Category,
}

/// A generated corpus: files plus ground truth.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The profile used.
    pub profile: OsProfile,
    /// Generated source files.
    pub files: Vec<GeneratedFile>,
    /// Ground-truth manifest.
    pub manifest: Manifest,
}

impl Corpus {
    /// Generates the corpus for `profile` (deterministic per seed).
    pub fn generate(profile: &OsProfile) -> Corpus {
        let mut rng = Prng::seed_from_u64(profile.seed);
        let mut files = Vec::new();
        let mut manifest = Manifest::default();

        let main_bugs = templates::main_bug_templates();
        let extra_bugs = templates::extra_bug_templates();
        let traps = templates::trap_templates();
        let cleans = templates::clean_templates();

        let mut file_idx = 0usize;
        for (category, count) in profile.files_per_category() {
            // Scale injection probability by the category's bug share
            // relative to its file share (drivers get ~1.3×, core ~0.3×).
            let fs = profile.file_share(category).max(1e-6);
            let weight = profile.bug_share(category) / fs;
            let bug_p = (profile.bug_density * weight).min(0.95);
            let trap_p = (profile.trap_density * weight).min(0.8);
            for _ in 0..count {
                let ctx = Ctx::new(file_idx);
                let path = format!(
                    "{}/{}_{}.c",
                    OsProfile::dir_of(category),
                    module_noun(&mut rng),
                    ctx.suffix
                );
                let mut picks: Vec<(&'static str, Template, bool)> = Vec::new();
                if rng.gen_bool(bug_p) {
                    let &(name, t) = rng.choose(&main_bugs);
                    picks.push((name, t, false));
                }
                // Extra-checker bugs are sparser (Table 7 scale).
                if rng.gen_bool(bug_p * 0.25) {
                    let &(name, t) = rng.choose(&extra_bugs);
                    picks.push((name, t, false));
                }
                if rng.gen_bool(trap_p) {
                    // Weighted: the traps PATA itself reports (the paper's
                    // §5.2 FP sources) are drawn more often so the overall
                    // FP rate lands near the paper's 28%.
                    let weighted: Vec<&(&'static str, Template)> = traps
                        .iter()
                        .flat_map(|t| {
                            let w = match t.0 {
                                "trap_npd_extern_contract"
                                | "trap_npd_loop"
                                | "trap_uva_concurrent_init" => 3,
                                "trap_uva_array" => 2,
                                _ => 1,
                            };
                            std::iter::repeat_n(t, w)
                        })
                        .collect();
                    let &&(name, t) = rng.choose(&weighted);
                    picks.push((name, t, true));
                }
                let n_clean = rng.gen_range(2, profile.functions_per_file.max(3) + 1);
                for _ in 0..n_clean {
                    let &(name, t) = rng.choose(&cleans);
                    if picks.iter().any(|(n, _, _)| *n == name) {
                        continue; // avoid duplicate function names per file
                    }
                    picks.push((name, t, true /*unused for clean*/));
                }
                rng.shuffle(&mut picks);

                let (text, entries) = assemble_file(&ctx, &path, category, &picks);
                for e in entries {
                    if e.1 {
                        manifest.traps.push(e.0);
                    } else {
                        manifest.bugs.push(e.0);
                    }
                }
                files.push(GeneratedFile {
                    path,
                    text,
                    category,
                });
                file_idx += 1;
            }
        }
        Corpus {
            profile: profile.clone(),
            files,
            manifest,
        }
    }

    /// Compiles the corpus into one PIR module.
    ///
    /// # Errors
    ///
    /// Returns front-end diagnostics (should not happen for generated
    /// code — covered by tests).
    pub fn compile(&self) -> Result<Module, Vec<pata_cc::Diag>> {
        let mut cc = Compiler::new();
        for f in &self.files {
            cc.add_source_with_category(&f.path, &f.text, f.category);
        }
        cc.compile()
    }

    /// Total generated lines of code.
    pub fn loc(&self) -> u64 {
        self.files
            .iter()
            .map(|f| f.text.lines().count() as u64)
            .sum()
    }
}

fn module_noun(rng: &mut Prng) -> &'static str {
    const NOUNS: &[&str] = &[
        "mmc", "uart", "spi", "i2c", "dma", "gpio", "phy", "mac", "vfs", "inode", "sock", "queue",
        "timer", "sched", "irq", "pm", "clk", "regmap", "bridge", "codec", "sensor", "radio",
        "mesh", "coap", "mqtt", "shell", "flash", "pwm", "adc", "wdt",
    ];
    rng.choose::<&str>(NOUNS)
}

type Entry = (GroundTruth, bool);

fn assemble_file(
    ctx: &Ctx,
    path: &str,
    category: Category,
    picks: &[(&'static str, Template, bool)],
) -> (String, Vec<Entry>) {
    let mut lines: Vec<String> = Vec::new();
    lines.push(format!(
        "// Auto-generated module {} ({})",
        ctx.suffix, category
    ));
    lines.extend(templates::struct_defs(ctx));
    lines.push(String::new());

    let mut entries = Vec::new();
    let mut interfaces = Vec::new();
    let mut seen_names = std::collections::HashSet::new();
    let mut bug_counter = 0usize;
    for (name, template, _) in picks {
        if !seen_names.insert(*name) {
            continue;
        }
        let snippet = template(ctx);
        let base = lines.len();
        for mark in &snippet.marks {
            let truth = GroundTruth {
                id: format!("{}-{}-{}", ctx.suffix, name, bug_counter),
                file: path.to_owned(),
                function: mark.function.clone(),
                kind: mark.kind,
                // +1: manifest lines are 1-based like compiler lines.
                line: (base + mark.rel_line + 1) as u32,
                category,
                template: mark.template.to_owned(),
            };
            entries.push((truth, mark.trap));
            bug_counter += 1;
        }
        lines.extend(snippet.lines.iter().cloned());
        lines.push(String::new());
        interfaces.extend(snippet.interfaces);
    }

    // The registration struct: designated initializers taking the entry
    // functions' addresses. No function in this module calls them, so the
    // collector classifies them as module interface functions.
    if !interfaces.is_empty() {
        let fields: Vec<String> = interfaces
            .iter()
            .enumerate()
            .map(|(i, f)| format!(".op{i} = {f}"))
            .collect();
        lines.push(format!(
            "static struct ops_{} {}_driver = {{ {} }};",
            ctx.suffix,
            ctx.suffix,
            fields.join(", ")
        ));
    }
    (lines.join("\n"), entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_compiles() {
        let corpus = Corpus::generate(&OsProfile::zephyr().with_scale(0.25));
        assert!(corpus.files.len() >= 4);
        assert!(!corpus.manifest.bugs.is_empty());
        let module = corpus.compile().expect("corpus must compile");
        assert!(pata_ir::verify_module(&module).is_ok());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(&OsProfile::riot().with_scale(0.2));
        let b = Corpus::generate(&OsProfile::riot().with_scale(0.2));
        assert_eq!(a.files.len(), b.files.len());
        for (fa, fb) in a.files.iter().zip(&b.files) {
            assert_eq!(fa.text, fb.text);
        }
        assert_eq!(a.manifest.bugs.len(), b.manifest.bugs.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Corpus::generate(&OsProfile::riot().with_scale(0.2));
        let b = Corpus::generate(&OsProfile::riot().with_scale(0.2).with_seed(99));
        assert!(a.files.iter().zip(&b.files).any(|(x, y)| x.text != y.text));
    }

    #[test]
    fn manifest_lines_point_at_marked_source() {
        let corpus = Corpus::generate(&OsProfile::tencent().with_scale(0.4));
        for bug in &corpus.manifest.bugs {
            let file = corpus
                .files
                .iter()
                .find(|f| f.path == bug.file)
                .expect("file exists");
            let line = file.text.lines().nth(bug.line as usize - 1).unwrap_or("");
            assert!(
                !line.trim().is_empty(),
                "{}: line {} empty in {}",
                bug.id,
                bug.line,
                bug.file
            );
        }
    }

    #[test]
    fn linux_profile_bugs_concentrate_in_drivers() {
        let corpus = Corpus::generate(&OsProfile::linux().with_scale(0.4));
        let drivers = corpus
            .manifest
            .bugs
            .iter()
            .filter(|b| b.category == Category::Drivers)
            .count();
        let total = corpus.manifest.bugs.len().max(1);
        let share = drivers as f64 / total as f64;
        assert!(
            share > 0.55,
            "drivers should dominate Linux bugs (Fig. 11): got {share:.2} of {total}"
        );
    }

    #[test]
    fn interface_functions_registered() {
        let corpus = Corpus::generate(&OsProfile::zephyr().with_scale(0.25));
        let module = corpus.compile().unwrap();
        let mut module = module;
        let roots = pata_core::collector::mark_interfaces(&mut module);
        assert!(
            roots.len() >= corpus.files.len(),
            "every generated file contributes at least one analysis root"
        );
    }
}
