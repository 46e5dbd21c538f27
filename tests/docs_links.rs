//! Documentation hygiene: every internal markdown link in README.md and
//! docs/*.md must resolve to a file in the repository, every repository
//! path those files quote in a code span must exist, and every
//! `symbol` — `path.rs` pointer of docs/PAPER_MAP.md must name an item
//! that file defines, every `--bin NAME` / `--example NAME` those
//! files (and the verify skill's build notes) quote must name a target
//! that exists, and the `### RMLxxx — … (severity)` headings of
//! docs/DIAGNOSTICS.md must match `DiagCode::all()` one to one. CI's docs job runs this alongside the rustdoc build, so
//! a renamed doc, a moved item, a deleted binary or a stale path fails
//! the push that broke it.

use std::fs;
use std::path::{Path, PathBuf};

/// Extracts `[text](target)` link targets from markdown, skipping
/// fenced code blocks and inline code spans.
fn link_targets(md: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut fenced = false;
    for line in md.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        // Strip inline code spans so `[i](x)` inside backticks is text.
        let mut clean = String::with_capacity(line.len());
        let mut in_code = false;
        for ch in line.chars() {
            if ch == '`' {
                in_code = !in_code;
            } else if !in_code {
                clean.push(ch);
            }
        }
        let bytes = clean.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'[' {
                if let Some(close) = clean[i..].find("](") {
                    let start = i + close + 2;
                    if let Some(end) = clean[start..].find(')') {
                        out.push(clean[start..start + end].to_string());
                        i = start + end + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
    out
}

fn check_file(repo: &Path, md_path: &Path, broken: &mut Vec<String>) {
    let text = fs::read_to_string(md_path).unwrap_or_else(|e| panic!("read {md_path:?}: {e}"));
    for target in link_targets(&text) {
        if target.starts_with("http://")
            || target.starts_with("https://")
            || target.starts_with("mailto:")
        {
            continue;
        }
        // GitHub-relative links that climb out of the repository (the
        // CI badge) resolve server-side, not in the checkout.
        if target.starts_with("../../") {
            continue;
        }
        // Fragment-only links point within the same document.
        let path_part = target.split('#').next().unwrap_or("");
        if path_part.is_empty() {
            continue;
        }
        let resolved = if let Some(rooted) = path_part.strip_prefix('/') {
            repo.join(rooted)
        } else {
            md_path.parent().unwrap_or(repo).join(path_part)
        };
        if !resolved.exists() {
            broken.push(format!(
                "{}: broken link `{target}` (resolved to {})",
                md_path.display(),
                resolved.display()
            ));
        }
    }
}

/// README.md and every markdown file under docs/, sorted.
fn doc_files(repo: &Path) -> Vec<PathBuf> {
    let mut files = vec![repo.join("README.md")];
    let docs = repo.join("docs");
    let mut entries: Vec<PathBuf> = fs::read_dir(&docs)
        .expect("docs/ directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "docs/ must contain markdown");
    files.extend(entries);
    files
}

#[test]
fn readme_and_docs_links_resolve() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut broken = Vec::new();
    for f in &doc_files(&repo) {
        check_file(&repo, f, &mut broken);
    }
    assert!(broken.is_empty(), "broken internal links:\n{}", broken.join("\n"));
}

/// The inline code spans of one markdown line, in order, each with the
/// text that follows it up to the next span (or the end of the line).
fn code_spans(line: &str) -> Vec<(&str, &str)> {
    let parts: Vec<&str> = line.split('`').collect();
    // Odd parts are inside backticks; an unterminated span is text.
    (1..parts.len().saturating_sub(1)).step_by(2).map(|i| (parts[i], parts[i + 1])).collect()
}

/// Whether a code span quotes a path into this repository: one under a
/// top-level directory, or a top-level `.json`, `.md` or `.toml` file.
fn is_repo_path(span: &str) -> bool {
    const ROOTS: [&str; 7] =
        ["crates/", "tests/", "examples/", "docs/", "vendor/", "layerbench/", "src/"];
    const TOP_LEVEL: [&str; 3] = [".json", ".md", ".toml"];
    let top_level = !span.contains('/') && TOP_LEVEL.iter().any(|ext| span.ends_with(ext));
    // A glob (`vendor/*`) names no one file.
    (top_level || ROOTS.iter().any(|root| span.starts_with(root)))
        && !span.contains(|c: char| c.is_whitespace() || c == '*')
}

/// Expands one `{a,b,c}` group, the only shorthand the docs use.
fn expand_braces(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &path[..open], &path[close + 1..]))
            .collect(),
        _ => vec![path.to_string()],
    }
}

/// Whether `source` defines an item called `name`: the name follows one
/// of the item keywords.
fn defines(source: &str, name: &str) -> bool {
    const KEYWORDS: [&str; 8] =
        ["fn", "struct", "enum", "trait", "type", "const", "mod", "macro_rules!"];
    source.match_indices(name).any(|(at, _)| {
        let after = source[at + name.len()..].chars().next();
        let before = source[..at].trim_end();
        !after.is_some_and(|c| c.is_alphanumeric() || c == '_')
            && source[..at].ends_with(char::is_whitespace)
            && KEYWORDS.iter().any(|kw| before.ends_with(kw))
    })
}

/// The item a pointer's code span names: the last `::` segment, without
/// call parentheses or a macro's `!`.
fn item_name(span: &str) -> &str {
    let last = span.rsplit("::").next().unwrap_or(span);
    last.trim_end_matches("()").trim_end_matches('!')
}

#[test]
fn quoted_paths_exist_and_paper_map_pointers_name_defined_items() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut broken = Vec::new();
    for md_path in doc_files(&repo) {
        let text = fs::read_to_string(&md_path).unwrap_or_else(|e| panic!("read {md_path:?}: {e}"));
        let is_map = md_path.ends_with("PAPER_MAP.md");
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
            }
            if fenced {
                continue;
            }
            let at = format!("{}:{}", md_path.display(), n + 1);
            // A pointer is one or more `names`, " / " between them, then
            // " — " and the `path.rs` that defines them all.
            let mut names: Vec<&str> = Vec::new();
            for (span, after) in code_spans(line) {
                if !is_repo_path(span) {
                    match after {
                        " / " | " — " => names.push(span),
                        _ => names.clear(),
                    }
                    continue;
                }
                let path = span.trim_end_matches('/');
                if path.rsplit('/').next().is_some_and(|file| file.contains(':')) {
                    broken.push(format!("{at}: `{span}` carries a line number; name the item"));
                }
                for file in expand_braces(path) {
                    if !repo.join(&file).exists() {
                        broken.push(format!("{at}: `{file}` does not exist"));
                    } else if is_map && file.ends_with(".rs") {
                        let source = fs::read_to_string(repo.join(&file)).expect("read source");
                        for name in names.iter().map(|span| item_name(span)) {
                            if !defines(&source, name) {
                                broken.push(format!("{at}: `{file}` defines no item `{name}`"));
                            }
                        }
                    }
                }
                names.clear();
            }
        }
    }
    assert!(broken.is_empty(), "stale code pointers:\n{}", broken.join("\n"));
}

/// The code a markdown file quotes: every line of a fenced block, and
/// every inline code span, joined across the line breaks of its
/// paragraph (a span may wrap onto the next line).
fn quoted_code(md: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut paragraphs = vec![String::new()];
    let mut fenced = false;
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            paragraphs.push(String::new());
        } else if fenced {
            out.push(line.to_string());
        } else if line.trim().is_empty() {
            paragraphs.push(String::new());
        } else {
            let paragraph = paragraphs.last_mut().expect("never empty");
            paragraph.push_str(line);
            paragraph.push(' ');
        }
    }
    for paragraph in &paragraphs {
        out.extend(code_spans(paragraph).into_iter().map(|(span, _)| span.to_string()));
    }
    out
}

/// The `--bin NAME` and `--example NAME` targets a piece of quoted code
/// names. A shell variable (`--example "$ex"`) names none.
fn cargo_targets(code: &str) -> Vec<(&str, &str)> {
    let words: Vec<&str> = code.split_whitespace().collect();
    words
        .windows(2)
        .filter(|w| matches!(w[0], "--bin" | "--example") && !w[1].starts_with(['$', '"', '-']))
        .map(|w| (w[0], w[1]))
        .collect()
}

/// The `.rs` file stems directly under `dir` (none if it is missing).
fn rs_stems(dir: &Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else { return Vec::new() };
    entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .filter_map(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .collect()
}

/// Every binary target of the packages in this repository (the root,
/// `crates/*` and `layerbench/`): the `[[bin]]` names of each manifest
/// and the files under each `src/bin/`.
fn bin_targets(repo: &Path) -> Vec<String> {
    let mut packages = vec![repo.to_path_buf(), repo.join("layerbench")];
    let crates = fs::read_dir(repo.join("crates")).expect("crates/ directory");
    packages.extend(crates.filter_map(|e| e.ok().map(|e| e.path())));
    let mut bins = Vec::new();
    for package in packages {
        let manifest = fs::read_to_string(package.join("Cargo.toml")).unwrap_or_default();
        let mut in_bin = false;
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                in_bin = line == "[[bin]]";
            } else if in_bin && line.starts_with("name") {
                bins.extend(line.split('"').nth(1).map(str::to_string));
            }
        }
        bins.extend(rs_stems(&package.join("src/bin")));
    }
    bins
}

#[test]
fn quoted_bin_and_example_targets_exist() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let bins = bin_targets(&repo);
    let examples = rs_stems(&repo.join("examples"));
    let mut files = doc_files(&repo);
    let skill = repo.join(".claude/skills/verify/SKILL.md");
    if skill.exists() {
        files.push(skill);
    }
    let mut broken = Vec::new();
    for md_path in files {
        let text = fs::read_to_string(&md_path).unwrap_or_else(|e| panic!("read {md_path:?}: {e}"));
        for code in quoted_code(&text) {
            for (flag, name) in cargo_targets(&code) {
                let known = if flag == "--bin" { &bins } else { &examples };
                if !known.iter().any(|target| target == name) {
                    broken.push(format!("{}: `{flag} {name}` names no target", md_path.display()));
                }
            }
        }
    }
    assert!(broken.is_empty(), "stale cargo targets:\n{}", broken.join("\n"));
}

/// The `(code, severity)` of every `### RMLxxx — title (severity)`
/// heading, in document order.
fn catalogue_headings(md: &str) -> Vec<(String, String)> {
    md.lines()
        .filter_map(|line| line.strip_prefix("### RML"))
        .map(|rest| {
            let code = rest.split_whitespace().next().unwrap_or("");
            let severity = rest.rsplit_once('(').map_or("", |(_, s)| s.trim_end_matches(')'));
            (format!("RML{code}"), severity.to_string())
        })
        .collect()
}

#[test]
fn diagnostics_catalogue_matches_the_code_table() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let md = fs::read_to_string(repo.join("docs/DIAGNOSTICS.md")).expect("docs/DIAGNOSTICS.md");
    let documented = catalogue_headings(&md);
    let defined: Vec<(String, String)> = rmon::core::DiagCode::all()
        .iter()
        .map(|c| (c.as_str().to_string(), c.severity().to_string()))
        .collect();
    assert_eq!(documented, defined, "docs/DIAGNOSTICS.md headings vs DiagCode::all()");
}

#[test]
fn pointer_helpers_parse_spans_braces_and_items() {
    let line = "| x | `a::B` / `c()` — `crates/x/src/y.rs`; see `tests/{p,q}_z.rs` |";
    let spans: Vec<&str> = code_spans(line).into_iter().map(|(span, _)| span).collect();
    assert_eq!(spans, ["a::B", "c()", "crates/x/src/y.rs", "tests/{p,q}_z.rs"]);
    assert_eq!(code_spans(line)[0].1, " / ");
    assert!(is_repo_path("crates/x/src/y.rs") && !is_repo_path("cargo run -p x"));
    assert!(is_repo_path("BENCHMARK.json") && is_repo_path("Cargo.toml"));
    assert!(!is_repo_path("BENCH_*.json") && !is_repo_path("out/run.json"));
    assert_eq!(expand_braces("tests/{p,q}_z.rs"), ["tests/p_z.rs", "tests/q_z.rs"]);
    assert_eq!((item_name("a::B"), item_name("c()"), item_name("m!")), ("B", "c", "m"));
    let source = "pub struct Bee;\npub(crate) fn c() {}\nmacro_rules! m { () => {} }";
    assert!(defines(source, "c") && defines(source, "m") && !defines(source, "B"));
    assert!(defines("pub struct B<T>(T);", "B"));
    // A span that wraps onto the next line of its paragraph is one
    // span; a fenced block is quoted line by line.
    let md = "The bench `cargo run -p x --bin\nsharded` runs.\n\n```bash\ncargo run --example \"$ex\"\n```\n";
    let code = quoted_code(md);
    assert_eq!(code, ["cargo run --example \"$ex\"", "cargo run -p x --bin sharded"]);
    assert_eq!(cargo_targets(&code[1]), [("--bin", "sharded")]);
    assert!(cargo_targets(&code[0]).is_empty(), "a shell variable names no target");
    assert_eq!(cargo_targets("cargo run --example quickstart"), [("--example", "quickstart")]);
}

#[test]
fn extractor_handles_code_and_fragments() {
    let md = "see [guide](docs/STORAGE.md#frames) and `[not](a-link.md)`\n\
              ```\n[also not](x.md)\n```\n[web](https://example.com) [frag](#local)";
    let targets = link_targets(md);
    assert_eq!(targets, vec!["docs/STORAGE.md#frames", "https://example.com", "#local"]);
}
