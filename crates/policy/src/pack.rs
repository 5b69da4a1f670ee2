//! Pack compilation: name resolution, reference splicing and pattern
//! compilation, producing a flat [`PolicyPack`].
//!
//! Compilation is all-or-nothing.  Every file is parsed, every policy
//! body is resolved and compiled, and every problem becomes a
//! [`PackDiagnostic`]; if any diagnostic was produced the whole pack is
//! rejected.  A successful compile yields self-contained policies —
//! `@references` have been spliced away — whose `source` field is the
//! canonical rendering of the compiled pattern.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

use piprov_patterns::{parse_pattern, Pattern};

use crate::diag::{PackDiagnostic, PackError};
use crate::nearest_name;
use crate::parse::{parse_file, ParsedFile, PolicyDecl};
use crate::source::{PackFile, PackSource};

/// One compiled policy: a fully qualified name bound to a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyDef {
    /// Fully qualified name, e.g. `supply_chain::build::vendor_only`.
    pub name: String,
    /// The policy's package, e.g. `supply_chain::build`.
    pub package: String,
    /// Canonical textual form of the compiled pattern.
    pub source: String,
    /// The compiled pattern, references spliced in.
    pub pattern: Pattern,
}

/// A compiled policy pack: every policy of a [`PackSource`], compiled
/// and sorted by fully qualified name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyPack {
    /// Root package segment, shared by every policy in the pack.
    pub root: String,
    /// The compiled policies, sorted by name.
    pub policies: Vec<PolicyDef>,
}

fn is_valid_segment(segment: &str) -> bool {
    let mut chars = segment.chars();
    match chars.next() {
        Some(c) if c == '_' || c.is_alphabetic() => {}
        _ => return false,
    }
    chars.all(|c| c == '_' || c.is_alphanumeric())
}

/// Derives the package of a pack file from its root-relative path:
/// root segment, then one segment per directory, then the file stem.
fn derive_package(root: &str, path: &str) -> Result<String, String> {
    let Some(stripped) = path.strip_suffix(".ppol") else {
        return Err(format!("pack file `{}` does not end in `.ppol`", path));
    };
    let mut segments = vec![root.to_string()];
    for segment in stripped.split('/') {
        if !is_valid_segment(segment) {
            return Err(format!(
                "path segment `{}` is not a valid package name",
                segment
            ));
        }
        segments.push(segment.to_string());
    }
    Ok(segments.join("::"))
}

/// A `@reference` site inside a policy body, in character offsets.
struct RefSite {
    /// Offset of the `@` within the body.
    offset: usize,
    /// Length of the whole reference token, `@` included.
    len: usize,
    /// Index of the referenced definition.
    target: usize,
}

/// Scans a body for `@name` / `@pkg::name` references.  Returns the
/// raw sites (offset, length, path segments) plus scan errors as
/// (offset, message) pairs.
#[allow(clippy::type_complexity)]
fn scan_refs(body: &[char]) -> (Vec<(usize, usize, Vec<String>)>, Vec<(usize, String)>) {
    let mut sites = Vec::new();
    let mut errors = Vec::new();
    let mut i = 0;
    while i < body.len() {
        if body[i] != '@' {
            i += 1;
            continue;
        }
        let start = i;
        i += 1;
        let mut segments = Vec::new();
        loop {
            if !matches!(body.get(i), Some(&c) if c == '_' || c.is_alphabetic()) {
                if segments.is_empty() {
                    errors.push((start, "expected a policy name after `@`".to_string()));
                } else {
                    errors.push((i, "expected a name after `::`".to_string()));
                }
                break;
            }
            let mut word = String::new();
            while let Some(&c) = body.get(i) {
                if c != '_' && !c.is_alphanumeric() {
                    break;
                }
                word.push(c);
                i += 1;
            }
            segments.push(word);
            if body.get(i) == Some(&':') && body.get(i + 1) == Some(&':') {
                i += 2;
                continue;
            }
            sites.push((start, i - start, segments));
            break;
        }
    }
    (sites, errors)
}

/// Maps a character offset within a policy body back to a 1-based
/// file line/column.
fn body_position(decl: &PolicyDecl, offset: usize) -> (usize, usize) {
    let mut line = decl.body_line;
    let mut column = decl.body_column;
    for (i, c) in decl.body.chars().enumerate() {
        if i == offset {
            break;
        }
        if c == '\n' {
            line += 1;
            column = 1;
        } else {
            column += 1;
        }
    }
    (line, column)
}

/// One definition awaiting compilation.
struct Def {
    file: usize,
    decl: usize,
    name: String,
    package: String,
}

/// A span of the spliced body: characters `sub_start..sub_end` of the
/// substituted text came from `orig_start` (literal) or from a
/// reference at `splice_at` (spliced).
struct Span {
    sub_start: usize,
    sub_end: usize,
    orig_start: usize,
    splice_at: Option<usize>,
}

impl PolicyPack {
    /// Compiles a pack source into a flat, sorted policy list.
    ///
    /// # Errors
    ///
    /// Returns a [`PackError`] listing every diagnostic if *anything*
    /// fails — a pack never compiles partially.
    pub fn compile(source: &PackSource) -> Result<PolicyPack, PackError> {
        let mut diags: Vec<PackDiagnostic> = Vec::new();

        if !is_valid_segment(&source.root) {
            diags.push(PackDiagnostic::new(
                "<pack>",
                1,
                1,
                format!("pack root `{}` is not a valid package name", source.root),
            ));
            return Err(PackError::new(diags));
        }

        let mut files: Vec<&PackFile> = source.files.iter().collect();
        files.sort_by_key(|f| &f.path);

        // Parse every file and derive its package from its path.
        let mut parsed_files: Vec<(ParsedFile, String)> = Vec::new();
        let mut seen_paths: HashMap<&str, ()> = HashMap::new();
        for file in files {
            if seen_paths.insert(&file.path, ()).is_some() {
                diags.push(PackDiagnostic::new(
                    &file.path,
                    1,
                    1,
                    format!("duplicate pack file `{}`", file.path),
                ));
                continue;
            }
            let package = match derive_package(&source.root, &file.path) {
                Ok(package) => package,
                Err(message) => {
                    diags.push(PackDiagnostic::new(&file.path, 1, 1, message));
                    continue;
                }
            };
            let parsed = parse_file(&file.path, &file.source, &mut diags);
            if let Some((declared, line, column)) = &parsed.package {
                if declared != &package {
                    diags.push(PackDiagnostic::new(
                        &file.path,
                        *line,
                        *column,
                        format!(
                            "package declaration `{}` does not match `{}` derived from the file's path",
                            declared, package
                        ),
                    ));
                }
            }
            parsed_files.push((parsed, package));
        }

        // Collect definitions; packages are path-derived so duplicates
        // can only occur within one file.
        let mut defs: Vec<Def> = Vec::new();
        let mut by_name: HashMap<String, usize> = HashMap::new();
        for (file_index, (parsed, package)) in parsed_files.iter().enumerate() {
            for (decl_index, decl) in parsed.policies.iter().enumerate() {
                let name = format!("{}::{}", package, decl.name);
                if by_name.contains_key(&name) {
                    diags.push(PackDiagnostic::new(
                        &parsed.path,
                        decl.name_line,
                        decl.name_column,
                        format!("policy `{}` is defined twice", decl.name),
                    ));
                    continue;
                }
                by_name.insert(name.clone(), defs.len());
                defs.push(Def {
                    file: file_index,
                    decl: decl_index,
                    name,
                    package: package.clone(),
                });
            }
        }
        let all_names: Vec<&str> = {
            let mut names: Vec<&str> = by_name.keys().map(String::as_str).collect();
            names.sort_unstable();
            names
        };

        // Per-file scope: bare name -> definition index.  Local
        // policies first, then `use` imports.
        let mut scopes: Vec<HashMap<String, usize>> = Vec::new();
        for (file_index, (parsed, package)) in parsed_files.iter().enumerate() {
            let mut scope: HashMap<String, usize> = HashMap::new();
            for decl in &parsed.policies {
                let name = format!("{}::{}", package, decl.name);
                if let Some(&idx) = by_name.get(&name) {
                    if defs[idx].file == file_index {
                        scope.insert(decl.name.clone(), idx);
                    }
                }
            }
            for use_decl in &parsed.uses {
                let Some(&target) = by_name.get(&use_decl.target) else {
                    let mut message = format!("`use` of unknown policy `{}`", use_decl.target);
                    if let Some(hint) = nearest_name(&use_decl.target, all_names.iter().copied()) {
                        message.push_str(&format!(" (did you mean `{}`?)", hint));
                    }
                    diags.push(PackDiagnostic::new(
                        &parsed.path,
                        use_decl.line,
                        use_decl.column,
                        message,
                    ));
                    continue;
                };
                if scope.contains_key(&use_decl.alias) {
                    diags.push(PackDiagnostic::new(
                        &parsed.path,
                        use_decl.line,
                        use_decl.column,
                        format!("`use` alias `{}` is already in scope", use_decl.alias),
                    ));
                    continue;
                }
                scope.insert(use_decl.alias.clone(), target);
            }
            scopes.push(scope);
        }

        // Resolve reference sites in every body.
        let mut refs: Vec<Vec<RefSite>> = Vec::with_capacity(defs.len());
        let mut resolve_failed: Vec<bool> = vec![false; defs.len()];
        for (def_index, def) in defs.iter().enumerate() {
            let (parsed, _) = &parsed_files[def.file];
            let decl = &parsed.policies[def.decl];
            let body: Vec<char> = decl.body.chars().collect();
            let (sites, errors) = scan_refs(&body);
            for (offset, message) in errors {
                let (line, column) = body_position(decl, offset);
                diags.push(PackDiagnostic::new(&parsed.path, line, column, message));
                resolve_failed[def_index] = true;
            }
            let mut resolved = Vec::new();
            for (offset, len, segments) in sites {
                let target = if segments.len() == 1 {
                    scopes[def.file].get(&segments[0]).copied()
                } else {
                    by_name.get(&segments.join("::")).copied()
                };
                match target {
                    Some(target) => resolved.push(RefSite {
                        offset,
                        len,
                        target,
                    }),
                    None => {
                        let written = segments.join("::");
                        let mut message = format!("reference to unknown policy `@{}`", written);
                        let candidates: Vec<&str> = if segments.len() == 1 {
                            scopes[def.file].keys().map(String::as_str).collect()
                        } else {
                            all_names.clone()
                        };
                        if let Some(hint) = nearest_name(&written, candidates) {
                            message.push_str(&format!(" (did you mean `{}`?)", hint));
                        }
                        let (line, column) = body_position(decl, offset);
                        diags.push(PackDiagnostic::new(&parsed.path, line, column, message));
                        resolve_failed[def_index] = true;
                    }
                }
            }
            refs.push(resolved);
        }

        // Topological order over the reference graph (iterative DFS so
        // adversarially deep chains cannot overflow the stack).
        let mut state = vec![0u8; defs.len()]; // 0 new, 1 open, 2 done
        let mut order: Vec<usize> = Vec::with_capacity(defs.len());
        let mut cyclic = vec![false; defs.len()];
        for start in 0..defs.len() {
            if state[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            state[start] = 1;
            while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
                let deps = &refs[node];
                if *edge < deps.len() {
                    let next = deps[*edge].target;
                    *edge += 1;
                    match state[next] {
                        0 => {
                            state[next] = 1;
                            stack.push((next, 0));
                        }
                        1 if !cyclic[next] => {
                            cyclic[next] = true;
                            let (parsed, _) = &parsed_files[defs[next].file];
                            let decl = &parsed.policies[defs[next].decl];
                            diags.push(PackDiagnostic::new(
                                &parsed.path,
                                decl.name_line,
                                decl.name_column,
                                format!(
                                    "policy `{}` participates in a reference cycle",
                                    defs[next].name
                                ),
                            ));
                        }
                        _ => {}
                    }
                } else {
                    state[node] = 2;
                    order.push(node);
                    stack.pop();
                }
            }
        }

        // Compile in dependency order, splicing referenced patterns.
        let mut compiled: Vec<Option<(Pattern, String)>> = (0..defs.len()).map(|_| None).collect();
        for &def_index in &order {
            if cyclic[def_index] || resolve_failed[def_index] {
                continue;
            }
            let def = &defs[def_index];
            let (parsed, _) = &parsed_files[def.file];
            let decl = &parsed.policies[def.decl];
            let missing_dep = refs[def_index]
                .iter()
                .find(|site| compiled[site.target].is_none());
            if let Some(site) = missing_dep {
                let (line, column) = body_position(decl, site.offset);
                diags.push(PackDiagnostic::new(
                    &parsed.path,
                    line,
                    column,
                    format!(
                        "reference to policy `{}`, which did not compile",
                        defs[site.target].name
                    ),
                ));
                continue;
            }

            let body: Vec<char> = decl.body.chars().collect();
            let mut substituted = String::new();
            let mut sub_len = 0usize;
            let mut spans: Vec<Span> = Vec::new();
            let mut cursor = 0usize;
            let push_literal = |from: usize,
                                to: usize,
                                substituted: &mut String,
                                sub_len: &mut usize,
                                spans: &mut Vec<Span>| {
                if from < to {
                    substituted.extend(&body[from..to]);
                    spans.push(Span {
                        sub_start: *sub_len,
                        sub_end: *sub_len + (to - from),
                        orig_start: from,
                        splice_at: None,
                    });
                    *sub_len += to - from;
                }
            };
            for site in &refs[def_index] {
                push_literal(
                    cursor,
                    site.offset,
                    &mut substituted,
                    &mut sub_len,
                    &mut spans,
                );
                let (_, target_source) = compiled[site.target]
                    .as_ref()
                    .expect("dependencies compile before dependents");
                let splice = format!("({})", target_source);
                let splice_chars = splice.chars().count();
                substituted.push_str(&splice);
                spans.push(Span {
                    sub_start: sub_len,
                    sub_end: sub_len + splice_chars,
                    orig_start: site.offset,
                    splice_at: Some(site.offset),
                });
                sub_len += splice_chars;
                cursor = site.offset + site.len;
            }
            push_literal(
                cursor,
                body.len(),
                &mut substituted,
                &mut sub_len,
                &mut spans,
            );

            match parse_pattern(&substituted) {
                Ok(pattern) => {
                    let rendered = pattern.to_string();
                    compiled[def_index] = Some((pattern, rendered));
                }
                Err(err) => {
                    let orig_offset = spans
                        .iter()
                        .find(|span| span.sub_start <= err.position && err.position < span.sub_end)
                        .map(|span| match span.splice_at {
                            Some(at) => at,
                            None => span.orig_start + (err.position - span.sub_start),
                        })
                        .unwrap_or(body.len());
                    let (line, column) = body_position(decl, orig_offset);
                    diags.push(PackDiagnostic::new(
                        &parsed.path,
                        line,
                        column,
                        format!("invalid pattern: {}", err.message),
                    ));
                }
            }
        }

        if !diags.is_empty() {
            return Err(PackError::new(diags));
        }

        let mut policies: Vec<PolicyDef> = defs
            .into_iter()
            .zip(compiled)
            .map(|(def, compiled)| {
                let (pattern, source) = compiled.expect("no diagnostics means all compiled");
                PolicyDef {
                    name: def.name,
                    package: def.package,
                    source,
                    pattern,
                }
            })
            .collect();
        policies.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(PolicyPack {
            root: source.root.clone(),
            policies,
        })
    }

    /// Looks up a policy by fully qualified name.
    pub fn get(&self, name: &str) -> Option<&PolicyDef> {
        self.policies
            .binary_search_by(|def| def.name.as_str().cmp(name))
            .ok()
            .map(|index| &self.policies[index])
    }

    /// Renders the pack back to `.ppol` sources in canonical form: one
    /// file per package, policies sorted, `@references` expanded.
    ///
    /// Rendering then recompiling is a fixed point: the recompiled
    /// pack renders to the identical sources.
    pub fn render(&self) -> PackSource {
        let mut by_package: BTreeMap<&str, Vec<&PolicyDef>> = BTreeMap::new();
        for def in &self.policies {
            match by_package.entry(&def.package) {
                Entry::Vacant(slot) => {
                    slot.insert(vec![def]);
                }
                Entry::Occupied(mut slot) => slot.get_mut().push(def),
            }
        }
        let mut files = Vec::new();
        for (package, defs) in by_package {
            let relative: Vec<&str> = package.split("::").skip(1).collect();
            let path = format!("{}.ppol", relative.join("/"));
            let mut text = format!("package {}\n\n", package);
            for def in defs {
                let local = def
                    .name
                    .rsplit("::")
                    .next()
                    .expect("fully qualified names have segments");
                text.push_str(&format!("policy {} = {}\n", local, def.source));
            }
            files.push(PackFile::new(path, text));
        }
        PackSource::new(self.root.clone(), files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_file(source: &str) -> PackSource {
        PackSource::new("pack", vec![PackFile::new("rules.ppol", source)])
    }

    fn compile_err(source: &str) -> PackError {
        PolicyPack::compile(&one_file(source)).unwrap_err()
    }

    #[test]
    fn compiles_a_simple_pack() {
        let pack = PolicyPack::compile(&one_file(
            "policy from_c = c!Any; Any\npolicy tail = Any; d!Any\n",
        ))
        .unwrap();
        assert_eq!(pack.root, "pack");
        assert_eq!(pack.policies.len(), 2);
        assert_eq!(pack.policies[0].name, "pack::rules::from_c");
        assert_eq!(pack.policies[0].package, "pack::rules");
        assert_eq!(pack.policies[0].source, "c!Any; Any");
        assert_eq!(pack.get("pack::rules::tail").unwrap().source, "Any; d!Any");
        assert!(pack.get("pack::rules::missing").is_none());
    }

    #[test]
    fn local_references_splice_the_referenced_pattern() {
        let pack = PolicyPack::compile(&one_file(
            "policy base = c!Any; Any\npolicy wide = @base | eps\n",
        ))
        .unwrap();
        let wide = pack.get("pack::rules::wide").unwrap();
        assert_eq!(wide.source, "c!Any; Any | eps");
        assert_eq!(wide.pattern, parse_pattern("(c!Any; Any) | eps").unwrap());
    }

    #[test]
    fn cross_file_references_use_imports_and_qualified_names() {
        let source = PackSource::new(
            "pack",
            vec![
                PackFile::new("base.ppol", "policy origin = Any; d!Any\n"),
                PackFile::new(
                    "derived.ppol",
                    "use pack::base::origin as o\npolicy both = @o | @pack::base::origin\n",
                ),
            ],
        );
        let pack = PolicyPack::compile(&source).unwrap();
        let both = pack.get("pack::derived::both").unwrap();
        assert_eq!(both.source, "Any; d!Any | Any; d!Any");
    }

    #[test]
    fn reference_chains_compile_in_dependency_order() {
        let pack = PolicyPack::compile(&one_file(
            "policy c3 = @c2; Any\npolicy c1 = a!Any\npolicy c2 = @c1*\n",
        ))
        .unwrap();
        // c2 = (a!Any)*  — the splice parenthesises, so the star binds
        // to the whole referenced pattern.
        assert_eq!(pack.get("pack::rules::c2").unwrap().source, "(a!Any)*");
        assert_eq!(pack.get("pack::rules::c3").unwrap().source, "(a!Any)*; Any");
    }

    #[test]
    fn reference_cycles_are_rejected_all_or_nothing() {
        let err = compile_err("policy a = @b\npolicy b = @a\npolicy fine = eps\n");
        assert!(err.diagnostics.iter().any(|d| d.message.contains("cycle")));
        // Self-reference is the smallest cycle.
        let err = compile_err("policy a = @a | eps\n");
        assert!(err.diagnostics.iter().any(|d| d.message.contains("cycle")));
    }

    #[test]
    fn unknown_references_get_a_nearest_name_hint() {
        let err = compile_err("policy vendor_only = Any\npolicy p = @vendor_onyl\n");
        let diag = &err.diagnostics[0];
        assert!(diag.message.contains("unknown policy `@vendor_onyl`"));
        assert!(diag.message.contains("did you mean `vendor_only`?"));
        assert_eq!(diag.line, 2);
        assert_eq!(diag.column, 12);
    }

    #[test]
    fn pattern_errors_carry_file_line_and_column() {
        let err = compile_err("policy ok = eps\npolicy bad = a!Any |\n  ; Any\n");
        assert_eq!(err.diagnostics.len(), 1);
        let diag = &err.diagnostics[0];
        assert_eq!(diag.path, "rules.ppol");
        assert_eq!(diag.line, 3);
        assert_eq!(diag.column, 3);
        assert!(diag.message.contains("invalid pattern"), "{}", diag.message);
    }

    #[test]
    fn errors_inside_a_splice_point_at_the_reference() {
        // The reference itself is fine; an error *after* it must not be
        // attributed to the spliced text's coordinates.
        let err = compile_err("policy base = Any\npolicy bad = @base ;; eps\n");
        let diag = &err.diagnostics[0];
        assert_eq!(diag.line, 2);
        assert!(diag.column >= 20, "column {} too small", diag.column);
    }

    #[test]
    fn package_declaration_must_match_the_path() {
        let source = PackSource::new(
            "pack",
            vec![PackFile::new(
                "rules.ppol",
                "package other::place\npolicy p = Any\n",
            )],
        );
        let err = PolicyPack::compile(&source).unwrap_err();
        assert!(err.diagnostics[0]
            .message
            .contains("does not match `pack::rules`"));
    }

    #[test]
    fn invalid_paths_and_roots_are_rejected() {
        let err = PolicyPack::compile(&PackSource::new(
            "pack",
            vec![PackFile::new("not-a-segment!.ppol", "policy p = Any\n")],
        ))
        .unwrap_err();
        assert!(err.diagnostics[0].message.contains("not a valid package"));

        let err = PolicyPack::compile(&PackSource::new(
            "bad root",
            vec![PackFile::new("a.ppol", "policy p = Any\n")],
        ))
        .unwrap_err();
        assert!(err.diagnostics[0].message.contains("pack root"));

        let err = PolicyPack::compile(&PackSource::new(
            "pack",
            vec![PackFile::new("a.txt", "policy p = Any\n")],
        ))
        .unwrap_err();
        assert!(err.diagnostics[0].message.contains(".ppol"));
    }

    #[test]
    fn any_error_rejects_the_whole_pack() {
        let source = PackSource::new(
            "pack",
            vec![
                PackFile::new("good.ppol", "policy fine = Any\n"),
                PackFile::new("bad.ppol", "policy broken = ;;;\n"),
            ],
        );
        let err = PolicyPack::compile(&source).unwrap_err();
        assert_eq!(err.diagnostics.len(), 1);
        assert_eq!(err.diagnostics[0].path, "bad.ppol");
    }

    #[test]
    fn empty_packs_compile_to_no_policies() {
        let pack = PolicyPack::compile(&PackSource::new("pack", Vec::new())).unwrap();
        assert!(pack.policies.is_empty());
    }

    #[test]
    fn render_expands_references_and_recompiles_to_a_fixed_point() {
        let source = PackSource::new(
            "pack",
            vec![
                PackFile::new("base.ppol", "policy origin = Any; d!Any\n"),
                PackFile::new(
                    "derived.ppol",
                    "use pack::base::origin\npolicy wide = @origin | eps\n",
                ),
            ],
        );
        let pack = PolicyPack::compile(&source).unwrap();
        let rendered = pack.render();
        let paths: Vec<&str> = rendered.files.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, ["base.ppol", "derived.ppol"]);
        assert!(rendered.files[1].source.contains("package pack::derived"));

        let repack = PolicyPack::compile(&rendered).unwrap();
        assert_eq!(repack, pack);
        assert_eq!(repack.render(), rendered);
    }

    #[test]
    fn canonical_sources_nest_exactly_as_deep_as_their_patterns() {
        // Two 150-step chains in sequence are 151 levels deep, well
        // inside the nesting cap; flattened into one 300-step chain, their
        // canonical text would not be, and neither `@p` nor the rendered
        // pack would compile.
        let chain = vec!["a!Any"; 150].join("; ");
        let pack = PolicyPack::compile(&one_file(&format!(
            "policy p = ({chain}); ({chain})\npolicy q = @p | eps\n"
        )))
        .unwrap();
        let rendered = pack.render();
        let repack = PolicyPack::compile(&rendered).unwrap();
        assert_eq!(repack, pack);
        assert_eq!(repack.render(), rendered);
    }

    #[test]
    fn duplicate_policies_and_files_are_diagnosed() {
        let err = compile_err("policy p = Any\npolicy p = eps\n");
        assert!(err.diagnostics[0].message.contains("defined twice"));

        let source = PackSource {
            root: "pack".to_string(),
            files: vec![
                PackFile::new("a.ppol", "policy p = Any\n"),
                PackFile::new("a.ppol", "policy q = Any\n"),
            ],
        };
        let err = PolicyPack::compile(&source).unwrap_err();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.message.contains("duplicate pack file")));
    }

    #[test]
    fn dangling_reference_syntax_is_diagnosed() {
        let err = compile_err("policy p = @ | eps\n");
        assert!(err.diagnostics[0].message.contains("after `@`"));
        let err = compile_err("policy p = @a:: | eps\npolicy a = Any\n");
        assert!(err.diagnostics[0].message.contains("after `::`"));
    }
}
