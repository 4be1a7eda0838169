//! Interprocedural secret-taint dataflow.
//!
//! The paper's security argument needs one non-local invariant from the
//! implementation: **key material never influences control flow or message
//! sizes**.  Token-level scanning catches `if self.lambda == x`, but not a
//! secret that travels through a helper return, a `let` binding, or a call
//! argument.  This module closes that gap with a classic two-level design:
//!
//! * **Summaries.** Every function gets a relational summary computed to a
//!   fixed point over the call graph: which parameters flow into the return
//!   value, whether the return value carries secret ("seed") taint of its
//!   own, and which parameters reach a sink (branch/bound/comparison/
//!   allocation) inside the function or its callees.
//! * **Per-function dataflow.** A flow-insensitive-per-loop, name-keyed
//!   environment propagates taint through let-bindings, assignments, field
//!   accesses, struct literals, tuples, and calls (using callee summaries).
//!   Statements are analyzed twice so taint fed back through loop bodies
//!   stabilizes.
//!
//! Taint values are `u64` bitsets: bit 0 is the seed bit (real key
//! material), bit `i + 1` tracks dependence on parameter `i` (capped at 62
//! parameters — beyond that, parameters simply stop being tracked
//! relationally, which only loses precision, not soundness of reporting).
//!
//! **Seeds** come from the per-file registry of key-material names (the
//! registry the old token-level rule used) plus a small set of globally
//! seeded field names.  **Declassifiers** stop propagation: the return
//! value of an approved, censused crypto primitive (an encryption, MAC,
//! signature, DRBG output, ...) is public *by the scheme's security
//! argument* — a ciphertext may be compared, counted, and routed freely;
//! that is the entire point of the paper.  Without this boundary every
//! ciphertext comparison in the mediator would be a false positive.

use std::collections::HashMap;

use crate::ast::{Arm, Block, Expr, Stmt};
use crate::callgraph::CallGraph;

/// Seed bit: the value derives from registered key material.
pub const SEED: u64 = 1;

/// Per-file key-material name registry: `(path suffix, seeded names)`.
/// A name listed for a file taints every identifier *and* field of that
/// name within the file — the same convention the token-level rule used,
/// so existing audited suppressions keep their meaning.
pub const REGISTRY: &[(&str, &[&str])] = &[
    (
        "crates/crypto/src/paillier.rs",
        &["lambda", "mu", "p", "q", "hp", "hq", "q_inv_p", "crt"],
    ),
    ("crates/crypto/src/sra.rs", &["e", "d"]),
    ("crates/crypto/src/elgamal.rs", &["x"]),
    ("crates/crypto/src/exp_elgamal.rs", &["x"]),
    ("crates/crypto/src/schnorr.rs", &["x", "k"]),
    ("crates/crypto/src/drbg.rs", &["key", "value"]),
    (
        "crates/crypto/src/hybrid.rs",
        &["enc_key", "mac_key", "keys", "expected"],
    ),
];

/// Field names seeded in *every* file: secret-key fields that protocol
/// code can reach through accessors, and the leakage-accounting payload
/// count that must never steer control flow outside the audit boundary.
pub const GLOBAL_FIELD_SEEDS: &[&str] = &["lambda", "mu", "q_inv_p", "useful_payloads"];

/// Censused crypto-primitive boundaries whose outputs are public by the
/// scheme's security argument (ciphertexts, signatures, MACs, PRF/DRBG
/// output, decrypted plaintext re-entering the data domain).  A call to
/// one of these *declassifies*: the result carries no taint regardless of
/// the arguments.
pub const DECLASSIFIERS: &[&str] = &[
    // Encryption / decryption boundaries.
    "encrypt",
    "encrypt_reduced",
    "encrypt_bytes",
    "encrypt_value",
    "decrypt",
    "decrypt_plain",
    "decrypt_element",
    "decrypts_to_zero",
    "rerandomize",
    "add",
    "add_plain",
    "scale",
    // KEM / signatures.
    "encapsulate",
    "decapsulate",
    "sign",
    "verify",
    // Hashes, MACs, KDFs.
    "hmac_sha256",
    "kdf",
    "body_mac",
    "mac_eq",
    "ct_eq",
    "hash",
    "hash_to_group",
    "finalize",
    // Randomness: DRBG output is public-by-design pseudorandomness; its
    // *state* (key/value) stays seeded by name.
    "fill",
    "fill_bytes",
    "next_u32",
    "next_u64",
    "random_below",
    "random_exponent",
    "random_element",
    "random_unit",
    "gen_prime",
    "gen_safe_prime",
    "stream",
    "apply",
];

/// Constant-time comparison helpers: their bodies legitimately compare
/// secret-derived bytes, so sinks inside them are exempt.
pub const APPROVED_HELPERS: &[&str] = &["mac_eq", "ct_eq"];

/// Path prefixes whose *sinks* are exempt (taint still propagates
/// through them):
///
/// * `crates/mpint/` — bignum kernels are data-dependent by construction
///   (the sliding window walks exponent bits); the paper accounts for
///   their cost in the closed-form model, and the secret-flow invariant
///   guards the protocol layer above them,
/// * `crates/core/src/audit.rs` — the leakage-accounting boundary
///   deliberately inspects `useful_payloads` to *report* leakage,
/// * the observability/bench/test scaffolding, which never touches the
///   wire.
pub const SINK_EXEMPT_PREFIXES: &[&str] = &[
    "crates/mpint/",
    "crates/lint/",
    "crates/obs/",
    "crates/bench/",
    "crates/testkit/",
    "crates/core/src/audit.rs",
];

/// A function's interprocedural summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Summary {
    /// Taint of the return value: SEED and/or parameter bits.
    pub ret: u64,
    /// Parameter bits that reach a sink inside this function (or
    /// transitively inside a callee).
    pub param_sinks: u64,
}

/// One reported secret flow.
#[derive(Debug)]
pub struct Leak {
    /// Node index of the containing function.
    pub node: usize,
    /// Source line of the sink.
    pub line: u32,
    /// What kind of sink the secret reached.
    pub message: String,
}

/// The taint analysis over a built call graph.
pub struct TaintAnalysis<'a> {
    graph: &'a CallGraph<'a>,
    summaries: Vec<Summary>,
}

/// Context for one function-body pass.
struct FnPass<'g, 'a> {
    graph: &'g CallGraph<'a>,
    summaries: &'g [Summary],
    file: &'a str,
    /// Seeded names for `file` (registry row), empty otherwise.
    seeds: &'static [&'static str],
    env: HashMap<String, u64>,
    /// Accumulated return taint.
    ret: u64,
    /// Accumulated param-sink bits.
    param_sinks: u64,
    /// Sink reporting enabled (off in exempt files/fns and on the first
    /// of the two stabilization passes).
    report: bool,
    /// Findings collected when `report` is set.
    leaks: Vec<(u32, String)>,
}

impl<'a> TaintAnalysis<'a> {
    /// Computes all function summaries to a fixed point.
    pub fn run(graph: &'a CallGraph<'a>) -> Self {
        let mut analysis = TaintAnalysis {
            graph,
            summaries: vec![Summary::default(); graph.nodes.len()],
        };
        // Chaotic iteration: re-evaluate every function until nothing
        // changes.  Summaries only grow (bitset union), so this
        // terminates; the cap is a defensive bound, far above the depth
        // any real call chain needs.
        for _ in 0..24 {
            let mut changed = false;
            for idx in 0..graph.nodes.len() {
                let next = analysis.evaluate(idx, false).0;
                if next != analysis.summaries[idx] {
                    analysis.summaries[idx] = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        analysis
    }

    /// The computed summary for a node.
    pub fn summary(&self, node: usize) -> Summary {
        self.summaries[node]
    }

    /// Reporting pass: re-analyzes every non-exempt function and returns
    /// the secret flows that reach sinks.
    pub fn leaks(&self) -> Vec<Leak> {
        let mut out = Vec::new();
        for (idx, node) in self.graph.nodes.iter().enumerate() {
            if node.in_test_region
                || is_sink_exempt_file(node.file)
                || APPROVED_HELPERS.contains(&node.item.name.as_str())
            {
                continue;
            }
            for (line, message) in self.evaluate(idx, true).1 {
                out.push(Leak {
                    node: idx,
                    line,
                    message,
                });
            }
        }
        out
    }

    /// Analyzes one function body; returns its summary and (when
    /// `report` is set) the sink findings.
    fn evaluate(&self, idx: usize, report: bool) -> (Summary, Vec<(u32, String)>) {
        let node = &self.graph.nodes[idx];
        let mut pass = FnPass {
            graph: self.graph,
            summaries: &self.summaries,
            file: node.file,
            seeds: registry_for(node.file),
            env: HashMap::new(),
            ret: 0,
            param_sinks: 0,
            report: false,
            leaks: Vec::new(),
        };
        for (i, param) in node.item.params.iter().enumerate() {
            let bit = param_bit(i);
            for name in &param.names {
                pass.env.insert(name.clone(), bit);
            }
        }
        // Two passes: the first seeds the environment (including taint
        // that only becomes visible after a loop feeds a binding back
        // into itself), the second reports with the stabilized state.
        pass.block(&node.item.body);
        pass.report = report;
        let value = pass.block(&node.item.body);
        let ret = pass.ret | value;
        (
            Summary {
                ret,
                param_sinks: pass.param_sinks,
            },
            pass.leaks,
        )
    }
}

/// The registry row for a file, by path suffix.
fn registry_for(file: &str) -> &'static [&'static str] {
    for (suffix, names) in REGISTRY {
        if file.ends_with(suffix) {
            return names;
        }
    }
    &[]
}

/// Whether sinks in `file` are exempt from reporting.
pub fn is_sink_exempt_file(file: &str) -> bool {
    SINK_EXEMPT_PREFIXES.iter().any(|p| file.starts_with(p))
        || file.contains("/tests/")
        || file.contains("/benches/")
        || file.contains("/examples/")
}

fn param_bit(i: usize) -> u64 {
    if i < 62 {
        2u64 << i
    } else {
        0
    }
}

impl<'g, 'a> FnPass<'g, 'a> {
    /// Analyzes a block; returns the taint of its trailing expression.
    fn block(&mut self, block: &Block) -> u64 {
        let mut last = 0;
        for stmt in &block.stmts {
            last = 0;
            match stmt {
                Stmt::Let {
                    names,
                    init,
                    else_block,
                    ..
                } => {
                    let t = init.as_ref().map_or(0, |e| self.expr(e));
                    for name in names {
                        self.bind(name, t);
                    }
                    if let Some(b) = else_block {
                        self.block(b);
                    }
                }
                Stmt::Expr(e) => last = self.expr(e),
                Stmt::Item(_) => {}
            }
        }
        last
    }

    /// Weak update: loop back-edges may merge multiple reaching values.
    fn bind(&mut self, name: &str, taint: u64) {
        *self.env.entry(name.to_string()).or_insert(0) |= taint;
    }

    /// Name lookup plus registry seeding.
    fn name_taint(&self, name: &str) -> u64 {
        let mut t = self.env.get(name).copied().unwrap_or(0);
        if self.seeds.contains(&name) {
            t |= SEED;
        }
        t
    }

    fn field_taint(&self, name: &str) -> u64 {
        let mut t = 0;
        if self.seeds.contains(&name) || GLOBAL_FIELD_SEEDS.contains(&name) {
            t |= SEED;
        }
        t
    }

    /// Records a sink: reports SEED taint, accumulates param bits.
    fn sink(&mut self, taint: u64, line: u32, what: &str) {
        self.param_sinks |= taint & !SEED;
        if self.report && taint & SEED != 0 {
            self.leaks
                .push((line, format!("secret-derived value reaches {what}")));
        }
    }

    /// Taint of a call given resolved callee summaries.
    fn call(&mut self, name: &str, args: &[u64], callees: &[usize], line: u32) -> u64 {
        if DECLASSIFIERS.contains(&name) {
            return 0;
        }
        // Only trust the resolution when it is precise: a same-file
        // candidate set, or a workspace-unique name.  Common method
        // names (`get`, `run`, `key`, ...) resolve to every same-named
        // function in the tree; unioning those summaries floods the
        // whole workspace with false taint.
        let trusted = !callees.is_empty()
            && (callees.len() == 1
                || callees
                    .iter()
                    .all(|&c| self.graph.nodes[c].file == self.file));
        if !trusted {
            // Unknown function (std, ambiguous, ...): the result may
            // depend on any argument.
            return args.iter().fold(0, |acc, t| acc | t);
        }
        let mut out = 0;
        for &callee in callees {
            let s = self.summaries[callee];
            if s.ret & SEED != 0 {
                out |= SEED;
            }
            let callee_exempt = is_sink_exempt_file(self.graph.nodes[callee].file)
                || APPROVED_HELPERS.contains(&self.graph.nodes[callee].item.name.as_str());
            for (j, &t) in args.iter().enumerate() {
                let bit = param_bit(j);
                if s.ret & bit != 0 {
                    out |= t;
                }
                if s.param_sinks & bit != 0 && !callee_exempt {
                    // The argument reaches a sink inside the callee: that
                    // is a sink from this function's perspective.
                    self.sink(
                        t,
                        line,
                        &format!(
                            "a branch/bound/comparison inside `{}` via argument {}",
                            self.graph.nodes[callee].item.name, j
                        ),
                    );
                }
            }
        }
        out
    }

    /// Analyzes one expression, returning its taint.
    fn expr(&mut self, e: &Expr) -> u64 {
        match e {
            Expr::Path { segs, .. } => match segs.as_slice() {
                [single] => self.name_taint(single),
                _ => 0,
            },
            Expr::Field { base, name, .. } => {
                let b = self.expr(base);
                b | self.field_taint(name)
            }
            Expr::Call { path, args, line } => {
                let arg_taints: Vec<u64> = args.iter().map(|a| self.expr(a)).collect();
                let name = path.last().map(String::as_str).unwrap_or("");
                let callees = self.graph.resolve_path(self.file, path);
                self.call(name, &arg_taints, &callees, *line)
            }
            Expr::MethodCall {
                recv,
                name,
                args,
                line,
            } => {
                let mut arg_taints = vec![self.expr(recv)];
                arg_taints.extend(args.iter().map(|a| self.expr(a)));
                let callees = self.graph.resolve_name(self.file, name);
                // A method's receiver is parameter 0 (`self`); when the
                // candidates are free functions the shift is harmless
                // over-approximation.
                self.call(name, &arg_taints, &callees, *line)
            }
            Expr::Binary { op, lhs, rhs, line } => {
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                if op == "==" || op == "!=" {
                    self.sink(l | r, *line, "an `==`/`!=` comparison");
                }
                l | r
            }
            Expr::Assign { target, value, .. } => {
                let t = self.expr(value);
                match &**target {
                    Expr::Path { segs, .. } if segs.len() == 1 => self.bind(&segs[0], t),
                    other => {
                        let _ = self.expr(other);
                    }
                }
                t
            }
            Expr::If {
                cond,
                binds,
                then,
                alt,
                ..
            } => {
                let c = self.expr(cond);
                self.sink(c, cond.line(), "a branch condition");
                for b in binds {
                    self.bind(b, c);
                }
                let mut v = self.block(then);
                if let Some(a) = alt {
                    v |= self.expr(a);
                }
                v
            }
            Expr::While {
                cond, binds, body, ..
            } => {
                let c = self.expr(cond);
                self.sink(c, cond.line(), "a loop condition");
                for b in binds {
                    self.bind(b, c);
                }
                self.block(body);
                0
            }
            Expr::For {
                binds, iter, body, ..
            } => {
                let it = self.expr(iter);
                self.sink(it, iter.line(), "a loop bound");
                for b in binds {
                    self.bind(b, it);
                }
                self.block(body);
                0
            }
            Expr::Loop { body, .. } => {
                self.block(body);
                0
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                let s = self.expr(scrutinee);
                self.sink(s, scrutinee.line(), "a match scrutinee");
                let mut v = 0;
                for Arm { binds, guard, body } in arms {
                    for b in binds {
                        self.bind(b, s);
                    }
                    if let Some(g) = guard {
                        let gt = self.expr(g);
                        self.sink(gt, g.line(), "a match guard");
                    }
                    v |= self.expr(body);
                }
                v
            }
            Expr::StructLit { fields, .. } => {
                // Containers are opaque: building a struct *around* key
                // material does not make the struct itself a branchable
                // secret scalar — the taint re-emerges at the field
                // access (`kp.lambda`) through the name-based field
                // seeds.  Field initializers are still walked for sinks.
                for f in fields {
                    if let Some(v) = &f.value {
                        let _ = self.expr(v);
                    }
                }
                0
            }
            Expr::Macro {
                name,
                args,
                semi_at,
                line,
            } => {
                let taints: Vec<u64> = args.iter().map(|a| self.expr(a)).collect();
                if name == "vec" {
                    if let Some(at) = semi_at {
                        for t in taints.iter().skip(*at) {
                            self.sink(*t, *line, "an allocation length (`vec![_; n]`)");
                        }
                    }
                }
                taints.iter().fold(0, |acc, t| acc | t)
            }
            Expr::Block(b) => self.block(b),
            Expr::Return { value, .. } => {
                let t = value.as_ref().map_or(0, |v| self.expr(v));
                self.ret |= t;
                0
            }
            Expr::Closure { params, body, .. } => {
                for p in params {
                    self.bind(p, 0);
                }
                self.expr(body)
            }
            Expr::Unary { expr, .. } => self.expr(expr),
            Expr::Index { base, index, .. } => {
                let b = self.expr(base);
                let _ = self.expr(index);
                b
            }
            Expr::Tuple { items, .. } => items.iter().map(|i| self.expr(i)).fold(0, |a, t| a | t),
            Expr::Repeat { value, len, line } => {
                let v = self.expr(value);
                let l = self.expr(len);
                self.sink(l, *line, "an array-repeat length (`[v; n]`)");
                v
            }
            Expr::Lit { .. } | Expr::Unknown { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::callgraph::ParsedFile;
    use crate::lexer::lex;

    fn leaks_for(path: &str, src: &str) -> Vec<(u32, String)> {
        let ast = parse(&lex(src));
        let files = [ParsedFile {
            path,
            ast: &ast,
            test_mask: &[],
            is_test_file: false,
        }];
        let graph = CallGraph::build(&files);
        let analysis = TaintAnalysis::run(&graph);
        analysis
            .leaks()
            .into_iter()
            .map(|l| (l.line, l.message))
            .collect()
    }

    #[test]
    fn multihop_return_flow_is_caught() {
        let src = "\
struct K { lambda: u64 }
impl K { fn half(&self) -> u64 { self.lambda / 2 } }
fn schedule(k: &K) -> u64 {
    let rounds = k.half();
    if rounds > 4 { 1 } else { 0 }
}
";
        let leaks = leaks_for("crates/crypto/src/paillier.rs", src);
        assert_eq!(leaks.len(), 1, "{leaks:?}");
        assert_eq!(leaks[0].0, 5);
        assert!(leaks[0].1.contains("branch condition"));
    }

    #[test]
    fn argument_flow_into_callee_sink_is_caught_at_call_site() {
        let src = "\
fn gate(v: u64) -> u64 { if v > 3 { 1 } else { 0 } }
struct K { lambda: u64 }
fn run(k: &K) -> u64 { gate(k.lambda) }
";
        let leaks = leaks_for("crates/crypto/src/paillier.rs", src);
        // One local leak inside `gate`?  No: `v` is only a parameter
        // there (no SEED), so the report lands at the call site.
        assert_eq!(leaks.len(), 1, "{leaks:?}");
        assert_eq!(leaks[0].0, 3);
        assert!(leaks[0].1.contains("inside `gate`"), "{leaks:?}");
    }

    #[test]
    fn declassified_boundaries_stop_taint() {
        let src = "\
struct K { lambda: u64 }
fn run(k: &K) -> u64 {
    let c = encrypt(k.lambda);
    if c > 4 { 1 } else { 0 }
}
";
        let leaks = leaks_for("crates/crypto/src/paillier.rs", src);
        assert!(leaks.is_empty(), "{leaks:?}");
    }

    #[test]
    fn loop_bounds_and_alloc_lengths_are_sinks() {
        let src = "\
struct K { mu: u64 }
fn run(k: &K) {
    let n = k.mu;
    for _i in 0..n { }
    let v = vec![0u8; n as usize];
    let w = Vec::with_capacity(4);
}
";
        let leaks = leaks_for("crates/crypto/src/paillier.rs", src);
        assert_eq!(leaks.len(), 2, "{leaks:?}");
        assert!(leaks[0].1.contains("loop bound"));
        assert!(leaks[1].1.contains("allocation length"));
    }

    #[test]
    fn global_field_seeds_taint_outside_registered_files() {
        let src = "\
fn steer(view: &View) -> u32 {
    match view.useful_payloads { Some(u) if u > 3 => 1, _ => 0 }
}
";
        let leaks = leaks_for("crates/core/src/protocol/pm_extra.rs", src);
        // The scrutinee itself plus the guard on the taint-carrying arm
        // binder: two distinct sinks.
        assert_eq!(leaks.len(), 2, "{leaks:?}");
        assert!(leaks[0].1.contains("match scrutinee"));
        assert!(leaks[1].1.contains("match guard"));
    }

    #[test]
    fn audit_boundary_and_mpint_are_sink_exempt() {
        let src = "\
fn steer(view: &View) -> u32 {
    match view.useful_payloads { Some(u) if u > 3 => 1, _ => 0 }
}
";
        assert!(leaks_for("crates/core/src/audit.rs", src).is_empty());
        assert!(leaks_for("crates/mpint/src/div.rs", src).is_empty());
    }

    #[test]
    fn loop_fed_bindings_stabilize() {
        // Taint enters `acc` only via the loop body's second iteration
        // view; the two-pass evaluation must still catch the branch.
        let src = "\
struct K { lambda: u64 }
fn run(k: &K) -> u64 {
    let mut acc = 0;
    loop {
        if acc > 9 { return acc; }
        acc = acc + k.lambda;
    }
}
";
        let leaks = leaks_for("crates/crypto/src/paillier.rs", src);
        assert_eq!(leaks.len(), 1, "{leaks:?}");
        assert_eq!(leaks[0].0, 5);
    }
}
