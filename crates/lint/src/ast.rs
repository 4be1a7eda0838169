//! An item-level recursive-descent parser over the lexer's token stream.
//!
//! This is deliberately *not* a full Rust grammar: the dataflow rules need
//! item structure (functions, impls, structs, uses), statement structure
//! (let bindings, expressions), and just enough expression shape to follow
//! values through bindings, field accesses, calls, and into branch
//! conditions.  Anything the parser does not understand degrades to
//! [`Expr::Unknown`] — the analysis over-approximates around it rather
//! than erroring, because the lint runs on code that already compiles.
//!
//! Every node records the 1-based source line of its first token plus the
//! index of that token in the file's token stream, so rules can anchor
//! findings and consult the source-level test mask.

use crate::lexer::{Token, TokenKind};

/// A parsed file: the flat list of top-level items.
#[derive(Debug, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One item.  Only the shapes the rules consume are modelled; everything
/// else (traits without bodies, macros, type aliases, ...) is skipped.
#[derive(Debug)]
pub enum Item {
    /// A function (free, in an impl, or a default trait method).
    Fn(FnItem),
    /// An `impl` block: the self-type's last path segment plus its items.
    Impl {
        /// Last segment of the implemented type's path.
        type_name: String,
        /// Items inside the block (functions, consts, nested items).
        items: Vec<Item>,
        /// Source line of the `impl` keyword.
        line: u32,
    },
    /// An inline module.
    Mod {
        /// Module name.
        name: String,
        /// Items inside.
        items: Vec<Item>,
        /// Source line.
        line: u32,
    },
    /// A struct definition with named fields (tuple/unit structs keep an
    /// empty field list).
    Struct {
        /// Type name.
        name: String,
        /// Named field identifiers.
        fields: Vec<String>,
        /// Source line.
        line: u32,
    },
    /// A `use` declaration, as its path segments (globs and groups keep
    /// the prefix only).
    Use {
        /// Path segments, e.g. `["secmed_crypto", "metrics", "count"]`.
        path: Vec<String>,
        /// Source line.
        line: u32,
    },
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Parameters in order.  `self` receivers are parameter 0 with the
    /// single name `"self"`.
    pub params: Vec<Param>,
    /// The body (empty for trait signatures / extern declarations).
    pub body: Block,
    /// Source line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword (for the test mask).
    pub token_index: usize,
}

/// One parameter: a pattern may bind several names (`(a, b): (u8, u8)`),
/// all of which alias the same positional argument for dataflow purposes.
#[derive(Debug)]
pub struct Param {
    /// Identifiers the parameter pattern binds.
    pub names: Vec<String>,
}

/// A `{ ... }` block.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let <pat> = <init>;` — `names` are the identifiers the pattern
    /// binds; `init` is `None` for uninitialized lets.
    Let {
        /// Identifiers bound by the pattern.
        names: Vec<String>,
        /// Initializer.
        init: Option<Expr>,
        /// `let ... else { ... }` diverging block, when present.
        else_block: Option<Block>,
        /// Source line.
        line: u32,
    },
    /// An expression statement.
    Expr(Expr),
    /// A nested item (fn inside fn, nested mod, ...).
    Item(Box<Item>),
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// Identifiers the arm pattern binds (they alias the scrutinee).
    pub binds: Vec<String>,
    /// The `if` guard, when present.
    pub guard: Option<Expr>,
    /// The arm body.
    pub body: Expr,
}

/// One field in a struct literal.
#[derive(Debug)]
pub struct FieldInit {
    /// Field name.
    pub name: String,
    /// Initializer (`None` for shorthand `Struct { name }`).
    pub value: Option<Expr>,
    /// Source line of the field name.
    pub line: u32,
}

/// An expression, shaped for dataflow rather than evaluation.
#[derive(Debug)]
pub enum Expr {
    /// A (possibly qualified) path: `x`, `self.e` is *not* this (that is
    /// [`Expr::Field`]), but `a::b::c` and plain `x` are.
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Source line.
        line: u32,
    },
    /// `base.name` field access (tuple indices appear as `"0"`, `"1"`).
    Field {
        /// The base expression.
        base: Box<Expr>,
        /// Field name.
        name: String,
        /// Source line.
        line: u32,
    },
    /// `callee(args)` where the callee is a path.
    Call {
        /// Callee path segments.
        path: Vec<String>,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// `recv.name(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// A binary operation (`==`, `+`, `..`, ...).
    Binary {
        /// Operator text.
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source line of the operator.
        line: u32,
    },
    /// Assignment (including compound `+=` and friends).
    Assign {
        /// Assignment target.
        target: Box<Expr>,
        /// Value.
        value: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `if cond { then } else { alt }`; for `if let PAT = scrut`, `cond`
    /// is the scrutinee and `binds` are the pattern bindings visible in
    /// `then`.
    If {
        /// Condition (or if-let scrutinee).
        cond: Box<Expr>,
        /// Pattern bindings (if-let only).
        binds: Vec<String>,
        /// Then block.
        then: Block,
        /// Else branch (`None`, a block, or a chained if).
        alt: Option<Box<Expr>>,
        /// Source line.
        line: u32,
    },
    /// `while cond { body }` (while-let handled like if-let).
    While {
        /// Condition (or while-let scrutinee).
        cond: Box<Expr>,
        /// Pattern bindings (while-let only).
        binds: Vec<String>,
        /// Loop body.
        body: Block,
        /// Source line.
        line: u32,
    },
    /// `for PAT in iter { body }`.
    For {
        /// Pattern bindings (they alias the iterated value).
        binds: Vec<String>,
        /// The iterated expression (the loop bound).
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
        /// Source line.
        line: u32,
    },
    /// `loop { body }`.
    Loop {
        /// Loop body.
        body: Block,
        /// Source line.
        line: u32,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// The scrutinee.
        scrutinee: Box<Expr>,
        /// The arms.
        arms: Vec<Arm>,
        /// Source line.
        line: u32,
    },
    /// A struct literal `Path { field: expr, .. }`.
    StructLit {
        /// Type path segments.
        path: Vec<String>,
        /// Field initializers.
        fields: Vec<FieldInit>,
        /// Source line.
        line: u32,
    },
    /// A macro invocation `name!(...)`; arguments are re-parsed as a
    /// comma/semicolon-separated expression list where possible.
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// Parsed argument expressions.
        args: Vec<Expr>,
        /// For `vec![expr; len]`-style macros: index into `args` of the
        /// first expression after a `;` separator.
        semi_at: Option<usize>,
        /// Source line.
        line: u32,
    },
    /// A block expression (incl. `unsafe { ... }`).
    Block(Block),
    /// `return expr?` / `break expr?`.
    Return {
        /// The returned value, when present.
        value: Option<Box<Expr>>,
        /// Source line.
        line: u32,
    },
    /// A closure; for dataflow the closure's value is its body's value.
    Closure {
        /// Parameter names.
        params: Vec<String>,
        /// Body expression.
        body: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `&expr` / `*expr` / `-expr` / `!expr` — taint-transparent.
    Unary {
        /// Operand.
        expr: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `base[index]`.
    Index {
        /// The indexed expression.
        base: Box<Expr>,
        /// The index.
        index: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `(a, b, ...)` tuples and `[a, b, ...]` arrays.
    Tuple {
        /// Element expressions.
        items: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// `[value; len]` array-repeat — `len` is an allocation size.
    Repeat {
        /// The repeated value.
        value: Box<Expr>,
        /// The length expression.
        len: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// A literal (string, char, number, bool).
    Lit {
        /// Source line.
        line: u32,
    },
    /// Anything the parser does not model.
    Unknown {
        /// Source line.
        line: u32,
    },
}

impl Expr {
    /// The source line of the expression's first token.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Field { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Assign { line, .. }
            | Expr::If { line, .. }
            | Expr::While { line, .. }
            | Expr::For { line, .. }
            | Expr::Loop { line, .. }
            | Expr::Match { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Return { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Index { line, .. }
            | Expr::Tuple { line, .. }
            | Expr::Repeat { line, .. }
            | Expr::Lit { line, .. }
            | Expr::Unknown { line } => *line,
            Expr::Block(b) => b.stmts.first().map_or(0, stmt_line),
        }
    }
}

fn stmt_line(s: &Stmt) -> u32 {
    match s {
        Stmt::Let { line, .. } => *line,
        Stmt::Expr(e) => e.line(),
        Stmt::Item(i) => match &**i {
            Item::Fn(f) => f.line,
            Item::Impl { line, .. }
            | Item::Mod { line, .. }
            | Item::Struct { line, .. }
            | Item::Use { line, .. } => *line,
        },
    }
}

/// Keywords that can never start (or continue) an expression operand.
const EXPR_STOPPERS: &[&str] = &["let", "fn", "struct", "enum", "impl", "mod", "use", "trait"];

/// Parses the token stream of one file.
pub fn parse(tokens: &[Token]) -> Ast {
    // Work on code tokens only, remembering original indices.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut p = Parser {
        tokens,
        code,
        pos: 0,
    };
    Ast {
        items: p.items(usize::MAX),
    }
}

struct Parser<'a> {
    tokens: &'a [Token],
    code: Vec<usize>,
    pos: usize,
}

impl<'a> Parser<'a> {
    // -- cursor ------------------------------------------------------

    fn peek(&self, ahead: usize) -> Option<&'a Token> {
        self.code.get(self.pos + ahead).map(|&i| &self.tokens[i])
    }

    fn at_ident(&self, text: &str) -> bool {
        self.peek(0).is_some_and(|t| t.is_ident(text))
    }

    fn at_punct(&self, text: &str) -> bool {
        self.peek(0).is_some_and(|t| t.is_punct(text))
    }

    fn line(&self) -> u32 {
        self.peek(0).map_or(0, |t| t.line)
    }

    fn token_index(&self) -> usize {
        self.code.get(self.pos).copied().unwrap_or(usize::MAX)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.peek(0)?;
        self.pos += 1;
        Some(t)
    }

    fn eat_punct(&mut self, text: &str) -> bool {
        if self.at_punct(text) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, text: &str) -> bool {
        if self.at_ident(text) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Skips a balanced bracketed region starting at the current token
    /// (which must be one of `(`/`[`/`{`); robust to early EOF.
    fn skip_balanced(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.peek(0) {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        self.pos += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.pos += 1;
            if depth == 0 {
                return;
            }
        }
    }

    /// Skips a generic parameter list starting at `<`, counting the
    /// lexer's joined `<<`/`>>` as two brackets and ignoring `->`.
    fn skip_generics(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.peek(0) {
            match t.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "(" | "[" | "{" => {
                    self.skip_balanced();
                    continue;
                }
                ";" => return, // malformed; bail before eating a statement
                _ => {}
            }
            self.pos += 1;
            if depth <= 0 {
                return;
            }
        }
    }

    // -- items -------------------------------------------------------

    /// Parses items until `}` (when `stop_at_depth` is 0) or EOF.
    fn items(&mut self, mut budget: usize) -> Vec<Item> {
        let mut out = Vec::new();
        while self.peek(0).is_some() && !self.at_punct("}") && budget > 0 {
            budget -= 1;
            let before = self.pos;
            if let Some(item) = self.item() {
                out.push(item);
            }
            if self.pos == before {
                self.pos += 1; // never stall
            }
        }
        out
    }

    /// Parses one item, or skips tokens it cannot classify.
    fn item(&mut self) -> Option<Item> {
        // Attributes and visibility prefix the item keyword.
        while self.at_punct("#") {
            self.pos += 1;
            self.eat_punct("!");
            if self.at_punct("[") {
                self.skip_balanced();
            }
        }
        if self.eat_ident("pub") && self.at_punct("(") {
            self.skip_balanced(); // pub(crate) etc.
        }
        for modifier in ["const", "async", "unsafe", "extern"] {
            if self.at_ident(modifier) && self.peek(1).is_some_and(|t| t.is_ident("fn")) {
                self.pos += 1;
            }
        }
        let t = self.peek(0)?;
        match t.text.as_str() {
            "fn" => self.fn_item().map(Item::Fn),
            "impl" => self.impl_item(),
            "mod" => self.mod_item(),
            "struct" => self.struct_item(),
            "use" => self.use_item(),
            "trait" => self.trait_item(),
            "enum" | "union" => {
                // Skip: name, generics, then the body.
                self.pos += 1;
                self.bump();
                if self.at_punct("<") {
                    self.skip_generics();
                }
                self.skip_to_item_end();
                None
            }
            "static" | "const" | "type" => {
                self.skip_to_item_end();
                None
            }
            _ => {
                // Not an item start; let the caller advance.
                None
            }
        }
    }

    /// Skips to the end of a braceless item (`;`) or past a braced body.
    fn skip_to_item_end(&mut self) {
        while let Some(t) = self.peek(0) {
            match t.text.as_str() {
                ";" => {
                    self.pos += 1;
                    return;
                }
                "{" => {
                    self.skip_balanced();
                    return;
                }
                "(" | "[" => self.skip_balanced(),
                _ => self.pos += 1,
            }
        }
    }

    fn fn_item(&mut self) -> Option<FnItem> {
        let line = self.line();
        let token_index = self.token_index();
        self.pos += 1; // fn
        let name = self.bump().map(|t| t.text.clone())?;
        if self.at_punct("<") {
            self.skip_generics();
        }
        let params = if self.at_punct("(") {
            self.fn_params()
        } else {
            Vec::new()
        };
        // Return type / where clause: skip to the body `{` or a `;`.
        loop {
            match self.peek(0).map(|t| t.text.as_str()) {
                Some("{") | Some(";") | None => break,
                Some("<") => self.skip_generics(),
                Some("(") | Some("[") => self.skip_balanced(),
                _ => self.pos += 1,
            }
        }
        let body = if self.at_punct("{") {
            self.block()
        } else {
            self.eat_punct(";");
            Block::default()
        };
        Some(FnItem {
            name,
            params,
            body,
            line,
            token_index,
        })
    }

    /// Parses `( ... )` into positional parameters.
    fn fn_params(&mut self) -> Vec<Param> {
        self.pos += 1; // (
        let mut params = Vec::new();
        let mut names = Vec::new();
        let mut in_pattern = true;
        let depth = 0i64;
        while let Some(t) = self.peek(0) {
            match t.text.as_str() {
                ")" if depth == 0 => {
                    self.pos += 1;
                    break;
                }
                "(" | "[" | "{" => {
                    if in_pattern {
                        // Tuple pattern: collect its binders too.
                        let mut inner_depth = 0i64;
                        while let Some(u) = self.peek(0) {
                            match u.text.as_str() {
                                "(" | "[" | "{" => inner_depth += 1,
                                ")" | "]" | "}" => {
                                    inner_depth -= 1;
                                    if inner_depth == 0 {
                                        self.pos += 1;
                                        break;
                                    }
                                }
                                ":" if inner_depth == 1 => {}
                                _ if u.kind == TokenKind::Ident && is_binder(&u.text) => {
                                    names.push(u.text.clone());
                                }
                                _ => {}
                            }
                            self.pos += 1;
                        }
                    } else {
                        self.skip_balanced();
                    }
                    continue;
                }
                "<" => {
                    self.skip_generics();
                    continue;
                }
                "," if depth == 0 => {
                    params.push(Param {
                        names: std::mem::take(&mut names),
                    });
                    in_pattern = true;
                    self.pos += 1;
                    continue;
                }
                ":" if depth == 0 => {
                    in_pattern = false;
                }
                "self" => {
                    names.push("self".to_string());
                    in_pattern = false;
                }
                _ if in_pattern && t.kind == TokenKind::Ident && is_binder(&t.text) => {
                    names.push(t.text.clone());
                }
                _ => {}
            }
            self.pos += 1;
        }
        if !names.is_empty() || !params.is_empty() {
            params.push(Param { names });
        }
        params
    }

    fn impl_item(&mut self) -> Option<Item> {
        let line = self.line();
        self.pos += 1; // impl
        if self.at_punct("<") {
            self.skip_generics();
        }
        // `impl Trait for Type` or `impl Type`: the self type is the path
        // immediately before the `{` — track the last ident seen.
        let mut type_name = String::new();
        loop {
            match self.peek(0).map(|t| (t.kind, t.text.as_str())) {
                None | Some((_, "{")) | Some((_, ";")) => break,
                Some((_, "<")) => self.skip_generics(),
                Some((_, "(")) | Some((_, "[")) => self.skip_balanced(),
                Some((TokenKind::Ident, "where")) => {
                    // where-clause: skip to the `{`.
                    while let Some(t) = self.peek(0) {
                        if t.is_punct("{") {
                            break;
                        }
                        if t.is_punct("<") {
                            self.skip_generics();
                        } else {
                            self.pos += 1;
                        }
                    }
                }
                Some((TokenKind::Ident, text)) => {
                    if text != "for" {
                        type_name = text.to_string();
                    }
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        if !self.eat_punct("{") {
            self.eat_punct(";");
            return None;
        }
        let items = self.items(usize::MAX);
        self.eat_punct("}");
        Some(Item::Impl {
            type_name,
            items,
            line,
        })
    }

    fn mod_item(&mut self) -> Option<Item> {
        let line = self.line();
        self.pos += 1; // mod
        let name = self.bump().map(|t| t.text.clone())?;
        if self.eat_punct(";") {
            return None; // out-of-line module
        }
        if !self.eat_punct("{") {
            return None;
        }
        let items = self.items(usize::MAX);
        self.eat_punct("}");
        Some(Item::Mod { name, items, line })
    }

    fn struct_item(&mut self) -> Option<Item> {
        let line = self.line();
        self.pos += 1; // struct
        let name = self.bump().map(|t| t.text.clone())?;
        if self.at_punct("<") {
            self.skip_generics();
        }
        let mut fields = Vec::new();
        if self.at_punct("(") {
            self.skip_balanced(); // tuple struct
            self.eat_punct(";");
        } else if self.eat_punct("{") {
            // `vis name: Type,` entries; nested braces never appear in a
            // field list, but generics can.
            let mut expect_name = true;
            while let Some(t) = self.peek(0) {
                match t.text.as_str() {
                    "}" => {
                        self.pos += 1;
                        break;
                    }
                    "," => {
                        expect_name = true;
                        self.pos += 1;
                    }
                    ":" => {
                        expect_name = false;
                        self.pos += 1;
                    }
                    "<" => self.skip_generics(),
                    "(" | "[" | "{" => self.skip_balanced(),
                    "#" => {
                        self.pos += 1;
                        if self.at_punct("[") {
                            self.skip_balanced();
                        }
                    }
                    "pub" => {
                        self.pos += 1;
                        if self.at_punct("(") {
                            self.skip_balanced();
                        }
                    }
                    _ => {
                        if expect_name && t.kind == TokenKind::Ident {
                            fields.push(t.text.clone());
                            expect_name = false;
                        }
                        self.pos += 1;
                    }
                }
            }
        } else {
            self.eat_punct(";"); // unit struct
        }
        Some(Item::Struct { name, fields, line })
    }

    fn use_item(&mut self) -> Option<Item> {
        let line = self.line();
        self.pos += 1; // use
        let mut path = Vec::new();
        while let Some(t) = self.peek(0) {
            match t.text.as_str() {
                ";" => {
                    self.pos += 1;
                    break;
                }
                "{" => {
                    // Group import: keep the prefix, skip the group.
                    self.skip_balanced();
                }
                "::" | "*" => self.pos += 1,
                _ => {
                    if t.kind == TokenKind::Ident && t.text != "as" {
                        path.push(t.text.clone());
                    }
                    self.pos += 1;
                }
            }
        }
        Some(Item::Use { path, line })
    }

    fn trait_item(&mut self) -> Option<Item> {
        let line = self.line();
        self.pos += 1; // trait
        let name = self.bump().map(|t| t.text.clone())?;
        // Skip generics / supertraits to the body.
        loop {
            match self.peek(0).map(|t| t.text.as_str()) {
                None | Some("{") | Some(";") => break,
                Some("<") => self.skip_generics(),
                _ => self.pos += 1,
            }
        }
        if !self.eat_punct("{") {
            self.eat_punct(";");
            return None;
        }
        let items = self.items(usize::MAX);
        self.eat_punct("}");
        // Default trait methods are real code; model the trait as an impl
        // so their bodies are analyzed.
        Some(Item::Impl {
            type_name: name,
            items,
            line,
        })
    }

    // -- statements --------------------------------------------------

    fn block(&mut self) -> Block {
        let mut stmts = Vec::new();
        if !self.eat_punct("{") {
            return Block { stmts };
        }
        while let Some(t) = self.peek(0) {
            if t.is_punct("}") {
                self.pos += 1;
                break;
            }
            let before = self.pos;
            if t.is_punct(";") {
                self.pos += 1;
                continue;
            }
            if t.is_ident("let") {
                stmts.push(self.let_stmt());
            } else if matches!(
                t.text.as_str(),
                "fn" | "struct" | "enum" | "impl" | "mod" | "use" | "trait" | "static" | "type"
            ) && t.kind == TokenKind::Ident
            {
                if let Some(item) = self.item() {
                    stmts.push(Stmt::Item(Box::new(item)));
                }
            } else if t.is_punct("#") {
                // Attribute on a statement or nested item.
                self.pos += 1;
                self.eat_punct("!");
                if self.at_punct("[") {
                    self.skip_balanced();
                }
            } else {
                let e = self.expr(true);
                stmts.push(Stmt::Expr(e));
                self.eat_punct(";");
            }
            if self.pos == before {
                self.pos += 1; // never stall
            }
        }
        Block { stmts }
    }

    fn let_stmt(&mut self) -> Stmt {
        let line = self.line();
        self.pos += 1; // let
        let names = self.pattern_binders(&["=", ";"]);
        let mut init = None;
        let mut else_block = None;
        if self.eat_punct("=") {
            init = Some(self.expr(true));
            if self.at_ident("else") {
                self.pos += 1;
                if self.at_punct("{") {
                    else_block = Some(self.block());
                }
            }
        }
        self.eat_punct(";");
        Stmt::Let {
            names,
            init,
            else_block,
            line,
        }
    }

    /// Collects binder identifiers of a pattern, consuming tokens until
    /// one of `stops` at bracket depth 0 (the stop token is not eaten).
    /// A `:` at depth 0 switches into type position (binders no longer
    /// collected, but generics/brackets still skipped).
    fn pattern_binders(&mut self, stops: &[&str]) -> Vec<String> {
        let mut names = Vec::new();
        let mut depth = 0i64;
        let mut in_type = false;
        while let Some(t) = self.peek(0) {
            let text = t.text.as_str();
            if depth == 0 && stops.contains(&text) {
                break;
            }
            match text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                "<" => {
                    self.skip_generics();
                    continue;
                }
                ":" if depth == 0 => in_type = true,
                "::" => {
                    // Path pattern (`Op::X`): the previous ident was a
                    // path segment, not a binder.
                    if let Some(last) = names.last() {
                        if self
                            .pos
                            .checked_sub(1)
                            .and_then(|p| self.code.get(p))
                            .is_some_and(|&i| self.tokens[i].text == *last)
                        {
                            names.pop();
                        }
                    }
                }
                _ => {
                    if !in_type && t.kind == TokenKind::Ident && is_binder(text) {
                        // `x @ pattern` keeps x; struct-pattern fields
                        // (`Point { x, y }`) bind their shorthand names,
                        // which this collects too — acceptable
                        // over-approximation.
                        names.push(t.text.clone());
                    }
                }
            }
            self.pos += 1;
        }
        names.sort();
        names.dedup();
        names
    }

    // -- expressions -------------------------------------------------

    /// Operator precedence (higher binds tighter).  Assignment is
    /// handled separately (right-associative, lowest).
    fn precedence(op: &str) -> Option<u8> {
        Some(match op {
            "*" | "/" | "%" => 10,
            "+" | "-" => 9,
            "<<" | ">>" => 8,
            "&" => 7,
            "^" => 6,
            "|" => 5,
            "==" | "!=" | "<" | ">" | "<=" | ">=" => 4,
            "&&" => 3,
            "||" => 2,
            ".." | "..=" => 1,
            _ => return None,
        })
    }

    /// Parses an expression.  `structs` controls whether `Path { ... }`
    /// is read as a struct literal (false in condition position).
    fn expr(&mut self, structs: bool) -> Expr {
        self.expr_bp(0, structs)
    }

    fn expr_bp(&mut self, min_bp: u8, structs: bool) -> Expr {
        let mut lhs = self.unary(structs);
        while let Some(t) = self.peek(0) {
            if t.kind != TokenKind::Punct {
                // `as` casts: swallow the type.
                if t.is_ident("as") {
                    self.pos += 1;
                    self.skip_type_in_expr();
                    continue;
                }
                break;
            }
            let op = t.text.clone();
            let line = t.line;
            if op == "="
                || matches!(
                    op.as_str(),
                    "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>="
                )
            {
                if min_bp > 0 {
                    break;
                }
                self.pos += 1;
                let value = self.expr_bp(0, structs);
                lhs = Expr::Assign {
                    target: Box::new(lhs),
                    value: Box::new(value),
                    line,
                };
                continue;
            }
            let Some(bp) = Self::precedence(&op) else {
                break;
            };
            if bp < min_bp {
                break;
            }
            self.pos += 1;
            // Open ranges: `a..` with nothing rangeable after.
            if (op == ".." || op == "..=") && self.range_rhs_absent() {
                lhs = Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(Expr::Lit { line }),
                    line,
                };
                continue;
            }
            let rhs = self.expr_bp(bp + 1, structs);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn range_rhs_absent(&self) -> bool {
        match self.peek(0) {
            None => true,
            Some(t) => matches!(t.text.as_str(), ")" | "]" | "}" | "," | ";" | "{" | "=>"),
        }
    }

    /// Skips a type after `as` (idents, paths, generics, parens).
    fn skip_type_in_expr(&mut self) {
        while let Some(t) = self.peek(0) {
            match (t.kind, t.text.as_str()) {
                (TokenKind::Ident, _) | (_, "::") | (_, "*") | (_, "&") => self.pos += 1,
                (_, "<") => self.skip_generics(),
                (_, "(") | (_, "[") => self.skip_balanced(),
                _ => break,
            }
            // A single path-ish type: stop unless a connective follows.
            if !matches!(
                self.peek(0).map(|t| t.text.as_str()),
                Some("::") | Some("<")
            ) {
                break;
            }
        }
    }

    fn unary(&mut self, structs: bool) -> Expr {
        let Some(t) = self.peek(0) else {
            return Expr::Unknown { line: 0 };
        };
        let line = t.line;
        match t.text.as_str() {
            "&" | "&&" | "*" | "-" | "!" if t.kind == TokenKind::Punct => {
                self.pos += 1;
                self.eat_ident("mut");
                let inner = self.unary(structs);
                self.postfix(
                    Expr::Unary {
                        expr: Box::new(inner),
                        line,
                    },
                    structs,
                )
            }
            _ => {
                let e = self.primary(structs);
                self.postfix(e, structs)
            }
        }
    }

    fn postfix(&mut self, mut e: Expr, structs: bool) -> Expr {
        while let Some(t) = self.peek(0) {
            match t.text.as_str() {
                "." => {
                    let line = t.line;
                    self.pos += 1;
                    let Some(name_tok) = self.peek(0) else { break };
                    if name_tok.is_ident("await") {
                        self.pos += 1;
                        continue;
                    }
                    let name = name_tok.text.clone();
                    self.pos += 1;
                    // Turbofish on a method: `.collect::<Vec<_>>()`.
                    if self.at_punct("::") {
                        self.pos += 1;
                        if self.at_punct("<") {
                            self.skip_generics();
                        }
                    }
                    if self.at_punct("(") {
                        let args = self.call_args();
                        e = Expr::MethodCall {
                            recv: Box::new(e),
                            name,
                            args,
                            line,
                        };
                    } else {
                        e = Expr::Field {
                            base: Box::new(e),
                            name,
                            line,
                        };
                    }
                }
                "?" => self.pos += 1,
                "(" => {
                    let line = t.line;
                    let args = self.call_args();
                    // Calling a non-path expression (fn pointer, closure
                    // variable): model as a method-less call through
                    // Unknown so argument taint still unions.
                    let mut items = vec![e];
                    items.extend(args);
                    e = Expr::Tuple { items, line };
                }
                "[" => {
                    let line = t.line;
                    self.pos += 1;
                    let index = self.expr(true);
                    self.eat_punct("]");
                    e = Expr::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                        line,
                    };
                }
                "{" if structs => {
                    // Only a bare path becomes a struct literal.
                    let is_type_path = matches!(
                        &e,
                        Expr::Path { segs, .. }
                            if segs.last().is_some_and(|s| s.starts_with(char::is_uppercase))
                    );
                    if !is_type_path {
                        break;
                    }
                    let Expr::Path { segs, line } = e else {
                        unreachable!()
                    };
                    e = self.struct_lit(segs, line);
                }
                _ => break,
            }
        }
        e
    }

    /// Parses `( ... )` call arguments.
    fn call_args(&mut self) -> Vec<Expr> {
        self.pos += 1; // (
        let mut args = Vec::new();
        loop {
            if self.at_punct(")") {
                self.pos += 1;
                break;
            }
            if self.peek(0).is_none() {
                break;
            }
            let before = self.pos;
            args.push(self.expr(true));
            if self.pos == before {
                self.pos += 1;
            }
            if !self.eat_punct(",") && self.at_punct(")") {
                self.pos += 1;
                break;
            } else if self.pos == before + 1 && !self.at_punct(")") && self.peek(0).is_none() {
                break;
            }
        }
        args
    }

    fn struct_lit(&mut self, path: Vec<String>, line: u32) -> Expr {
        self.pos += 1; // {
        let mut fields = Vec::new();
        while let Some(t) = self.peek(0) {
            match t.text.as_str() {
                "}" => {
                    self.pos += 1;
                    break;
                }
                "," => self.pos += 1,
                ".." => {
                    let rest_line = t.line;
                    self.pos += 1;
                    // `Path { .. }` is a rest *pattern* read in expression
                    // position (e.g. inside `matches!`): there is no base
                    // expression, and parsing one would swallow the `}`.
                    if self.at_punct("}") {
                        continue;
                    }
                    // The base expression of the functional update.
                    let base = self.expr(true);
                    fields.push(FieldInit {
                        name: "..".to_string(),
                        value: Some(base),
                        line: rest_line,
                    });
                }
                _ => {
                    let name_line = t.line;
                    let name = t.text.clone();
                    self.pos += 1;
                    if self.eat_punct(":") {
                        let value = self.expr(true);
                        fields.push(FieldInit {
                            name,
                            value: Some(value),
                            line: name_line,
                        });
                    } else {
                        fields.push(FieldInit {
                            name,
                            value: None,
                            line: name_line,
                        });
                    }
                }
            }
        }
        Expr::StructLit { path, fields, line }
    }

    fn primary(&mut self, structs: bool) -> Expr {
        let Some(t) = self.peek(0) else {
            return Expr::Unknown { line: 0 };
        };
        let line = t.line;
        match (t.kind, t.text.as_str()) {
            (TokenKind::Number, _) | (TokenKind::Literal, _) | (TokenKind::Lifetime, _) => {
                self.pos += 1;
                // A lifetime here is a loop label: `'a: loop { ... }`.
                if self.eat_punct(":") {
                    return self.primary(structs);
                }
                Expr::Lit { line }
            }
            (TokenKind::Ident, "true") | (TokenKind::Ident, "false") => {
                self.pos += 1;
                Expr::Lit { line }
            }
            (TokenKind::Ident, "if") => self.if_expr(),
            (TokenKind::Ident, "while") => {
                self.pos += 1;
                let (binds, cond) = self.condition();
                let body = self.block();
                Expr::While {
                    cond: Box::new(cond),
                    binds,
                    body,
                    line,
                }
            }
            (TokenKind::Ident, "for") => {
                self.pos += 1;
                let binds = self.pattern_binders(&["in"]);
                self.eat_ident("in");
                let iter = self.expr(false);
                let body = self.block();
                Expr::For {
                    binds,
                    iter: Box::new(iter),
                    body,
                    line,
                }
            }
            (TokenKind::Ident, "loop") => {
                self.pos += 1;
                let body = self.block();
                Expr::Loop { body, line }
            }
            (TokenKind::Ident, "match") => {
                self.pos += 1;
                let scrutinee = self.expr(false);
                let arms = self.match_arms();
                Expr::Match {
                    scrutinee: Box::new(scrutinee),
                    arms,
                    line,
                }
            }
            (TokenKind::Ident, "return") | (TokenKind::Ident, "break") => {
                self.pos += 1;
                let value = if self.expr_follows() {
                    Some(Box::new(self.expr(structs)))
                } else {
                    None
                };
                Expr::Return { value, line }
            }
            (TokenKind::Ident, "continue") => {
                self.pos += 1;
                Expr::Unknown { line }
            }
            (TokenKind::Ident, "unsafe") | (TokenKind::Ident, "async") => {
                self.pos += 1;
                if self.at_punct("{") {
                    Expr::Block(self.block())
                } else {
                    Expr::Unknown { line }
                }
            }
            (TokenKind::Ident, "move") => {
                self.pos += 1;
                self.primary(structs) // closure follows
            }
            (TokenKind::Ident, "let") => {
                // A stray `let` in expression position (let-chains):
                // treat `let PAT = rhs` as its rhs.
                self.pos += 1;
                let _binds = self.pattern_binders(&["="]);
                if self.eat_punct("=") {
                    self.expr(false)
                } else {
                    Expr::Unknown { line }
                }
            }
            (TokenKind::Ident, _) => self.path_expr(structs),
            (_, "(") => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    if self.at_punct(")") {
                        self.pos += 1;
                        break;
                    }
                    if self.peek(0).is_none() {
                        break;
                    }
                    let before = self.pos;
                    items.push(self.expr(true));
                    self.eat_punct(",");
                    if self.pos == before {
                        self.pos += 1;
                    }
                }
                if items.len() == 1 {
                    items.pop().unwrap_or(Expr::Unknown { line })
                } else {
                    Expr::Tuple { items, line }
                }
            }
            (_, "[") => {
                self.pos += 1;
                let mut items = Vec::new();
                let mut repeat_len = None;
                loop {
                    if self.at_punct("]") {
                        self.pos += 1;
                        break;
                    }
                    if self.peek(0).is_none() {
                        break;
                    }
                    let before = self.pos;
                    let e = self.expr(true);
                    if self.eat_punct(";") {
                        repeat_len = Some(self.expr(true));
                        items.push(e);
                        self.eat_punct("]");
                        break;
                    }
                    items.push(e);
                    self.eat_punct(",");
                    if self.pos == before {
                        self.pos += 1;
                    }
                }
                match repeat_len {
                    Some(len) => Expr::Repeat {
                        value: Box::new(items.pop().unwrap_or(Expr::Unknown { line })),
                        len: Box::new(len),
                        line,
                    },
                    None => Expr::Tuple { items, line },
                }
            }
            (_, "{") => Expr::Block(self.block()),
            (_, "|") | (_, "||") => self.closure(),
            (_, "..") | (_, "..=") => {
                // Prefix range `..n`.
                self.pos += 1;
                let rhs = if self.range_rhs_absent() {
                    Expr::Lit { line }
                } else {
                    self.expr_bp(2, structs)
                };
                Expr::Binary {
                    op: "..".to_string(),
                    lhs: Box::new(Expr::Lit { line }),
                    rhs: Box::new(rhs),
                    line,
                }
            }
            _ => {
                self.pos += 1;
                Expr::Unknown { line }
            }
        }
    }

    fn expr_follows(&self) -> bool {
        match self.peek(0) {
            None => false,
            Some(t) => {
                !matches!(t.text.as_str(), ";" | "}" | ")" | "]" | ",")
                    && (t.kind != TokenKind::Ident || !EXPR_STOPPERS.contains(&t.text.as_str()))
            }
        }
    }

    fn if_expr(&mut self) -> Expr {
        let line = self.line();
        self.pos += 1; // if
        let (binds, cond) = self.condition();
        let then = self.block();
        let alt = if self.at_ident("else") {
            self.pos += 1;
            if self.at_ident("if") {
                Some(Box::new(self.if_expr()))
            } else if self.at_punct("{") {
                Some(Box::new(Expr::Block(self.block())))
            } else {
                None
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            binds,
            then,
            alt,
            line,
        }
    }

    /// An `if`/`while` condition: either a plain no-struct expression or
    /// a `let PAT = scrutinee` whose scrutinee becomes the condition.
    fn condition(&mut self) -> (Vec<String>, Expr) {
        if self.at_ident("let") {
            self.pos += 1;
            let binds = self.pattern_binders(&["="]);
            self.eat_punct("=");
            let scrutinee = self.expr(false);
            (binds, scrutinee)
        } else {
            (Vec::new(), self.expr(false))
        }
    }

    fn match_arms(&mut self) -> Vec<Arm> {
        let mut arms = Vec::new();
        if !self.eat_punct("{") {
            return arms;
        }
        while let Some(t) = self.peek(0) {
            if t.is_punct("}") {
                self.pos += 1;
                break;
            }
            if t.is_punct(",") || t.is_punct("|") {
                self.pos += 1;
                continue;
            }
            let before = self.pos;
            let binds = self.pattern_binders(&["=>", "if"]);
            let guard = if self.eat_ident("if") {
                Some(self.expr(false))
            } else {
                None
            };
            if !self.eat_punct("=>") {
                if self.pos == before {
                    self.pos += 1;
                }
                continue;
            }
            let body = self.expr(true);
            arms.push(Arm { binds, guard, body });
            self.eat_punct(",");
            if self.pos == before {
                self.pos += 1;
            }
        }
        arms
    }

    fn closure(&mut self) -> Expr {
        let line = self.line();
        let params = if self.eat_punct("||") {
            Vec::new()
        } else {
            self.pos += 1; // |
            let names = self.pattern_binders(&["|"]);
            self.eat_punct("|");
            names
        };
        // Optional return type: `|x| -> T { ... }`.
        if self.eat_punct("->") {
            self.skip_type_in_expr();
        }
        let body = self.expr(true);
        Expr::Closure {
            params,
            body: Box::new(body),
            line,
        }
    }

    /// A path expression: `a`, `a::b`, `a::<T>::b`, then call/struct-lit
    /// dispatch.
    fn path_expr(&mut self, structs: bool) -> Expr {
        let line = self.line();
        let mut segs = Vec::new();
        while let Some(t) = self.peek(0) {
            if t.kind == TokenKind::Ident {
                segs.push(t.text.clone());
                self.pos += 1;
            } else {
                break;
            }
            if self.at_punct("::") {
                self.pos += 1;
                if self.at_punct("<") {
                    self.skip_generics(); // turbofish
                    if !self.at_punct("::") {
                        break;
                    }
                    self.pos += 1;
                }
                continue;
            }
            break;
        }
        if segs.is_empty() {
            self.pos += 1;
            return Expr::Unknown { line };
        }
        if self.at_punct("!") {
            // Macro invocation.
            let name = segs.last().cloned().unwrap_or_default();
            self.pos += 1;
            return self.macro_call(name, line);
        }
        if self.at_punct("(") {
            let args = self.call_args();
            return Expr::Call {
                path: segs,
                args,
                line,
            };
        }
        if structs
            && self.at_punct("{")
            && segs
                .last()
                .is_some_and(|s| s.starts_with(char::is_uppercase))
        {
            return self.struct_lit(segs, line);
        }
        Expr::Path { segs, line }
    }

    /// Parses macro arguments as a loose `,`/`;`-separated expression
    /// list inside whichever bracket follows.
    fn macro_call(&mut self, name: String, line: u32) -> Expr {
        let close = match self.peek(0).map(|t| t.text.as_str()) {
            Some("(") => ")",
            Some("[") => "]",
            Some("{") => "}",
            _ => {
                return Expr::Macro {
                    name,
                    args: Vec::new(),
                    semi_at: None,
                    line,
                }
            }
        };
        self.pos += 1;
        let mut args = Vec::new();
        let mut semi_at = None;
        while let Some(t) = self.peek(0) {
            if t.text == close {
                self.pos += 1;
                break;
            }
            if t.is_punct(",") {
                self.pos += 1;
                continue;
            }
            if t.is_punct(";") {
                semi_at = semi_at.or(Some(args.len()));
                self.pos += 1;
                continue;
            }
            let before = self.pos;
            args.push(self.expr(true));
            if self.pos == before {
                self.pos += 1; // token the expr parser refused; skip it
                args.pop();
            }
        }
        Expr::Macro {
            name,
            args,
            semi_at,
            line,
        }
    }
}

/// True when an identifier can be a pattern binder (lowercase start, not
/// a keyword or `_`).
fn is_binder(text: &str) -> bool {
    !matches!(
        text,
        "_" | "mut"
            | "ref"
            | "box"
            | "if"
            | "in"
            | "as"
            | "move"
            | "else"
            | "self"
            | "Self"
            | "true"
            | "false"
            | "const"
            | "dyn"
            | "impl"
            | "where"
    ) && text.starts_with(|c: char| c.is_lowercase() || c == '_')
}

/// Visits every expression under `block`, pre-order (outer before inner),
/// including expressions nested in blocks, arms, closures, and field
/// initializers.  Nested *items* (a fn inside a fn) are not entered —
/// [`for_each_fn`] yields those separately.
pub fn walk_exprs<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
                if let Some(b) = else_block {
                    walk_exprs(b, f);
                }
            }
            Stmt::Expr(e) => walk_expr(e, f),
            Stmt::Item(_) => {}
        }
    }
}

/// Visits `e` and every expression nested inside it, pre-order.
pub fn walk_expr<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(e);
    match e {
        Expr::Field { base, .. } => walk_expr(base, f),
        Expr::Call { args, .. } => args.iter().for_each(|a| walk_expr(a, f)),
        Expr::MethodCall { recv, args, .. } => {
            walk_expr(recv, f);
            args.iter().for_each(|a| walk_expr(a, f));
        }
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Assign { target, value, .. } => {
            walk_expr(target, f);
            walk_expr(value, f);
        }
        Expr::If {
            cond, then, alt, ..
        } => {
            walk_expr(cond, f);
            walk_exprs(then, f);
            if let Some(a) = alt {
                walk_expr(a, f);
            }
        }
        Expr::While { cond, body, .. } => {
            walk_expr(cond, f);
            walk_exprs(body, f);
        }
        Expr::For { iter, body, .. } => {
            walk_expr(iter, f);
            walk_exprs(body, f);
        }
        Expr::Loop { body, .. } => walk_exprs(body, f),
        Expr::Match {
            scrutinee, arms, ..
        } => {
            walk_expr(scrutinee, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    walk_expr(g, f);
                }
                walk_expr(&arm.body, f);
            }
        }
        Expr::StructLit { fields, .. } => {
            for field in fields {
                if let Some(v) = &field.value {
                    walk_expr(v, f);
                }
            }
        }
        Expr::Macro { args, .. } => args.iter().for_each(|a| walk_expr(a, f)),
        Expr::Block(b) => walk_exprs(b, f),
        Expr::Return { value, .. } => {
            if let Some(v) = value {
                walk_expr(v, f);
            }
        }
        Expr::Closure { body, .. } => walk_expr(body, f),
        Expr::Unary { expr, .. } => walk_expr(expr, f),
        Expr::Index { base, index, .. } => {
            walk_expr(base, f);
            walk_expr(index, f);
        }
        Expr::Tuple { items, .. } => items.iter().for_each(|i| walk_expr(i, f)),
        Expr::Repeat { value, len, .. } => {
            walk_expr(value, f);
            walk_expr(len, f);
        }
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Unknown { .. } => {}
    }
}

/// Walks every function item in an AST (including those nested in impls,
/// mods, and other functions), with the enclosing impl type name if any.
pub fn for_each_fn<'a>(ast: &'a Ast, f: &mut dyn FnMut(Option<&'a str>, &'a FnItem)) {
    fn walk<'a>(
        items: &'a [Item],
        owner: Option<&'a str>,
        f: &mut dyn FnMut(Option<&'a str>, &'a FnItem),
    ) {
        for item in items {
            match item {
                Item::Fn(func) => {
                    f(owner, func);
                    walk_block_items(&func.body, owner, f);
                }
                Item::Impl {
                    type_name, items, ..
                } => walk(items, Some(type_name.as_str()), f),
                Item::Mod { items, .. } => walk(items, owner, f),
                Item::Struct { .. } | Item::Use { .. } => {}
            }
        }
    }
    fn walk_block_items<'a>(
        block: &'a Block,
        owner: Option<&'a str>,
        f: &mut dyn FnMut(Option<&'a str>, &'a FnItem),
    ) {
        for stmt in &block.stmts {
            if let Stmt::Item(item) = stmt {
                walk(std::slice::from_ref(item), owner, f);
            }
        }
    }
    walk(&ast.items, None, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src))
    }

    fn fns(ast: &Ast) -> Vec<(Option<String>, String)> {
        let mut out = Vec::new();
        for_each_fn(ast, &mut |owner, f| {
            out.push((owner.map(str::to_string), f.name.clone()));
        });
        out
    }

    #[test]
    fn items_and_impls_are_found() {
        let ast = parse_src(
            "struct P { a: u8, b: Vec<u8> }\n\
             impl P {\n    pub fn new(a: u8) -> Self { P { a, b: Vec::new() } }\n}\n\
             fn free(x: u64, (l, r): (u8, u8)) -> u64 { x }\n\
             mod inner { fn nested() {} }\n",
        );
        assert_eq!(
            fns(&ast),
            vec![
                (Some("P".to_string()), "new".to_string()),
                (None, "free".to_string()),
                (None, "nested".to_string()),
            ]
        );
        let Item::Struct { name, fields, .. } = &ast.items[0] else {
            panic!("expected struct, got {:?}", ast.items[0]);
        };
        assert_eq!(name, "P");
        assert_eq!(fields, &["a", "b"]);
    }

    #[test]
    fn params_collect_binders_including_self_and_tuples() {
        let ast = parse_src("impl T { fn m(&mut self, x: u8, (a, b): (u8, u8)) {} }");
        let mut params = Vec::new();
        for_each_fn(&ast, &mut |_, f| {
            params = f.params.iter().map(|p| p.names.clone()).collect();
        });
        assert_eq!(params, vec![vec!["self"], vec!["x"], vec!["a", "b"]]);
    }

    #[test]
    fn let_bindings_and_calls() {
        let ast = parse_src("fn f() { let y = helper(a, b.c); y.method(1); }");
        let Item::Fn(func) = &ast.items[0] else {
            panic!()
        };
        let Stmt::Let { names, init, .. } = &func.body.stmts[0] else {
            panic!("{:?}", func.body.stmts[0])
        };
        assert_eq!(names, &["y"]);
        let Some(Expr::Call { path, args, .. }) = init else {
            panic!("{init:?}")
        };
        assert_eq!(path, &["helper"]);
        assert_eq!(args.len(), 2);
        assert!(matches!(args[1], Expr::Field { .. }));
        let Stmt::Expr(Expr::MethodCall { name, .. }) = &func.body.stmts[1] else {
            panic!("{:?}", func.body.stmts[1])
        };
        assert_eq!(name, "method");
    }

    #[test]
    fn if_while_match_conditions_no_struct_lit() {
        let ast = parse_src(
            "fn f(x: u8) { if x == 1 { } while x < 2 { } match x { 0 => 1, n if n > 3 => n, _ => 0 }; }",
        );
        let Item::Fn(func) = &ast.items[0] else {
            panic!()
        };
        assert!(matches!(
            &func.body.stmts[0],
            Stmt::Expr(Expr::If { cond, .. }) if matches!(**cond, Expr::Binary { .. })
        ));
        assert!(matches!(
            &func.body.stmts[1],
            Stmt::Expr(Expr::While { .. })
        ));
        let Stmt::Expr(Expr::Match { arms, .. }) = &func.body.stmts[2] else {
            panic!("{:?}", func.body.stmts[2])
        };
        assert_eq!(arms.len(), 3);
        assert!(arms[1].guard.is_some());
        assert_eq!(arms[1].binds, vec!["n"]);
    }

    #[test]
    fn if_let_binds_and_scrutinee() {
        let ast = parse_src("fn f(o: Option<u8>) { if let Some(v) = o { v; } }");
        let Item::Fn(func) = &ast.items[0] else {
            panic!()
        };
        let Stmt::Expr(Expr::If { cond, binds, .. }) = &func.body.stmts[0] else {
            panic!("{:?}", func.body.stmts[0])
        };
        assert_eq!(binds, &["v"]);
        assert!(matches!(**cond, Expr::Path { ref segs, .. } if segs == &["o"]));
    }

    #[test]
    fn struct_literals_and_functional_update() {
        let ast = parse_src("fn f() { let p = Policy { max: 3, kind, ..Default::default() }; }");
        let Item::Fn(func) = &ast.items[0] else {
            panic!()
        };
        let Stmt::Let {
            init: Some(Expr::StructLit { path, fields, .. }),
            ..
        } = &func.body.stmts[0]
        else {
            panic!("{:?}", func.body.stmts[0])
        };
        assert_eq!(path, &["Policy"]);
        assert_eq!(fields[0].name, "max");
        assert!(fields[1].value.is_none(), "shorthand field");
        assert_eq!(fields[2].name, "..", "functional-update base");
    }

    /// A `Path { .. }` rest pattern in expression position (the
    /// `matches!` idiom) must not swallow the closing brace — that
    /// desyncs the parser and folds every following item into one body.
    #[test]
    fn bare_rest_pattern_in_matches_does_not_desync() {
        let ast = parse_src(
            "fn f(v: &Verdict) -> K { if matches!(v, Verdict::Corrupt { .. }) { K::A } else { K::B } }\n\
             fn g() -> Policy { Policy { max: 3 } }",
        );
        let fns: Vec<&str> = ast
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Fn(f) => Some(f.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(fns, ["f", "g"], "both items must survive the rest pattern");
    }

    #[test]
    fn macros_and_repeat_arrays() {
        let ast = parse_src("fn f(n: usize) { let v = vec![0u8; n]; let a = [1; n]; }");
        let Item::Fn(func) = &ast.items[0] else {
            panic!()
        };
        let Stmt::Let {
            init:
                Some(Expr::Macro {
                    name,
                    args,
                    semi_at,
                    ..
                }),
            ..
        } = &func.body.stmts[0]
        else {
            panic!("{:?}", func.body.stmts[0])
        };
        assert_eq!(name, "vec");
        assert_eq!(args.len(), 2);
        assert_eq!(*semi_at, Some(1));
        assert!(matches!(
            &func.body.stmts[1],
            Stmt::Let {
                init: Some(Expr::Repeat { .. }),
                ..
            }
        ));
    }

    #[test]
    fn closures_and_for_loops() {
        let ast = parse_src("fn f(v: Vec<u8>) { for x in v.iter() { } v.map(|e| e + 1); }");
        let Item::Fn(func) = &ast.items[0] else {
            panic!()
        };
        let Stmt::Expr(Expr::For { binds, iter, .. }) = &func.body.stmts[0] else {
            panic!("{:?}", func.body.stmts[0])
        };
        assert_eq!(binds, &["x"]);
        assert!(matches!(**iter, Expr::MethodCall { .. }));
        let Stmt::Expr(Expr::MethodCall { args, .. }) = &func.body.stmts[1] else {
            panic!()
        };
        assert!(matches!(args[0], Expr::Closure { .. }));
    }

    #[test]
    fn generics_and_turbofish_do_not_derail() {
        let ast = parse_src(
            "fn f<T: Clone>(x: Vec<Vec<u8>>) -> Option<T> where T: Default {\n\
                 let v = Vec::<u8>::with_capacity(4);\n\
                 let c: Vec<u8> = x.iter().flatten().copied().collect::<Vec<u8>>();\n\
                 None\n\
             }",
        );
        let Item::Fn(func) = &ast.items[0] else {
            panic!()
        };
        assert_eq!(func.params.len(), 1);
        assert_eq!(func.body.stmts.len(), 3);
        let Stmt::Let {
            init: Some(Expr::Call { path, .. }),
            ..
        } = &func.body.stmts[0]
        else {
            panic!("{:?}", func.body.stmts[0])
        };
        assert_eq!(path, &["Vec", "with_capacity"]);
    }

    #[test]
    fn trait_default_methods_are_functions() {
        let ast = parse_src("trait T { fn required(&self); fn provided(&self) -> u8 { 1 } }");
        assert_eq!(
            fns(&ast),
            vec![
                (Some("T".to_string()), "required".to_string()),
                (Some("T".to_string()), "provided".to_string()),
            ]
        );
    }

    #[test]
    fn tolerant_on_unmodelled_syntax() {
        // Lifetimes, labels, async blocks, weird macros: parse something,
        // never panic, still find the fn.
        let ast = parse_src(
            "fn f<'a>(x: &'a [u8]) -> &'a [u8] {\n\
                 'outer: loop { break 'outer; }\n\
                 matches!(x.len(), 0 | 1);\n\
                 x\n\
             }",
        );
        assert_eq!(fns(&ast).len(), 1);
    }

    #[test]
    fn let_else_is_parsed() {
        let ast = parse_src("fn f(o: Option<u8>) -> u8 { let Some(v) = o else { return 0; }; v }");
        let Item::Fn(func) = &ast.items[0] else {
            panic!()
        };
        let Stmt::Let {
            names, else_block, ..
        } = &func.body.stmts[0]
        else {
            panic!("{:?}", func.body.stmts[0])
        };
        assert_eq!(names, &["v"]);
        assert!(else_block.is_some());
    }

    #[test]
    fn use_paths_are_recorded() {
        let ast = parse_src("use secmed_crypto::metrics::{count, Op};\nuse std::fmt;\n");
        let Item::Use { path, .. } = &ast.items[0] else {
            panic!("{:?}", ast.items[0])
        };
        assert_eq!(path, &["secmed_crypto", "metrics"]);
    }
}
