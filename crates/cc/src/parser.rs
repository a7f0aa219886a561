//! Recursive-descent parser for mini-C.

use crate::ast::*;
use crate::diag::{Diag, DiagKind};
use crate::lexer::Lexer;
use crate::token::{Token, TokenKind};

/// Parses one mini-C translation unit.
///
/// # Example
///
/// ```
/// use pata_cc::Parser;
///
/// let unit = Parser::parse_source("u.c", "int f(int x) { return x + 1; }").unwrap();
/// assert_eq!(unit.functions.len(), 1);
/// assert_eq!(unit.functions[0].name, "f");
/// ```
#[derive(Debug)]
pub struct Parser {
    file: String,
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Lexes and parses `source` into a [`Unit`].
    ///
    /// # Errors
    ///
    /// Returns the first lexical or syntactic error.
    pub fn parse_source(file: &str, source: &str) -> Result<Unit, Diag> {
        let tokens = Lexer::new(file, source).lex()?;
        let lines = source.lines().count() as u32;
        let mut parser = Parser {
            file: file.to_owned(),
            tokens,
            pos: 0,
        };
        let mut unit = parser.parse_unit()?;
        unit.lines = lines;
        Ok(unit)
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        &self.tokens[(self.pos + offset).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), Diag> {
        if self.peek() == &kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<String, Diag> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    /// Skips an array declarator's size up to and including its `]` (the
    /// analysis is array-insensitive). Errors at end of input instead of
    /// spinning on the `Eof` token, which `bump` never moves past.
    fn skip_array_size(&mut self) -> Result<(), Diag> {
        while !matches!(self.peek(), TokenKind::RBracket | TokenKind::Eof) {
            self.bump();
        }
        self.expect(TokenKind::RBracket)
    }

    fn err(&self, message: impl Into<String>) -> Diag {
        Diag::new(DiagKind::Parse, &self.file, self.line(), message)
    }

    fn parse_unit(&mut self) -> Result<Unit, Diag> {
        let mut unit = Unit {
            file: self.file.clone(),
            ..Unit::default()
        };
        while self.peek() != &TokenKind::Eof {
            self.parse_top_level(&mut unit)?;
        }
        Ok(unit)
    }

    fn skip_qualifiers(&mut self) {
        while matches!(
            self.peek(),
            TokenKind::KwStatic | TokenKind::KwConst | TokenKind::KwInline | TokenKind::KwUnsigned
        ) {
            self.bump();
        }
    }

    fn at_type_start(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::KwInt
                | TokenKind::KwVoid
                | TokenKind::KwChar
                | TokenKind::KwLong
                | TokenKind::KwUnsigned
                | TokenKind::KwStruct
                | TokenKind::KwConst
        )
    }

    /// Parses a base type plus pointer stars.
    fn parse_type(&mut self) -> Result<TypeExpr, Diag> {
        self.skip_qualifiers();
        let base = match self.bump() {
            TokenKind::KwInt | TokenKind::KwChar | TokenKind::KwLong => TypeExpr::Int,
            TokenKind::KwVoid => TypeExpr::Void,
            TokenKind::KwStruct => {
                let name = self.expect_ident()?;
                TypeExpr::Struct(name)
            }
            other => return Err(self.err(format!("expected type, found {other}"))),
        };
        let mut levels = 0;
        loop {
            self.skip_qualifiers();
            if self.eat(&TokenKind::Star) {
                levels += 1;
            } else {
                break;
            }
        }
        Ok(base.with_pointers(levels))
    }

    fn parse_top_level(&mut self, unit: &mut Unit) -> Result<(), Diag> {
        self.skip_qualifiers();
        let line = self.line();
        // struct definition: `struct name { … };`
        if self.peek() == &TokenKind::KwStruct
            && matches!(self.peek_at(1), TokenKind::Ident(_))
            && self.peek_at(2) == &TokenKind::LBrace
        {
            self.bump();
            let name = self.expect_ident()?;
            self.expect(TokenKind::LBrace)?;
            let mut fields = Vec::new();
            while self.peek() != &TokenKind::RBrace {
                let fty = self.parse_type()?;
                let fname = self.expect_ident()?;
                // Fixed-size array fields become the element type (the
                // analysis is array-insensitive anyway).
                if self.eat(&TokenKind::LBracket) {
                    self.skip_array_size()?;
                }
                self.expect(TokenKind::Semi)?;
                fields.push((fname, fty));
            }
            self.expect(TokenKind::RBrace)?;
            self.expect(TokenKind::Semi)?;
            unit.structs.push(StructDecl { name, fields, line });
            return Ok(());
        }

        let ty = self.parse_type()?;
        let name = self.expect_ident()?;

        if self.peek() == &TokenKind::LParen {
            // Function definition or prototype.
            self.bump();
            let mut params = Vec::new();
            if self.peek() != &TokenKind::RParen {
                loop {
                    if self.peek() == &TokenKind::KwVoid && self.peek_at(1) == &TokenKind::RParen {
                        self.bump();
                        break;
                    }
                    let pty = self.parse_type()?;
                    let pname = match self.peek() {
                        TokenKind::Ident(_) => self.expect_ident()?,
                        // Unnamed parameter (prototype) — synthesize.
                        _ => format!("__arg{}", params.len()),
                    };
                    if self.eat(&TokenKind::LBracket) {
                        self.expect(TokenKind::RBracket)?;
                    }
                    params.push(ParamDecl {
                        name: pname,
                        ty: pty,
                    });
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen)?;
            if self.eat(&TokenKind::Semi) {
                // Prototype: declaration only, no body — ignore.
                return Ok(());
            }
            self.expect(TokenKind::LBrace)?;
            let body = self.parse_block_body()?;
            unit.functions.push(FuncDecl {
                name,
                ret: ty,
                params,
                body,
                line,
            });
            return Ok(());
        }

        // Global variable, possibly with designated initializers.
        let mut registered = Vec::new();
        if self.eat(&TokenKind::Assign) {
            if self.eat(&TokenKind::LBrace) {
                while self.peek() != &TokenKind::RBrace {
                    if self.eat(&TokenKind::Dot) {
                        let _field = self.expect_ident()?;
                        self.expect(TokenKind::Assign)?;
                        if let TokenKind::Ident(f) = self.peek().clone() {
                            self.bump();
                            registered.push(f);
                        } else {
                            // Non-function initializer value.
                            let _ = self.parse_assignment()?;
                        }
                    } else {
                        let _ = self.parse_assignment()?;
                    }
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RBrace)?;
            } else {
                let _ = self.parse_assignment()?;
            }
        }
        self.expect(TokenKind::Semi)?;
        unit.globals.push(GlobalDecl {
            name,
            ty,
            registered_funcs: registered,
            line,
        });
        Ok(())
    }

    /// Parses statements until the closing `}` (which is consumed).
    fn parse_block_body(&mut self) -> Result<Vec<Stmt>, Diag> {
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            if self.peek() == &TokenKind::Eof {
                return Err(self.err("unexpected end of input in block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, Diag> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::LBrace => {
                self.bump();
                let body = self.parse_block_body()?;
                Ok(Stmt::new(StmtKind::Block(body), line))
            }
            TokenKind::KwIf => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.parse_assignment()?;
                self.expect(TokenKind::RParen)?;
                let then_body = self.parse_stmt_as_block()?;
                let else_body = if self.eat(&TokenKind::KwElse) {
                    self.parse_stmt_as_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::new(
                    StmtKind::If {
                        cond,
                        then_body,
                        else_body,
                    },
                    line,
                ))
            }
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.parse_assignment()?;
                self.expect(TokenKind::RParen)?;
                let body = self.parse_stmt_as_block()?;
                Ok(Stmt::new(StmtKind::While { cond, body }, line))
            }
            TokenKind::KwFor => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let init = if self.peek() == &TokenKind::Semi {
                    self.bump();
                    None
                } else {
                    let s = self.parse_simple_stmt()?;
                    self.expect(TokenKind::Semi)?;
                    Some(Box::new(s))
                };
                let cond = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.parse_assignment()?)
                };
                self.expect(TokenKind::Semi)?;
                let step = if self.peek() == &TokenKind::RParen {
                    None
                } else {
                    Some(Box::new(self.parse_simple_stmt()?))
                };
                self.expect(TokenKind::RParen)?;
                let body = self.parse_stmt_as_block()?;
                Ok(Stmt::new(
                    StmtKind::For {
                        init,
                        cond,
                        step,
                        body,
                    },
                    line,
                ))
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.parse_assignment()?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::new(StmtKind::Return(value), line))
            }
            TokenKind::KwGoto => {
                self.bump();
                let label = self.expect_ident()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::new(StmtKind::Goto(label), line))
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::new(StmtKind::Break, line))
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::new(StmtKind::Continue, line))
            }
            TokenKind::Ident(_) if self.peek_at(1) == &TokenKind::Colon => {
                let label = self.expect_ident()?;
                self.expect(TokenKind::Colon)?;
                Ok(Stmt::new(StmtKind::Label(label), line))
            }
            TokenKind::Semi => {
                self.bump();
                Ok(Stmt::new(StmtKind::Block(Vec::new()), line))
            }
            _ => {
                let s = self.parse_simple_stmt()?;
                self.expect(TokenKind::Semi)?;
                Ok(s)
            }
        }
    }

    fn parse_stmt_as_block(&mut self) -> Result<Vec<Stmt>, Diag> {
        if self.eat(&TokenKind::LBrace) {
            self.parse_block_body()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    /// A declaration or expression statement, *without* the trailing `;`
    /// (shared between statement and `for`-clause positions).
    fn parse_simple_stmt(&mut self) -> Result<Stmt, Diag> {
        let line = self.line();
        if self.at_type_start() {
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            let mut is_array = false;
            if self.eat(&TokenKind::LBracket) {
                self.skip_array_size()?;
                is_array = true;
            }
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.parse_assignment()?)
            } else {
                None
            };
            return Ok(Stmt::new(
                StmtKind::Decl {
                    ty,
                    name,
                    init,
                    is_array,
                },
                line,
            ));
        }
        let expr = self.parse_assignment()?;
        match expr.kind {
            ExprKind::Assign(lhs, rhs) => Ok(Stmt::new(
                StmtKind::Assign {
                    lhs: *lhs,
                    rhs: *rhs,
                },
                line,
            )),
            _ => Ok(Stmt::new(StmtKind::Expr(expr), line)),
        }
    }

    /// assignment := logical-or (`=` assignment)? | compound/incdec sugar
    fn parse_assignment(&mut self) -> Result<Expr, Diag> {
        let line = self.line();
        let lhs = self.parse_binary(0)?;
        match self.peek() {
            TokenKind::Assign => {
                self.bump();
                let rhs = self.parse_assignment()?;
                Ok(Expr::new(
                    ExprKind::Assign(Box::new(lhs), Box::new(rhs)),
                    line,
                ))
            }
            TokenKind::PlusAssign => {
                self.bump();
                let rhs = self.parse_assignment()?;
                let sum = Expr::new(
                    ExprKind::Bin(AstBinOp::Add, Box::new(lhs.clone()), Box::new(rhs)),
                    line,
                );
                Ok(Expr::new(
                    ExprKind::Assign(Box::new(lhs), Box::new(sum)),
                    line,
                ))
            }
            TokenKind::MinusAssign => {
                self.bump();
                let rhs = self.parse_assignment()?;
                let diff = Expr::new(
                    ExprKind::Bin(AstBinOp::Sub, Box::new(lhs.clone()), Box::new(rhs)),
                    line,
                );
                Ok(Expr::new(
                    ExprKind::Assign(Box::new(lhs), Box::new(diff)),
                    line,
                ))
            }
            TokenKind::PlusPlus => {
                self.bump();
                let one = Expr::new(ExprKind::Int(1), line);
                let sum = Expr::new(
                    ExprKind::Bin(AstBinOp::Add, Box::new(lhs.clone()), Box::new(one)),
                    line,
                );
                Ok(Expr::new(
                    ExprKind::Assign(Box::new(lhs), Box::new(sum)),
                    line,
                ))
            }
            TokenKind::MinusMinus => {
                self.bump();
                let one = Expr::new(ExprKind::Int(1), line);
                let diff = Expr::new(
                    ExprKind::Bin(AstBinOp::Sub, Box::new(lhs.clone()), Box::new(one)),
                    line,
                );
                Ok(Expr::new(
                    ExprKind::Assign(Box::new(lhs), Box::new(diff)),
                    line,
                ))
            }
            _ => Ok(lhs),
        }
    }

    fn binop_at(&self, level: usize) -> Option<AstBinOp> {
        let op = match (level, self.peek()) {
            (0, TokenKind::OrOr) => AstBinOp::LogOr,
            (1, TokenKind::AndAnd) => AstBinOp::LogAnd,
            (2, TokenKind::Pipe) => AstBinOp::BitOr,
            (3, TokenKind::Caret) => AstBinOp::BitXor,
            (4, TokenKind::Amp) => AstBinOp::BitAnd,
            (5, TokenKind::EqEq) => AstBinOp::Eq,
            (5, TokenKind::NotEq) => AstBinOp::Ne,
            (6, TokenKind::Lt) => AstBinOp::Lt,
            (6, TokenKind::Le) => AstBinOp::Le,
            (6, TokenKind::Gt) => AstBinOp::Gt,
            (6, TokenKind::Ge) => AstBinOp::Ge,
            (7, TokenKind::Shl) => AstBinOp::Shl,
            (7, TokenKind::Shr) => AstBinOp::Shr,
            (8, TokenKind::Plus) => AstBinOp::Add,
            (8, TokenKind::Minus) => AstBinOp::Sub,
            (9, TokenKind::Star) => AstBinOp::Mul,
            (9, TokenKind::Slash) => AstBinOp::Div,
            (9, TokenKind::Percent) => AstBinOp::Rem,
            _ => return None,
        };
        Some(op)
    }

    const MAX_LEVEL: usize = 9;

    fn parse_binary(&mut self, level: usize) -> Result<Expr, Diag> {
        if level > Self::MAX_LEVEL {
            return self.parse_unary();
        }
        let mut lhs = self.parse_binary(level + 1)?;
        loop {
            let line = self.line();
            let Some(op) = self.binop_at(level) else {
                break;
            };
            self.bump();
            let rhs = self.parse_binary(level + 1)?;
            lhs = Expr::new(ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)), line);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, Diag> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::Star => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Deref(Box::new(e)), line))
            }
            TokenKind::Amp => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::AddrOf(Box::new(e)), line))
            }
            TokenKind::Not => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Not(Box::new(e)), line))
            }
            TokenKind::Minus => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Neg(Box::new(e)), line))
            }
            TokenKind::Tilde => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::BitNot(Box::new(e)), line))
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                // Prefix increment/decrement as statement sugar.
                let is_inc = self.bump() == TokenKind::PlusPlus;
                let e = self.parse_unary()?;
                let one = Expr::new(ExprKind::Int(1), line);
                let op = if is_inc { AstBinOp::Add } else { AstBinOp::Sub };
                let upd = Expr::new(ExprKind::Bin(op, Box::new(e.clone()), Box::new(one)), line);
                Ok(Expr::new(
                    ExprKind::Assign(Box::new(e), Box::new(upd)),
                    line,
                ))
            }
            TokenKind::KwSizeof => {
                self.bump();
                if self.eat(&TokenKind::LParen) {
                    // sizeof(type) or sizeof(expr) — skip to matching paren.
                    let mut depth = 1;
                    while depth > 0 {
                        match self.bump() {
                            TokenKind::LParen => depth += 1,
                            TokenKind::RParen => depth -= 1,
                            TokenKind::Eof => return Err(self.err("unterminated sizeof")),
                            _ => {}
                        }
                    }
                } else {
                    let _ = self.parse_unary()?;
                }
                Ok(Expr::new(ExprKind::Sizeof, line))
            }
            TokenKind::LParen if self.is_cast_start() => {
                self.bump();
                let ty = self.parse_type()?;
                self.expect(TokenKind::RParen)?;
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Cast(ty, Box::new(e)), line))
            }
            _ => self.parse_postfix(),
        }
    }

    /// Whether the upcoming `(`-token starts a cast like `(struct s *)`.
    fn is_cast_start(&self) -> bool {
        debug_assert_eq!(self.peek(), &TokenKind::LParen);
        matches!(
            self.peek_at(1),
            TokenKind::KwInt
                | TokenKind::KwVoid
                | TokenKind::KwChar
                | TokenKind::KwLong
                | TokenKind::KwUnsigned
                | TokenKind::KwStruct
                | TokenKind::KwConst
        )
    }

    fn parse_postfix(&mut self) -> Result<Expr, Diag> {
        let mut e = self.parse_primary()?;
        loop {
            let line = self.line();
            match self.peek() {
                TokenKind::Arrow => {
                    self.bump();
                    let field = self.expect_ident()?;
                    e = Expr::new(ExprKind::Arrow(Box::new(e), field), line);
                }
                TokenKind::Dot => {
                    self.bump();
                    let field = self.expect_ident()?;
                    e = Expr::new(ExprKind::Dot(Box::new(e), field), line);
                }
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.parse_assignment()?;
                    self.expect(TokenKind::RBracket)?;
                    e = Expr::new(ExprKind::Index(Box::new(e), Box::new(idx)), line);
                }
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &TokenKind::RParen {
                        loop {
                            args.push(self.parse_assignment()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    e = Expr::new(ExprKind::Call(Box::new(e), args), line);
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<Expr, Diag> {
        let line = self.line();
        match self.bump() {
            TokenKind::Int(v) => Ok(Expr::new(ExprKind::Int(v), line)),
            TokenKind::KwNull => Ok(Expr::new(ExprKind::Null, line)),
            TokenKind::Str(s) => Ok(Expr::new(ExprKind::Str(s), line)),
            TokenKind::Ident(name) => Ok(Expr::new(ExprKind::Ident(name), line)),
            TokenKind::LParen => {
                let e = self.parse_assignment()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(Diag::new(
                DiagKind::Parse,
                &self.file,
                line,
                format!("expected expression, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Unit {
        Parser::parse_source("t.c", src).unwrap()
    }

    #[test]
    fn struct_definition() {
        let u = parse("struct dev { int *data; struct dev *next; };");
        assert_eq!(u.structs.len(), 1);
        assert_eq!(u.structs[0].fields.len(), 2);
        assert_eq!(
            u.structs[0].fields[1].1,
            TypeExpr::Ptr(Box::new(TypeExpr::Struct("dev".into())))
        );
    }

    #[test]
    fn driver_registration_global() {
        let u = parse(
            "static struct platform_driver s5p_mfc_driver = {\
              .probe = s5p_mfc_probe, .remove = s5p_mfc_remove };",
        );
        assert_eq!(u.globals.len(), 1);
        assert_eq!(
            u.globals[0].registered_funcs,
            vec!["s5p_mfc_probe", "s5p_mfc_remove"]
        );
    }

    #[test]
    fn function_with_control_flow() {
        let u = parse(
            "int f(struct a *p, int n) {\n\
               int i;\n\
               for (i = 0; i < n; i++) {\n\
                 if (p->data == NULL) { goto fail; }\n\
               }\n\
               return 0;\n\
             fail:\n\
               return -1;\n\
             }",
        );
        assert_eq!(u.functions.len(), 1);
        let f = &u.functions[0];
        assert_eq!(f.params.len(), 2);
        assert!(matches!(f.body[1].kind, StmtKind::For { .. }));
        assert!(matches!(f.body[3].kind, StmtKind::Label(_)));
    }

    #[test]
    fn prototypes_are_skipped() {
        let u = parse("int declared_only(int x);\nint real(void) { return 0; }");
        assert_eq!(u.functions.len(), 1);
        assert_eq!(u.functions[0].name, "real");
    }

    #[test]
    fn expression_forms() {
        let u = parse(
            "int f(struct s *p, int *a, int i) {\n\
               int x = p->f + a[i] * 2;\n\
               x += *a;\n\
               x = (int)x << 3 & 7;\n\
               if (!p || p->g != NULL && x >= 0) { x = -x; }\n\
               return sizeof(struct s) + x;\n\
             }",
        );
        assert_eq!(u.functions.len(), 1);
    }

    #[test]
    fn assign_in_condition() {
        let u =
            parse("int g(void) { int *m; if ((m = alloc(4)) == NULL) { return -1; } return 0; }");
        let f = &u.functions[0];
        assert!(matches!(f.body[1].kind, StmtKind::If { .. }));
    }

    #[test]
    fn increments_desugar_to_assign() {
        let u = parse("void f(void) { int i = 0; i++; --i; i += 2; }");
        let f = &u.functions[0];
        assert!(f.body[1..]
            .iter()
            .all(|s| matches!(s.kind, StmtKind::Assign { .. })));
    }

    #[test]
    fn error_reports_line() {
        let err = Parser::parse_source("t.c", "int f(void) {\n  return 1 +;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn line_count_recorded() {
        let u = parse("int f(void)\n{\n return 0;\n}\n");
        assert_eq!(u.lines, 4);
    }
}
