"""Recursive-descent parser for the OpenCL-C subset.

Grammar (see module tests for accepted programs)::

    program       := (channel_decl | kernel_def)*
    channel_decl  := "channel" type IDENT ("[" NUMBER "]")? attributes? ";"
    kernel_def    := attributes* ("__kernel"|"kernel") "void" IDENT
                     "(" parameters? ")" block
    attributes    := "__attribute__" "(" "(" attr ("," attr)* ")" ")"

Statements and expressions follow C with standard precedence. Casts,
``&identifier`` (for the non-blocking channel valid flag), ``++``/``--``
and compound assignment are supported because the paper's listings use
them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import FrontendError, Token, tokenize

#: Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1, "&&": 2,
    "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%="}


class Parser:
    """One-token-lookahead recursive descent."""

    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._position = 0

    # -- token helpers -----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._position]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        self._position += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._current
        return token.kind == kind and (text is None or token.text == text)

    def _match(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self._check(kind, text):
            token = self._current
            wanted = text or kind
            raise FrontendError(
                f"expected {wanted!r}, got {token.text!r}",
                line=token.line, column=token.column)
        return self._advance()

    @staticmethod
    def _at(node: ast.Node, token: Token) -> ast.Node:
        """Stamp ``node`` with ``token``'s source position."""
        node.line = token.line
        node.column = token.column
        return node

    # -- top level ---------------------------------------------------------

    def parse_program(self) -> ast.Program:
        channels: List[ast.ChannelDecl] = []
        kernels: List[ast.KernelDef] = []
        while not self._check("eof"):
            if self._check("keyword", "channel"):
                channels.append(self._channel_decl())
            else:
                kernels.append(self._kernel_def())
        return ast.Program(channels=channels, kernels=kernels)

    def _attributes(self) -> List[ast.Attribute]:
        attributes: List[ast.Attribute] = []
        while self._match("keyword", "__attribute__"):
            self._expect("op", "(")
            self._expect("op", "(")
            while True:
                name = self._expect("ident").text
                args: List[int] = []
                if self._match("op", "("):
                    while not self._check("op", ")"):
                        args.append(int(self._expect("number").text, 0))
                        if not self._match("op", ","):
                            break
                    self._expect("op", ")")
                attributes.append(ast.Attribute(name=name, args=args))
                if not self._match("op", ","):
                    break
            self._expect("op", ")")
            self._expect("op", ")")
        return attributes

    def _channel_decl(self) -> ast.ChannelDecl:
        start = self._expect("keyword", "channel")
        type_name = self._expect("type").text
        name = self._expect("ident").text
        count: Optional[int] = None
        if self._match("op", "["):
            count = int(self._expect("number").text, 0)
            self._expect("op", "]")
        attributes = self._attributes()
        self._expect("op", ";")
        return self._at(ast.ChannelDecl(type_name=type_name, name=name,
                                        count=count, attributes=attributes),
                        start)

    def _kernel_def(self) -> ast.KernelDef:
        start = self._current
        attributes = self._attributes()
        if not (self._match("keyword", "__kernel")
                or self._match("keyword", "kernel")):
            token = self._current
            raise FrontendError(
                f"expected a kernel definition, got {token.text!r}",
                line=token.line, column=token.column)
        # Trailing attributes may also appear after the qualifier.
        attributes += self._attributes()
        self._expect("keyword", "void")
        name = self._expect("ident").text
        self._expect("op", "(")
        parameters: List[ast.Parameter] = []
        if not self._check("op", ")"):
            while True:
                parameters.append(self._parameter())
                if not self._match("op", ","):
                    break
        self._expect("op", ")")
        body = self._block()
        return self._at(ast.KernelDef(name=name, parameters=parameters,
                                      body=body, attributes=attributes),
                        start)

    def _parameter(self) -> ast.Parameter:
        is_global = bool(self._match("keyword", "__global")
                         or self._match("keyword", "global"))
        if self._match("keyword", "void"):
            # "void" parameter list — no actual parameter.
            return ast.Parameter(type_name="void", name="", is_global_pointer=False)
        type_name = self._expect("type").text
        is_pointer = bool(self._match("op", "*"))
        name = self._expect("ident").text
        return ast.Parameter(type_name=type_name, name=name,
                             is_global_pointer=is_global or is_pointer)

    # -- statements ----------------------------------------------------------

    def _block(self) -> ast.Block:
        start = self._expect("op", "{")
        statements: List[ast.Node] = []
        while not self._check("op", "}"):
            statements.append(self._statement())
        self._expect("op", "}")
        return self._at(ast.Block(statements=statements), start)

    def _statement(self) -> ast.Node:
        start = self._current
        if self._check("op", "{"):
            return self._block()
        if (self._check("keyword", "__local")
                or self._check("keyword", "local")
                or self._check("keyword", "__private")):
            qualifier = self._advance().text
            declaration = self._declaration()
            declaration.is_local = qualifier in ("__local", "local")
            return self._at(declaration, start)
        if self._check("type"):
            return self._declaration()
        if self._check("keyword", "if"):
            return self._if()
        if self._check("keyword", "for"):
            return self._for()
        if self._check("keyword", "while"):
            return self._while()
        if self._check("keyword", "switch"):
            return self._switch()
        if self._match("keyword", "return"):
            value = None if self._check("op", ";") else self._expression()
            self._expect("op", ";")
            return self._at(ast.Return(value=value), start)
        if self._match("keyword", "break"):
            self._expect("op", ";")
            return self._at(ast.Break(), start)
        if self._match("keyword", "continue"):
            self._expect("op", ";")
            return self._at(ast.Continue(), start)
        expr = self._expression()
        self._expect("op", ";")
        return self._at(ast.ExprStatement(expr=expr), start)

    def _declaration(self) -> ast.Declaration:
        start = self._current
        type_name = self._expect("type").text
        names = []
        array_sizes = {}
        while True:
            name = self._expect("ident").text
            initializer = None
            if self._match("op", "["):
                if self._check("number"):
                    array_sizes[name] = int(self._advance().text, 0)
                else:
                    # Identifier size: a define resolved at execution.
                    array_sizes[name] = self._expect("ident").text
                self._expect("op", "]")
            elif self._match("op", "="):
                initializer = self._expression()
            names.append((name, initializer))
            if not self._match("op", ","):
                break
        self._expect("op", ";")
        return self._at(ast.Declaration(type_name=type_name, names=names,
                                        array_sizes=array_sizes), start)

    def _if(self) -> ast.If:
        start = self._expect("keyword", "if")
        self._expect("op", "(")
        condition = self._expression()
        self._expect("op", ")")
        then_branch = self._statement()
        else_branch = None
        if self._match("keyword", "else"):
            else_branch = self._statement()
        return self._at(ast.If(condition=condition, then_branch=then_branch,
                               else_branch=else_branch), start)

    def _for(self) -> ast.For:
        start = self._expect("keyword", "for")
        self._expect("op", "(")
        init: Optional[ast.Node] = None
        if not self._check("op", ";"):
            if self._check("type"):
                init = self._declaration()     # consumes the ';'
            else:
                init = ast.ExprStatement(expr=self._expression())
                self._expect("op", ";")
        else:
            self._expect("op", ";")
        condition = None if self._check("op", ";") else self._expression()
        self._expect("op", ";")
        step = None if self._check("op", ")") else self._expression()
        self._expect("op", ")")
        body = self._statement()
        return self._at(ast.For(init=init, condition=condition, step=step,
                                body=body), start)

    def _switch(self) -> ast.Switch:
        start = self._expect("keyword", "switch")
        self._expect("op", "(")
        subject = self._expression()
        self._expect("op", ")")
        self._expect("op", "{")
        cases: List[ast.SwitchCase] = []
        while not self._check("op", "}"):
            case_start = self._current
            if self._match("keyword", "case"):
                label: Optional[ast.Node] = self._expression()
            else:
                self._expect("keyword", "default")
                label = None
            self._expect("op", ":")
            statements: List[ast.Node] = []
            while not (self._check("keyword", "case")
                       or self._check("keyword", "default")
                       or self._check("op", "}")):
                statements.append(self._statement())
            cases.append(self._at(
                ast.SwitchCase(label=label, statements=statements),
                case_start))
        self._expect("op", "}")
        return self._at(ast.Switch(subject=subject, cases=cases), start)

    def _while(self) -> ast.While:
        start = self._expect("keyword", "while")
        self._expect("op", "(")
        condition = self._expression()
        self._expect("op", ")")
        body = self._statement()
        return self._at(ast.While(condition=condition, body=body), start)

    # -- expressions -----------------------------------------------------------

    def _expression(self) -> ast.Node:
        return self._assignment()

    def _assignment(self) -> ast.Node:
        start = self._current
        left = self._binary(0)
        if self._current.kind == "op" and self._current.text in _ASSIGN_OPS:
            token = self._advance()
            if not isinstance(left, (ast.Name, ast.Subscript)):
                raise FrontendError("invalid assignment target",
                                    line=token.line, column=token.column)
            value = self._assignment()
            return self._at(ast.Assign(target=left, op=token.text,
                                       value=value), start)
        return left

    def _binary(self, min_precedence: int) -> ast.Node:
        left = self._unary()
        while (self._current.kind == "op"
               and self._current.text in _PRECEDENCE
               and _PRECEDENCE[self._current.text] >= min_precedence):
            token = self._advance()
            right = self._binary(_PRECEDENCE[token.text] + 1)
            left = self._at(ast.Binary(op=token.text, left=left, right=right),
                            token)
        return left

    def _unary(self) -> ast.Node:
        if self._current.kind == "op" and self._current.text in ("-", "!", "~"):
            token = self._advance()
            return self._at(ast.Unary(op=token.text, operand=self._unary()),
                            token)
        amp = self._match("op", "&")
        if amp is not None:
            return self._at(ast.AddressOf(target=self._unary()), amp)
        # Cast: "(" type [*] ")" unary
        if (self._check("op", "(") and self._peek().kind == "type"):
            offset = 2
            while self._peek(offset).kind == "op" and self._peek(offset).text == "*":
                offset += 1
            if self._peek(offset).kind == "op" and self._peek(offset).text == ")":
                paren = self._advance()              # "("
                type_name = self._advance().text     # type
                while self._match("op", "*"):
                    pass
                self._expect("op", ")")
                return self._at(ast.Cast(type_name=type_name,
                                         operand=self._unary()), paren)
        return self._postfix()

    def _postfix(self) -> ast.Node:
        start = self._current
        node = self._primary()
        while True:
            if self._match("op", "["):
                index = self._expression()
                self._expect("op", "]")
                node = self._at(ast.Subscript(base=node, index=index), start)
            elif self._check("op", "(") and isinstance(node, ast.Name):
                self._advance()
                args: List[ast.Node] = []
                if not self._check("op", ")"):
                    while True:
                        args.append(self._expression())
                        if not self._match("op", ","):
                            break
                self._expect("op", ")")
                node = self._at(ast.Call(func=node.ident, args=args), start)
            elif self._current.kind == "op" and self._current.text in ("++", "--"):
                token = self._advance()
                if not isinstance(node, ast.Name):
                    raise FrontendError(
                        f"{token.text} needs a variable",
                        line=token.line, column=token.column)
                node = self._at(ast.IncDec(target=node, op=token.text), start)
            else:
                return node

    def _primary(self) -> ast.Node:
        token = self._current
        if token.kind == "number":
            self._advance()
            return self._at(ast.IntLiteral(value=int(token.text, 0)), token)
        if token.kind == "keyword" and token.text in ("true", "false"):
            self._advance()
            return self._at(
                ast.IntLiteral(value=1 if token.text == "true" else 0), token)
        if token.kind == "ident":
            self._advance()
            return self._at(ast.Name(ident=token.text), token)
        if self._match("op", "("):
            expr = self._expression()
            self._expect("op", ")")
            return expr
        raise FrontendError(
            f"unexpected token {token.text!r} in expression",
            line=token.line, column=token.column)


def parse(source: str) -> ast.Program:
    """Parse a program (channel declarations + kernel definitions).

    Node ids restart from 1 for every parse, so the ids (and the site
    labels built from them) depend only on the source text — identical
    across processes, which the emulation server's determinism contract
    relies on.
    """
    ast.reset_node_ids()
    return Parser(source).parse_program()
