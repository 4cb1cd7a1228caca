"""A small arithmetic expression language for psi / boundary / subsolution data.

    expr  := term (('+'|'-') term)*     term  := unary (('*'|'/') unary)*
    unary := '-' unary | power          power := atom ('^' unary)?
    atom  := number | name | name '(' expr (',' expr)* ')' | '(' expr ')'

This is Python's arithmetic with ^ (tightest, right-associative) for **, so `ast`
parses it; a literal ** is refused, and so is every node outside the grammar.
Functions: exp, log, sin, cos, atan, sinh, cosh, sqrt, pow, min, max.  Evaluation
walks the tree over numpy arrays; a non-finite result raises a located EvaluationError.
"""

import ast
import operator
import re
import warnings

import numpy as np

from .errors import EvaluationError, ParseError

FUNCTIONS = {  # name: (arity, function)
    "exp": (1, np.exp), "log": (1, np.log), "sin": (1, np.sin), "cos": (1, np.cos),
    "atan": (1, np.arctan), "sinh": (1, np.sinh), "cosh": (1, np.cosh), "sqrt": (1, np.sqrt),
    "pow": (2, operator.pow), "min": (2, np.minimum), "max": (2, np.maximum),
}
# each operator's symbol and a op b itself (np.power can differ in the last bit)
_BINOPS = {ast.Add: ("+", operator.add), ast.Sub: ("-", operator.sub),
           ast.Mult: ("*", operator.mul), ast.Div: ("/", operator.truediv),
           ast.Pow: ("^", operator.pow)}
_NUMBER = r"(?<![\w.])\.?\d[\d.]*([eE][+-]?\d+)?"  # not 0x1f, 1_0 or 1j


class Expression:
    """A parsed expression; evaluate with a dict of per-node numpy arrays (or scalars)."""

    def __init__(self, source):
        self.source = source
        if refused := re.search(r"\*\*|[#\\]", source):
            raise ParseError(f"unexpected {refused[0]!r}", column=refused.end())
        # the text Python parses: spaces for whitespace and for an integer's leading zeros
        # (Python refuses 007), no indent, ^ as **; _cols[k] is the source index of its byte k
        body = re.sub(_NUMBER, lambda m: (m[0].lstrip("0") or "0").rjust(len(m[0]))
                      if m[0].isdigit() else m[0], re.sub(r"\s", " ", source))
        start = len(body) - len(body.lstrip())
        text = body[start:].replace("^", "**")
        self._bytes = text.encode()
        self._cols = [i for i, c in enumerate(body) if i >= start
                      for _ in c.replace("^", "**").encode()] + [len(source)]
        try:
            with warnings.catch_warnings():  # a literal run into a name is an error, not a warning
                warnings.simplefilter("error", SyntaxWarning)
                self.root = ast.parse(text, mode="eval").body
        except SyntaxError as exc:
            at = len(text[: exc.offset - 1].encode()) if exc.offset else len(self._bytes)
            raise ParseError(exc.msg, column=self._cols[at] + 1) from None
        self.variables = set()  # names referenced
        self._check(self.root)

    def _check(self, node):
        """Refuse a node outside the grammar; give each operation its function and column."""
        node.column = self._cols[node.col_offset] + 1
        text = self.source[node.column - 1 : self._cols[node.end_col_offset]]
        if isinstance(node, ast.BinOp):  # the operator: after the left operand and its ')'s
            after = self._bytes[node.left.end_col_offset :]
            node.column = self._cols[len(self._bytes) - len(after.lstrip(b" )"))] + 1
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            if not re.fullmatch(_NUMBER, text):
                raise ParseError(f"bad number {text!r}", column=node.column)
            node.value = np.float64(float(text))
        elif isinstance(node, ast.Name):
            self.variables.add(node.id)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node.operands = [node.operand]
        elif isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            (node.what, node.fn), node.operands = _BINOPS[type(node.op)], [node.left, node.right]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.col_offset == node.col_offset and not node.keywords):
            name, args = node.func.id, node.args
            if name not in FUNCTIONS:
                raise ParseError(f"unknown function {name!r}", column=node.column)
            if len(args) != FUNCTIONS[name][0]:
                raise ParseError(f"{name} takes {FUNCTIONS[name][0]} argument(s), got {len(args)}",
                                 column=node.column)
            comma = self._bytes.find(b",", args[-1].end_col_offset, node.end_col_offset)
            if comma >= 0:  # Python allows a trailing comma
                raise ParseError("unexpected ','", column=self._cols[comma] + 1)
            node.what, node.fn, node.operands = name, FUNCTIONS[name][1], args
        else:
            raise ParseError(f"unexpected {text!r}", column=node.column)
        for operand in getattr(node, "operands", []):
            self._check(operand)

    def evaluate(self, env):
        out = np.asarray(self._value(self.root, env), dtype=float)
        if np.any(~np.isfinite(out)):
            raise EvaluationError(f"expression {self.source!r} produced a non-finite value")
        return out

    def _value(self, node, env):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id not in env:
                raise EvaluationError(f"missing variable {node.id!r} in expression {self.source!r}")
            # numpy saturates /0 to inf instead of raising; the guard below locates it
            return np.asarray(env[node.id], dtype=float)
        if isinstance(node, ast.UnaryOp):  # unguarded: -x is finite when x is
            return -self._value(node.operand, env)
        args = list(map(self._value, node.operands, [env] * len(node.operands)))
        with np.errstate(all="ignore"):
            out = node.fn(*args)
        if np.any(~np.isfinite(out)):
            raise EvaluationError(
                f"non-finite result from {node.what!r} at position {node.column} of {self.source!r}")
        return out

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse_expression(source) -> Expression:
    return Expression(source)
