"""A small arithmetic expression language for psi / boundary / subsolution data.

Grammar (usual precedence, ^ binds tightest and is right-associative):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | name | name '(' expr (',' expr)* ')' | '(' expr ')'

Functions: exp, log, sin, cos, atan, sinh, cosh, sqrt, pow, min, max.
Evaluation is vectorized over numpy arrays and total: any non-finite result
raises a located EvaluationError (division by zero, log of a negative, ...).
"""

import numpy as np

from .errors import EvaluationError, ParseError

FUNCTIONS = {
    "exp": (1, np.exp),
    "log": (1, np.log),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "atan": (1, np.arctan),
    "sinh": (1, np.sinh),
    "cosh": (1, np.cosh),
    "sqrt": (1, np.sqrt),
    "pow": (2, lambda a, b: a**b),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}


class _Tok:
    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(src):
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                j += 1
                if j < n and src[j] in "+-":
                    j += 1
                while j < n and src[j].isdigit():
                    j += 1
            try:
                float(src[i:j])
            except ValueError:
                raise ParseError(f"bad number {src[i:j]!r}", column=i + 1)
            toks.append(_Tok("num", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("name", src[i:j], i))
            i = j
            continue
        if c in "+-*/^(),":
            toks.append(_Tok(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", column=i + 1)
    toks.append(_Tok("end", "", n))
    return toks


class Expression:
    """Parsed AST; evaluate with a dict of per-node numpy arrays (or scalars)."""

    def __init__(self, source, root, variables):
        self.source = source
        self.root = root
        self.variables = variables  # set of names referenced

    def __call__(self, env):
        return self.evaluate(env)

    def evaluate(self, env):
        val = _eval(self.root, env, self.source)
        out = np.asarray(val, dtype=float)
        if np.any(~np.isfinite(out)):
            raise EvaluationError(
                f"expression {self.source!r} produced a non-finite value"
            )
        return out

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse_expression(source) -> Expression:
    toks = _tokenize(source)
    pos = [0]

    def peek():
        return toks[pos[0]]

    def take(kind=None):
        t = toks[pos[0]]
        if kind is not None and t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end'!r}", column=t.pos + 1)
        pos[0] += 1
        return t

    variables = set()

    def parse_expr():
        node = parse_term()
        while peek().kind in "+-":
            op = take().kind
            node = ("bin", op, node, parse_term(), peek().pos)
        return node

    def parse_term():
        node = parse_unary()
        while peek().kind in "*/":
            op = take().kind
            node = ("bin", op, node, parse_unary(), peek().pos)
        return node

    def parse_unary():
        if peek().kind == "-":
            t = take()
            return ("neg", parse_unary(), t.pos)
        return parse_power()

    def parse_power():
        base = parse_atom()
        if peek().kind == "^":
            t = take()
            return ("bin", "^", base, parse_unary(), t.pos)
        return base

    def parse_atom():
        t = peek()
        if t.kind == "num":
            take()
            return ("num", float(t.text), t.pos)
        if t.kind == "name":
            take()
            if peek().kind == "(":
                if t.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {t.text!r}", column=t.pos + 1)
                take("(")
                args = [parse_expr()]
                while peek().kind == ",":
                    take(",")
                    args.append(parse_expr())
                take(")")
                arity = FUNCTIONS[t.text][0]
                if len(args) != arity:
                    raise ParseError(
                        f"{t.text} takes {arity} argument(s), got {len(args)}", column=t.pos + 1
                    )
                return ("call", t.text, args, t.pos)
            variables.add(t.text)
            return ("var", t.text, t.pos)
        if t.kind == "(":
            take("(")
            node = parse_expr()
            take(")")
            return node
        raise ParseError(f"unexpected token {t.text or 'end'!r}", column=t.pos + 1)

    root = parse_expr()
    if peek().kind != "end":
        t = peek()
        raise ParseError(f"trailing input {t.text!r}", column=t.pos + 1)
    return Expression(source, root, variables)


def _eval(node, env, source):
    kind = node[0]
    if kind == "num":
        return np.float64(node[1])
    if kind == "var":
        name = node[1]
        if name not in env:
            raise EvaluationError(f"missing variable {name!r} in expression {source!r}")
        # numpy scalars/arrays saturate to inf instead of raising on /0,
        # which the _guard turns into a located error
        return np.asarray(env[name], dtype=float)
    if kind == "neg":
        return -_eval(node[1], env, source)
    if kind == "call":
        fn = FUNCTIONS[node[1]][1]
        args = [_eval(a, env, source) for a in node[2]]
        with np.errstate(all="ignore"):
            out = fn(*args)
        _guard(out, node[1], node[3], source)
        return out
    op, left, right, pos = node[1], node[2], node[3], node[4]
    a = _eval(left, env, source)
    b = _eval(right, env, source)
    with np.errstate(all="ignore"):
        if op == "+":
            out = a + b
        elif op == "-":
            out = a - b
        elif op == "*":
            out = a * b
        elif op == "/":
            out = a / b
        elif op == "^":
            out = a**b
        else:  # pragma: no cover
            raise AssertionError(op)
    _guard(out, op, pos, source)
    return out


def _guard(out, what, pos, source):
    arr = np.asarray(out)
    if np.any(~np.isfinite(arr)):
        raise EvaluationError(
            f"non-finite result from {what!r} at position {pos + 1} of {source!r}"
        )
