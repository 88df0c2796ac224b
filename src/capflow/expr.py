"""Infix expression parsing and evaluation with derivatives up to third order.

Expressions are scalar formulas in the ambient coordinates x, y, z (and w in
dimension 4).  Evaluation propagates truncated Taylor data (value, gradient,
Hessian, third derivatives) through the syntax tree, so derivatives are exact
to rounding; no step-size tuning is involved.  The data travel as one
component-major array per batch, whose layout, index tables and expanders to
dense symmetric arrays are defined here for every module.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from . import CapflowError

VARIABLE_NAMES = ("x", "y", "z", "w")
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
# the numerals of the formula grammar; Python also reads 0x1, 1_0, 1j and True
_NUMERAL = r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?"


class ExprError(ValueError, CapflowError):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    """Malformed source text; carries the offset of the failure in it."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Division by zero or fractional power of a non-positive base."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: Fraction


@dataclass(frozen=True)
class Sqrt:
    arg: object


@dataclass(frozen=True)
class Expression:
    """Parsed immutable expression over d ambient variables."""

    ast: object
    dim: int


# ---------------------------------------------------------------------------
# Parser: Python's own, on the source with ^ written as **


def _fold_constant(node) -> Fraction | None:
    """Reduce a constant subtree to an exact rational, or None.

    A float reads as the simplest fraction of denominator at most 1e9 that
    rounds back to it (0.1 is 1/10), else as its exact binary value.  A
    power whose exact value would need more than about 1024 bits is refused
    from the bit lengths, before it is computed."""
    if isinstance(node, Const):
        if not math.isfinite(node.value):
            return None
        limited = Fraction(node.value).limit_denominator(10**9)
        return limited if float(limited) == node.value else Fraction(node.value)
    if isinstance(node, Neg):
        v = _fold_constant(node.arg)
        return None if v is None else -v
    if isinstance(node, Bin):
        a = _fold_constant(node.left)
        b = _fold_constant(node.right)
        if a is None or b is None:
            return None
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0:
                return None
            return a / b
    if isinstance(node, Pow):
        a = _fold_constant(node.base)
        if a is None or node.exponent.denominator != 1 or (a == 0 and node.exponent < 0):
            return None
        n = int(node.exponent)
        if abs(n) * (max(abs(a.numerator), a.denominator).bit_length() - 1) > 1024:
            raise ExprError(f"constant power with exponent {n} exceeds 1024 bits")
        return a**n
    return None


def parse(source: str, dim: int | None = None) -> Expression:
    """Parse infix source text into an Expression.

    The grammar is Python's arithmetic with ^ for the power: numerals, the
    variables x y z (w in dimension 4), + - * /, unary + and -, parentheses,
    sqrt(...) and powers with a constant exponent.  Precedence: power >
    unary minus > multiplication/division > addition; ^ is right
    associative and its exponent may carry a sign (x^-2 is x^(-2)).  If dim
    is omitted it is inferred (4 when w occurs, else 3).
    """
    # Python's grammar is wider than ours: it reads "#" as a comment, "\" as
    # a line join, "," as a call's trailing comma and non-ASCII identifiers
    # folded to ASCII, and it rejects line breaks, indentation and the
    # leading zeros of an integer (05)
    text = "".join(" " if c.isspace() else c for c in source)
    bad = re.search(r"\*\*|[#\\,\x00]|[^\x00-\x7f]", text)
    if bad:
        raise ExprSyntaxError(f"unexpected {bad[0]!r}", bad.start())
    text = re.sub(r"(?<![\w.])(?<![eE][+-])0+(?=\d)", lambda m: " " * len(m[0]), text)
    lead = len(text) - len(text.lstrip())
    py = text[lead:].replace("^", "**")
    # the source offset of each offset into py
    pos = [i for i in range(lead, len(text)) for _ in range(1 + (text[i] == "^"))]
    pos.append(len(source))

    def convert(node):
        at, end = node.col_offset, node.end_col_offset
        if isinstance(node, ast.Constant) and re.fullmatch(_NUMERAL, py[at:end]):
            return Const(float(py[at:end]))
        if isinstance(node, ast.Name) and node.id in VARIABLE_NAMES[:dim]:
            return Var(VARIABLE_NAMES.index(node.id))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            arg = convert(node.operand)
            return Neg(arg) if isinstance(node.op, ast.USub) else arg
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, exponent = convert(node.left), _fold_constant(convert(node.right))
            if exponent is None:
                raise ExprSyntaxError("exponent must be a constant", pos[node.right.col_offset])
            return Pow(base, exponent)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            # a left-associative chain (a long sum) is one loop, not a recursion
            chain = []
            while isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
                chain.append(node)
                node = node.left
            tree = convert(node)
            for link in reversed(chain):
                tree = Bin(_BINARY[type(link.op)], tree, convert(link.right))
            return tree
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sqrt" and node.func.col_offset == at
                and len(node.args) == 1 and not node.keywords):
            return Sqrt(convert(node.args[0]))
        if isinstance(node, ast.Name) and node.id in VARIABLE_NAMES:
            raise ExprSyntaxError(f"variable {node.id!r} exceeds dimension {dim}", pos[at])
        raise ExprSyntaxError(f"unexpected {source[pos[at]:pos[end]]!r}", pos[at])

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # SyntaxWarning on inputs like "1if"
            tree = ast.parse(py, mode="eval").body
        if dim is None:
            dim = 4 if any(isinstance(n, ast.Name) and n.id == "w" for n in ast.walk(tree)) else 3
        return Expression(convert(tree), dim)
    except SyntaxError as exc:
        at = min(max((exc.offset or 1) - 1, 0), len(py))
        raise ExprSyntaxError(exc.msg, pos[at]) from None
    except (RecursionError, MemoryError):
        # MemoryError is how the parser reports a stack too deep to parse
        raise ExprError("formula nested too deeply") from None


# ---------------------------------------------------------------------------
# Component-major Taylor jets (vectorized over N evaluation points)
#
# The jets of a scalar field at N points of R^d are one array of shape
# (jet_rows(d, order), N): row 0 the value, rows 1..d the gradient, then the
# Hessian's upper triangle in the order of _pairs(d) (for d = 3: 00 01 02 11
# 12 22) and, at order 3, the third derivatives with i <= j <= k in the order
# of _triples(d).  Each distinct entry is computed once, so the dense arrays
# of triangle_matrices and triple_tensors are symmetric bit for bit.


@functools.cache
def _pairs(d: int) -> tuple:
    return tuple((i, j) for i in range(d) for j in range(i, d))


@functools.cache
def _triples(d: int) -> tuple:
    return tuple((i, j, k) for i in range(d) for j in range(i, d) for k in range(j, d))


def jet_rows(d: int, order: int) -> int:
    """Rows of a jet array: 1 + d + d(d+1)/2, and d(d+1)(d+2)/6 more at order 3."""
    return 1 + d + len(_pairs(d)) + (len(_triples(d)) if order >= 3 else 0)


@functools.cache
def layout(d: int) -> SimpleNamespace:
    """Gather tables of the layout in R^d.  pi, pj (ti, tj, tk) index the
    gradient by each pair's (triple's) indices; tij, tjk, tik index the
    Hessian triangle by a triple's pairs; pair_slot (d, d) and triple_slot
    (d, d, d) give the triangle position of any index tuple; hess and third
    are the row slices of the two triangles."""
    pi, pj = np.array(_pairs(d)).T
    ti, tj, tk = np.array(_triples(d)).T
    pair_slot = np.empty((d, d), dtype=int)
    pair_slot[pi, pj] = pair_slot[pj, pi] = np.arange(pi.size)
    triple_slot = np.empty((d, d, d), dtype=int)
    for perm in itertools.permutations((ti, tj, tk)):
        triple_slot[perm] = np.arange(ti.size)
    h0 = 1 + d + pi.size
    tables = SimpleNamespace(
        pi=pi, pj=pj, ti=ti, tj=tj, tk=tk, tij=pair_slot[ti, tj], tjk=pair_slot[tj, tk],
        tik=pair_slot[ti, tk], pair_slot=pair_slot, triple_slot=triple_slot,
        hess=slice(1 + d, h0), third=slice(h0, h0 + ti.size))
    # every caller shares the cached tables
    for value in vars(tables).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return tables


def jet_gradients(jets: np.ndarray, d: int) -> np.ndarray:
    """The gradient rows of jets as an (N, d) array in C order, the layout
    whose summation order einsum keeps whatever the batch size."""
    return np.ascontiguousarray(jets[1 : d + 1].T)


def _dense(rows: np.ndarray, d: int, index: tuple) -> np.ndarray:
    idx = np.array(index).T
    out = np.empty((rows.shape[1],) + (d,) * len(idx))
    for perm in itertools.permutations(idx):
        out[(slice(None), *perm)] = rows.T
    return out


def triangle_matrices(tri: np.ndarray, d: int) -> np.ndarray:
    """(N, d, d) symmetric matrices from Hessian-triangle rows (d(d+1)/2, N)."""
    return _dense(tri, d, _pairs(d))


def triple_tensors(tri: np.ndarray, d: int) -> np.ndarray:
    """(N, d, d, d) symmetric tensors from third-derivative rows i <= j <= k."""
    return _dense(tri, d, _triples(d))


def sym3(h: np.ndarray, g: np.ndarray, d: int) -> np.ndarray:
    """h_ij g_k + h_jk g_i + h_ik g_j on the triples, from Hessian-triangle rows
    h (d(d+1)/2, N) and gradient rows g (d, N)."""
    t = layout(d)
    return h[t.tij] * g[t.tk] + h[t.tjk] * g[t.ti] + h[t.tik] * g[t.tj]


def _const(value: float, n: int, rows: int) -> np.ndarray:
    out = np.zeros((rows, n))
    out[0] = value
    return out


def _mul(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    t = layout(d)
    ga, gb = a[1 : d + 1], b[1 : d + 1]
    out = a * b[0] + b * a[0]
    out[0] = a[0] * b[0]
    hess = out[t.hess]
    hess += ga[t.pi] * gb[t.pj]
    hess += ga[t.pj] * gb[t.pi]
    if len(a) > t.hess.stop:
        third = out[t.third]
        third += sym3(a[t.hess], gb, d)
        third += sym3(b[t.hess], ga, d)
    return out


def _chain(u: np.ndarray, d: int, g0, g1, g2, g3) -> np.ndarray:
    """Compose scalar g (given derivative values at the value row) with u."""
    t = layout(d)
    grad = u[1 : d + 1]
    out = np.empty(u.shape)
    out[0] = g0
    out[1 : d + 1] = g1 * grad
    out[t.hess] = g2 * (grad[t.pi] * grad[t.pj]) + g1 * u[t.hess]
    if len(u) > t.hess.stop:
        out[t.third] = (g3 * (grad[t.ti] * grad[t.tj] * grad[t.tk])
                        + g2 * sym3(u[t.hess], grad, d) + g1 * u[t.third])
    return out


def _pow(u: np.ndarray, d: int, frac: Fraction) -> np.ndarray:
    p = float(frac)
    base = u[0]
    if frac.denominator == 1:
        n = int(frac)
        if n == 0:
            return _const(1.0, base.size, len(u))
        if n == 1:
            return u
        if n < 0 and np.any(base == 0.0):
            raise EvalDomainError("zero base with negative integer exponent")
    elif np.any(base <= 0.0):
        raise EvalDomainError("fractional power of non-positive base")

    def deriv(k: int):
        coeff = 1.0
        for m in range(k):
            coeff *= p - m
        if coeff == 0.0:  # polynomial of degree n: higher derivatives vanish
            return np.zeros(base.size)
        return coeff * base ** (p - k)

    g3 = deriv(3) if len(u) > layout(d).hess.stop else None
    return _chain(u, d, deriv(0), deriv(1), deriv(2), g3)


def _eval_node(node, pts: np.ndarray, rows: int) -> np.ndarray:
    n, d = pts.shape
    if isinstance(node, Const):
        return _const(node.value, n, rows)
    if isinstance(node, Var):
        out = np.zeros((rows, n))
        out[0] = pts[:, node.index]
        out[1 + node.index] = 1.0
        return out
    if isinstance(node, Neg):
        return -_eval_node(node.arg, pts, rows)
    if isinstance(node, Bin):
        a = _eval_node(node.left, pts, rows)
        b = _eval_node(node.right, pts, rows)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return _mul(a, b, d)
        if np.any(b[0] == 0.0):
            raise EvalDomainError("division by zero")
        return _mul(a, _pow(b, d, Fraction(-1)), d)
    if isinstance(node, Pow):
        return _pow(_eval_node(node.base, pts, rows), d, node.exponent)
    if isinstance(node, Sqrt):
        return _pow(_eval_node(node.arg, pts, rows), d, Fraction(1, 2))
    raise TypeError(f"not an AST node: {node!r}")


def evaluate(expr: Expression, points: np.ndarray, order: int = 3) -> np.ndarray:
    """Jets of expr at a batch of points (N, d): the component-major array of
    order 3, or of order 2 for any lower order."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != expr.dim:
        raise ValueError(f"points must have shape (N,{expr.dim})")
    if not np.all(np.isfinite(pts)):
        raise EvalDomainError("non-finite evaluation point")
    try:
        return _eval_node(expr.ast, pts, jet_rows(expr.dim, order))
    except (RecursionError, OverflowError) as exc:
        # a tree too deep for the interpreter's stack, or an exponent past
        # the float range
        raise ExprError(f"cannot evaluate the formula: {exc}") from None
