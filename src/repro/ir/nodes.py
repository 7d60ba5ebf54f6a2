"""IR node definitions.

All nodes are immutable dataclasses so they can be shared freely between the
original and transformed versions of a nest, hashed into sets, and compared
structurally in tests.

Nests are additionally *hash-consed*: :meth:`LoopNest.structural_key` is
computed once and cached on the node, and :func:`intern_nest` maps every
structurally identical nest onto one canonical instance.  The serving data
plane leans on both -- the engine, the batcher, and the cluster router all
key their caches on the structural key, so re-deriving it per request used
to rival the analysis cost itself (see docs/WIRE.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence, Union

# ---------------------------------------------------------------------------
# Affine pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subscript:
    """One array-subscript position: ``sum(coef * loop_index) + params + const``.

    ``loop_coeffs`` maps loop-index names to integer coefficients (one row of
    the subscript matrix H); ``param_coeffs`` maps symbolic size parameters
    (e.g. ``N``) to integer coefficients; ``const`` is the integer offset
    (one entry of the constant vector c).
    """

    loop_coeffs: tuple[tuple[str, int], ...] = ()
    param_coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def of(loop_coeffs: Mapping[str, int] | None = None,
           const: int = 0,
           param_coeffs: Mapping[str, int] | None = None) -> "Subscript":
        def _norm(mapping: Mapping[str, int] | None) -> tuple[tuple[str, int], ...]:
            if not mapping:
                return ()
            return tuple(sorted((k, int(v)) for k, v in mapping.items() if v != 0))
        return Subscript(_norm(loop_coeffs), _norm(param_coeffs), int(const))

    def coeff(self, index_name: str) -> int:
        for name, coef in self.loop_coeffs:
            if name == index_name:
                return coef
        return 0

    def shifted(self, offsets: Mapping[str, int]) -> "Subscript":
        """The subscript after substituting ``index -> index + offset``."""
        delta = sum(coef * offsets.get(name, 0) for name, coef in self.loop_coeffs)
        if delta == 0:
            return self
        return Subscript(self.loop_coeffs, self.param_coeffs, self.const + delta)

    def evaluate(self, env: Mapping[str, int]) -> int:
        total = self.const
        for name, coef in self.loop_coeffs:
            total += coef * env[name]
        for name, coef in self.param_coeffs:
            total += coef * env[name]
        return total

    def loop_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.loop_coeffs)

    def pretty(self) -> str:
        parts = []
        for name, coef in self.loop_coeffs:
            if coef == 1:
                parts.append(name)
            elif coef == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coef}*{name}")
        for name, coef in self.param_coeffs:
            if coef == 1:
                parts.append(f"+{name}" if parts else name)
            else:
                parts.append(f"{coef:+d}*{name}" if parts else f"{coef}*{name}")
        if self.const or not parts:
            parts.append(f"{self.const:+d}" if parts else str(self.const))
        text = ""
        for piece in parts:
            if text and not piece.startswith(("+", "-")):
                text += "+" + piece
            else:
                text += piece
        return text

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    """A floating-point literal."""

    value: float

@dataclass(frozen=True)
class ScalarVar:
    """A scalar variable: a loop-body temporary or a loop-invariant input."""

    name: str

@dataclass(frozen=True)
class ArrayRef:
    """A subscripted array reference ``A(s1, s2, ...)``."""

    array: str
    subscripts: tuple[Subscript, ...]

    def shifted(self, offsets: Mapping[str, int]) -> "ArrayRef":
        return ArrayRef(self.array, tuple(s.shifted(offsets) for s in self.subscripts))

    @property
    def rank(self) -> int:
        return len(self.subscripts)

    def pretty(self) -> str:
        inner = ", ".join(s.pretty() for s in self.subscripts)
        return f"{self.array}({inner})"

@dataclass(frozen=True)
class BinOp:
    """A binary floating-point operation (the flop unit of the balance model)."""

    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"

    _VALID = ("+", "-", "*", "/")

    def __post_init__(self) -> None:
        if self.op not in self._VALID:
            raise ValueError(f"unsupported operator {self.op!r}")

@dataclass(frozen=True)
class Call:
    """An intrinsic call (sqrt, abs, ...); costed as one flop per call."""

    func: str
    args: tuple["Expr", ...]

Expr = Union[Const, ScalarVar, ArrayRef, BinOp, Call]

def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and all sub-expressions, pre-order."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_expr(arg)

def expr_array_refs(expr: Expr) -> list[ArrayRef]:
    return [node for node in walk_expr(expr) if isinstance(node, ArrayRef)]

def expr_flops(expr: Expr) -> int:
    return sum(1 for node in walk_expr(expr) if isinstance(node, (BinOp, Call)))

def shift_expr(expr: Expr, offsets: Mapping[str, int],
               renames: Mapping[str, str] | None = None) -> Expr:
    """Substitute ``index -> index + offset`` and rename scalar temporaries."""
    renames = renames or {}
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, ScalarVar):
        return ScalarVar(renames.get(expr.name, expr.name))
    if isinstance(expr, ArrayRef):
        return expr.shifted(offsets)
    if isinstance(expr, BinOp):
        return BinOp(expr.op, shift_expr(expr.left, offsets, renames),
                     shift_expr(expr.right, offsets, renames))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(shift_expr(a, offsets, renames) for a in expr.args))
    raise TypeError(f"unknown expression node {expr!r}")

# ---------------------------------------------------------------------------
# Statements and loops
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Statement:
    """An assignment ``lhs = rhs`` inside the innermost loop body."""

    lhs: ArrayRef | ScalarVar
    rhs: Expr

    def array_reads(self) -> list[ArrayRef]:
        return expr_array_refs(self.rhs)

    def array_writes(self) -> list[ArrayRef]:
        return [self.lhs] if isinstance(self.lhs, ArrayRef) else []

    def flops(self) -> int:
        return expr_flops(self.rhs)

@dataclass(frozen=True)
class Bound:
    """An affine loop bound: ``const + sum(coef * param)``."""

    const: int = 0
    param_coeffs: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def of(value: "int | str | Bound") -> "Bound":
        if isinstance(value, Bound):
            return value
        if isinstance(value, int):
            return Bound(const=value)
        if isinstance(value, str):
            return Bound(const=0, param_coeffs=((value, 1),))
        raise TypeError(f"cannot make a Bound from {value!r}")

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.const + sum(coef * env[name] for name, coef in self.param_coeffs)

    def plus(self, delta: int) -> "Bound":
        return Bound(self.const + delta, self.param_coeffs)

    def pretty(self) -> str:
        parts = []
        for name, coef in self.param_coeffs:
            if coef == 1:
                parts.append(name)
            else:
                parts.append(f"{coef}*{name}")
        if self.const or not parts:
            parts.append(f"{self.const:+d}" if parts else str(self.const))
        text = ""
        for piece in parts:
            if text and not piece.startswith(("+", "-")):
                text += "+" + piece
            else:
                text += piece
        return text

@dataclass(frozen=True)
class Loop:
    """A DO loop: ``for index in lower..upper step step``; outer loops first."""

    index: str
    lower: Bound
    upper: Bound
    step: int = 1

    def trip_count(self, env: Mapping[str, int]) -> int:
        span = self.upper.evaluate(env) - self.lower.evaluate(env) + 1
        if span <= 0:
            return 0
        return (span + self.step - 1) // self.step

@dataclass(frozen=True)
class LoopNest:
    """A perfect nest: loops from outermost to innermost plus a statement body."""

    name: str
    loops: tuple[Loop, ...]
    body: tuple[Statement, ...]
    description: str = ""

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def index_names(self) -> tuple[str, ...]:
        return tuple(loop.index for loop in self.loops)

    def loop_position(self, index_name: str) -> int:
        return self.index_names.index(index_name)

    def innermost(self) -> Loop:
        return self.loops[-1]

    def statements(self) -> tuple[Statement, ...]:
        return self.body

    def array_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for stmt in self.body:
            for ref in stmt.array_writes() + stmt.array_reads():
                if ref.array not in names:
                    names.append(ref.array)
        return tuple(names)

    def flops_per_iteration(self) -> int:
        return sum(stmt.flops() for stmt in self.body)

    def scalar_temporaries(self) -> tuple[str, ...]:
        """Scalars assigned in the body (these are privatized when unrolling)."""
        written = []
        for stmt in self.body:
            if isinstance(stmt.lhs, ScalarVar) and stmt.lhs.name not in written:
                written.append(stmt.lhs.name)
        return tuple(written)

    def parameters(self) -> tuple[str, ...]:
        """Symbolic size parameters appearing in bounds or subscripts."""
        seen: list[str] = []

        def _add(name: str) -> None:
            if name not in seen:
                seen.append(name)

        for loop in self.loops:
            for bound in (loop.lower, loop.upper):
                for name, _ in bound.param_coeffs:
                    _add(name)
        for stmt in self.body:
            for ref in stmt.array_writes() + stmt.array_reads():
                for sub in ref.subscripts:
                    for name, _ in sub.param_coeffs:
                        _add(name)
        return tuple(seen)

    def structural_key(self) -> str:
        """Content hash of the nest's analyzable structure.

        Two nests share a key exactly when every model in this repository
        treats them identically: same loop bounds and steps, same statement
        sequence, same array / parameter / scalar names and subscript
        patterns.  The spelling of loop induction variables is canonicalized
        away (``DO I``/``DO II`` collide when everything else matches), and
        ``name`` and ``description`` never participate.  The key is the
        cache identity used by :class:`repro.engine.AnalysisEngine` and the
        routing identity of the serving data plane.

        The derivation runs once per node: the digest is cached on the
        instance (nodes are immutable), so every later call is an attribute
        read.  Combined with :func:`intern_nest`, a structure that has been
        seen before never hashes again anywhere in the process.
        """
        cached = self.__dict__.get("_structural_key")
        if cached is not None:
            return cached
        rename = {loop.index: f"%{pos:03d}"
                  for pos, loop in enumerate(self.loops)}
        parts = []
        for loop in self.loops:
            parts.append(f"do {rename[loop.index]} "
                         f"{_key_bound(loop.lower)} {_key_bound(loop.upper)} "
                         f"{loop.step}")
        for stmt in self.body:
            parts.append(f"{_key_expr(stmt.lhs, rename)}"
                         f" = {_key_expr(stmt.rhs, rename)}")
        blob = "\n".join(parts)
        key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        # Frozen dataclasses only block normal attribute assignment; the
        # cache is memoization of a pure derivation, not mutation.
        object.__setattr__(self, "_structural_key", key)
        return key

# -- hash-consing ------------------------------------------------------------

def nest_identity(nest: "LoopNest") -> tuple:
    """The structural key plus what it ignores but a printed nest shows:
    the name, the loop-variable spelling and the description.  Caches
    whose values echo the nest key on this, so a renamed twin gets its
    own answer while the analyses beneath stay shared."""
    return (nest.structural_key(), nest.name, nest.index_names,
            nest.description)

#: Canonical instance per :func:`nest_identity`: the first nest seen wins
#: and every later identical nest resolves to it, so its cached key,
#: dependence graph, and tables are shared for free.  An LRU
#: :class:`~repro.engine.memo.Memo` of this many structures, built at
#: first use because :mod:`repro.engine` imports this package.
_INTERN_CAPACITY = 4096
_interned = None

def intern_nest(nest: "LoopNest") -> "LoopNest":
    """The canonical instance of ``nest``'s :func:`nest_identity`.

    Returns an already-interned identical nest when one exists, else
    registers ``nest`` as the canonical instance.  The twin carries a
    pre-computed structural key, so consumers downstream of
    :func:`repro.api.coerce_nest` never re-hash a known structure.  The
    table is bounded and evicts the least recently interned structure.
    """
    global _interned
    if _interned is None:
        from repro.engine.memo import Memo
        _interned = Memo("intern", _INTERN_CAPACITY)
    return _interned.get_or_build(nest_identity(nest), lambda: nest)

def _key_bound(bound: Bound) -> str:
    params = ",".join(f"{name}*{coef}"
                      for name, coef in sorted(bound.param_coeffs))
    return f"({params}|{bound.const})"

def _key_subscript(sub: Subscript, rename: Mapping[str, str]) -> str:
    loops = ",".join(f"{canon}*{coef}" for canon, coef in
                     sorted((rename.get(name, name), coef)
                            for name, coef in sub.loop_coeffs))
    params = ",".join(f"{name}*{coef}"
                      for name, coef in sorted(sub.param_coeffs))
    return f"[{loops}|{params}|{sub.const}]"

def _key_expr(expr: Expr, rename: Mapping[str, str]) -> str:
    if isinstance(expr, Const):
        return f"c{expr.value!r}"
    if isinstance(expr, ScalarVar):
        return f"s{rename.get(expr.name, expr.name)}"
    if isinstance(expr, ArrayRef):
        subs = "".join(_key_subscript(s, rename) for s in expr.subscripts)
        return f"a{expr.array}{subs}"
    if isinstance(expr, BinOp):
        return (f"({_key_expr(expr.left, rename)}{expr.op}"
                f"{_key_expr(expr.right, rename)})")
    if isinstance(expr, Call):
        args = ",".join(_key_expr(a, rename) for a in expr.args)
        return f"f{expr.func}({args})"
    raise TypeError(f"unknown expression node {expr!r}")
