"""Content-addressed fingerprints of programs, states, and CF trees.

The compilation cache (:mod:`repro.compiler.cache`) keys artifacts by a
SHA-256 digest of a canonical serialization of the program AST, the
initial state, and the compilation options (coalescing mode, pass list,
node budget).  Two structurally equal programs therefore share one cache
entry -- across calls *and* across processes -- which is what replaces
the seed's fragile ``(id(command), sigma)`` memo keys: an address can be
recycled by the allocator, a content digest cannot.

Digests are defined for:

- values (``int``, ``bool``, ``Fraction``);
- expressions (:class:`~repro.lang.expr.Lit`/``Var``/``UnOp``/``BinOp``/
  ``Call``);
- commands (all eight cpGCL forms);
- states;
- CF trees built of ``Leaf``/``Fail``/``Choice`` nodes.

:class:`~repro.lang.expr.Opaque` expressions (arbitrary Python
functions) and *unkeyed* ``Fix`` tree nodes (which contain closures)
have no canonical serialization; fingerprinting them raises
:class:`Undigestable` and callers fall back to in-memory memoization
only.  ``Fix`` nodes carrying a content key (``fix.key``, derived by
:mod:`repro.cftree.keys` from whatever the closures were built from)
digest as ``(key, init)``.  Note that a *command* containing loops
digests fine -- ``While`` is pure syntax; only already-built unkeyed
``Fix`` tree nodes are opaque.

The serialization is type-tagged and length-prefixed, so distinct shapes
cannot collide by concatenation (``("ab", "c")`` vs ``("a", "bc")``).
"""

import hashlib
from fractions import Fraction

from repro.lang.expr import BinOp, Call, Expr, Lit, Opaque, UnOp, Var
from repro.lang.state import State
from repro.lang.syntax import (
    Assign,
    Choice as ChoiceCmd,
    Command,
    Ite,
    Observe,
    Seq,
    Skip,
    Uniform,
    While,
)

#: Serialization-format version; bump on any change to the encoding or
#: to the semantics of compiled artifacts (invalidates disk caches).
DIGEST_VERSION = b"zar-compile-1"


class Undigestable(TypeError):
    """The object has no canonical content serialization (it contains an
    opaque function: an ``Opaque`` expression or a ``Fix`` tree node).

    ``path`` names the offending sub-term (``second.body.prob`` ...): the
    emitters annotate the error as it propagates out of the term, so the
    report is actionable -- which closure blocked digesting, not merely
    that one exists.  ``reason`` is the unannotated message."""

    def __init__(self, reason: str, path: tuple = ()):
        self.reason = reason
        self.path = tuple(path)
        super().__init__(reason)

    def __str__(self) -> str:
        if self.path:
            return "%s (at %s)" % (self.reason, ".".join(self.path))
        return self.reason


def _tag(h, label: str, *parts) -> None:
    h.update(b"(")
    h.update(label.encode("ascii"))
    for part in parts:
        _emit(h, part)
    h.update(b")")


def _emit_child(h, obj, segment: str) -> None:
    """Emit a sub-term, prefixing ``segment`` onto any Undigestable path."""
    try:
        _emit(h, obj)
    except Undigestable as err:
        raise Undigestable(err.reason, (segment,) + err.path) from None


def _tag2(h, label: str, parts) -> None:
    """Like :func:`_tag`, but each part carries its path segment (or
    ``None`` for scalar fields).  Byte layout is identical to ``_tag``,
    so digests are unchanged."""
    h.update(b"(")
    h.update(label.encode("ascii"))
    for segment, part in parts:
        if segment is None:
            _emit(h, part)
        else:
            _emit_child(h, part, segment)
    h.update(b")")


def _emit(h, obj) -> None:
    # Dispatch on type; bool before int (bool is an int subclass).
    if isinstance(obj, bool):
        h.update(b"#t" if obj else b"#f")
    elif isinstance(obj, int):
        data = str(obj).encode("ascii")
        h.update(b"i%d:" % len(data))
        h.update(data)
    elif isinstance(obj, Fraction):
        _tag(h, "frac", obj.numerator, obj.denominator)
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        h.update(b"s%d:" % len(data))
        h.update(data)
    elif isinstance(obj, Expr):
        _emit_expr(h, obj)
    elif isinstance(obj, Command):
        _emit_command(h, obj)
    elif isinstance(obj, State):
        _tag(h, "state", *[part for item in obj.items() for part in item])
    elif isinstance(obj, (tuple, list)):
        _tag2(h, "seq", [("[%d]" % i, x) for i, x in enumerate(obj)])
    elif obj is None:
        h.update(b"#n")
    else:
        _emit_tree(h, obj)


def _emit_expr(h, expr: Expr) -> None:
    if isinstance(expr, Lit):
        _tag(h, "lit", expr.value)
    elif isinstance(expr, Var):
        _tag(h, "var", expr.name)
    elif isinstance(expr, UnOp):
        _tag2(h, "unop", [(None, expr.op), ("arg", expr.arg)])
    elif isinstance(expr, BinOp):
        _tag2(
            h,
            "binop",
            [(None, expr.op), ("lhs", expr.lhs), ("rhs", expr.rhs)],
        )
    elif isinstance(expr, Call):
        _tag2(
            h,
            "call",
            [(None, expr.func)]
            + [("args[%d]" % i, a) for i, a in enumerate(expr.args)],
        )
    elif isinstance(expr, Opaque):
        raise Undigestable(
            "opaque expression %s has no content digest" % (expr.label,)
        )
    else:
        raise Undigestable("unknown expression %r" % (expr,))


def _emit_command(h, command: Command) -> None:
    if isinstance(command, Skip):
        _tag(h, "skip")
    elif isinstance(command, Assign):
        _tag2(h, "assign", [(None, command.name), ("expr", command.expr)])
    elif isinstance(command, Observe):
        _tag2(h, "observe", [("pred", command.pred)])
    elif isinstance(command, Seq):
        _tag2(
            h,
            "seq2",
            [("first", command.first), ("second", command.second)],
        )
    elif isinstance(command, Ite):
        _tag2(
            h,
            "ite",
            [
                ("cond", command.cond),
                ("then", command.then),
                ("orelse", command.orelse),
            ],
        )
    elif isinstance(command, ChoiceCmd):
        _tag2(
            h,
            "choice",
            [
                ("prob", command.prob),
                ("left", command.left),
                ("right", command.right),
            ],
        )
    elif isinstance(command, Uniform):
        _tag2(
            h,
            "uniform",
            [("range", command.range_expr), (None, command.name)],
        )
    elif isinstance(command, While):
        _tag2(h, "while", [("cond", command.cond), ("body", command.body)])
    else:
        raise Undigestable("unknown command %r" % (command,))


def _emit_tree(h, tree) -> None:
    # Imported lazily: repro.cftree imports repro.compiler.normalize.
    from repro.cftree.tree import CFTree, Choice, Fail, Fix, LOOPBACK, Leaf

    if tree is LOOPBACK:
        h.update(b"#lb")
    elif isinstance(tree, Leaf):
        _tag(h, "leaf", tree.value)
    elif isinstance(tree, Fail):
        _tag(h, "fail")
    elif isinstance(tree, Choice):
        _tag2(
            h,
            "tchoice",
            [(None, tree.prob), ("left", tree.left), ("right", tree.right)],
        )
    elif isinstance(tree, Fix):
        # A content-keyed Fix digests via its key: the key is itself a
        # digest of everything the loop closures were built from (see
        # repro.cftree.keys), so (key, init) determines the node's
        # sampling behavior.  Unkeyed Fix nodes stay opaque.
        if tree.key is not None:
            _tag2(h, "fixkey", [(None, tree.key), ("init", tree.init)])
        else:
            raise Undigestable("Fix nodes contain closures; no content digest")
    elif isinstance(tree, CFTree):
        raise Undigestable("unknown CF tree %r" % (tree,))
    else:
        raise Undigestable("cannot fingerprint %r" % (tree,))


def fingerprint(*parts) -> str:
    """Hex SHA-256 digest of the canonical serialization of ``parts``.

    Raises :class:`Undigestable` when any part contains an opaque
    function (``Opaque`` expression, ``Fix`` tree node).
    """
    h = hashlib.sha256()
    h.update(DIGEST_VERSION)
    for part in parts:
        _emit(h, part)
    return h.hexdigest()


def program_digest(
    command: Command,
    sigma: State,
    passes,
    max_nodes: int,
    options: tuple = (),
) -> str:
    """The compilation-cache key for one (program, state, options) triple.

    ``options`` carries any further pipeline knobs that shape the
    artifact (the eager-expansion budget) -- every option that affects
    the output must be part of the key.
    """
    return fingerprint(
        "program", command, sigma, tuple(passes), max_nodes, tuple(options),
    )
