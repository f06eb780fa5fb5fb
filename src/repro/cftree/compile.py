"""The compiler from cpGCL to CF trees (Definition 3.5).

``compile_cpgcl c sigma`` maps an initial state to the CF tree encoding
the sampling semantics of ``c`` from ``sigma``:

====================  =================================================
``skip``              ``Leaf sigma``
``x <- e``            ``Leaf sigma[x -> e sigma]``
``observe e``         ``Leaf sigma`` if ``e sigma`` else ``Fail``
``c1; c2``            ``compile c1 sigma >>= compile c2``
``if e ...``          compile the taken branch
``{c1} [p] {c2}``     ``Choice (p sigma) ...`` (bias evaluated *now*,
                      which is how state-dependent probabilities become
                      constant-rational choice nodes ready for debiasing)
``uniform e x``       ``uniform_tree (e sigma) >>= \\n. Leaf sigma[x->n]``
``while e do c``      ``Fix sigma e (compile c) Leaf``
====================  =================================================

The compiler performs the dynamic side-condition checks of
Definition 2.1 (probability in [0, 1], positive uniform range).
"""

from repro.cftree.cache import BoundedCache
from repro.cftree.keys import derive, tag
from repro.cftree.monad import bind
from repro.compiler.normalize import normalize_command, normalize_state
from repro.cftree.tree import CFTree, Choice, Fail, Fix, Leaf
from repro.cftree.uniform import uniform_tree
from repro.lang.errors import ProbabilityRangeError, UniformRangeError
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
from repro.lang.values import as_bool, as_fraction, as_int


# Loop bodies are recompiled per iteration per sample; states recur
# across samples, so memoization on (command, state) is the sampler's
# main constant-factor optimization.  Keys are *structural*: the
# normalize stage interns commands and states to canonical
# representatives, so the memo key is the canonical object itself --
# structurally equal programs share entries, and (unlike the earlier
# ``id(command)`` keys) the key can never alias a recycled address.
_COMPILE_CACHE = BoundedCache()

# While commands are interned by normalize, so their footprints (the
# variables guard+body can touch, see repro.compiler.liveness) are
# memoized per canonical command -- one AST walk per program, not one
# per loop-entry state.
_FOOTPRINT_CACHE = BoundedCache(10_000)


def _while_footprint(command: "While"):
    hit = _FOOTPRINT_CACHE.get(id(command))
    if hit is not None:
        return hit[0]
    from repro.compiler.liveness import command_footprint

    footprint = command_footprint(command)
    _FOOTPRINT_CACHE.put(id(command), (command,), (footprint,))
    return footprint


def compile_cache_stats():
    """Hit/miss counters of the compile memo (for pipeline reporting)."""
    return _COMPILE_CACHE.stats()


def compile_cpgcl(command: Command, sigma: State) -> CFTree:
    """``[[command]] sigma`` -- Definition 3.5."""
    command = normalize_command(command)
    sigma = normalize_state(sigma)
    # The canonical objects' ids are structural keys in disguise: the
    # interner maps equal objects to one representative, and the
    # keepalive tuple pins it so the id cannot be recycled even if the
    # interner is reset.
    key = (id(command), id(sigma))
    cached = _COMPILE_CACHE.get(key)
    if cached is None:
        cached = _compile(command, sigma)
        _COMPILE_CACHE.put(key, (command, sigma), cached)
    return cached


def _compile(command: Command, sigma: State) -> CFTree:
    if isinstance(command, Skip):
        return Leaf(sigma)
    if isinstance(command, Assign):
        return Leaf(sigma.set(command.name, command.expr.eval(sigma)))
    if isinstance(command, Observe):
        if as_bool(command.pred.eval(sigma)):
            return Leaf(sigma)
        return Fail()
    if isinstance(command, Seq):
        second = command.second
        return bind(
            compile_cpgcl(command.first, sigma),
            tag(
                lambda s: compile_cpgcl(second, s),
                derive("k.compile", second),
            ),
        )
    if isinstance(command, Ite):
        taken = command.then if as_bool(command.cond.eval(sigma)) else command.orelse
        return compile_cpgcl(taken, sigma)
    if isinstance(command, ChoiceCmd):
        p = as_fraction(command.prob.eval(sigma))
        if not 0 <= p <= 1:
            raise ProbabilityRangeError(p, sigma)
        return Choice(
            p,
            compile_cpgcl(command.left, sigma),
            compile_cpgcl(command.right, sigma),
        )
    if isinstance(command, Uniform):
        n = as_int(command.range_expr.eval(sigma))
        if n <= 0:
            raise UniformRangeError(n, sigma)
        name = command.name
        # The setter continuation stays untagged on purpose: its key
        # would embed sigma and be unique per state -- all cost (a state
        # fingerprint per compile), no sharing.  The rejection wrapper
        # it produces is closed out by expansion before any disk spill.
        return bind(uniform_tree(n), lambda i: Leaf(sigma.set(name, i)))
    if isinstance(command, While):
        guard_expr, body = command.cond, command.body

        def guard(s: State) -> bool:
            return as_bool(guard_expr.eval(s))

        def generate(s: State) -> CFTree:
            return compile_cpgcl(body, s)

        # The command fully determines guard and body; cont is the pure
        # Leaf injection, so the machinery subkey coincides with the
        # full key.  init (= sigma) is digested separately by the
        # "fixkey" tree emitter, so it is *not* part of the key.
        key = derive("fix.while", command)
        return Fix(
            sigma,
            guard,
            generate,
            Leaf,
            key=key,
            subkey=key,
            footprint=_while_footprint(command),
        )
    raise TypeError("not a command: %r" % (command,))
