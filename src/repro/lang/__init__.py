"""The cpGCL language substrate.

This subpackage implements the conditional probabilistic guarded command
language of Definition 2.1 in the paper: program values, immutable program
states, a first-class expression AST, the command AST, derived commands
(``flip``, the discrete Laplace/Gaussian subroutines of Appendix C), a
concrete syntax with lexer/parser, a pretty-printer, and a static checker.
"""

# ``pretty`` is imported eagerly because it is also the name of a
# submodule (see :mod:`repro._lazy`); the rest resolves on first access,
# so parsing a program does not load the derived commands or the static
# checker.
from repro.lang.pretty import pretty, pretty_expr
from repro._lazy import lazy_exports

_EXPORTS = {
    "CpGCLError": "repro.lang.errors",
    "EvalError": "repro.lang.errors",
    "ParseError": "repro.lang.errors",
    "TypeCheckError": "repro.lang.errors",
    "Value": "repro.lang.values",
    "is_value": "repro.lang.values",
    "value_eq": "repro.lang.values",
    "State": "repro.lang.state",
    "BinOp": "repro.lang.expr",
    "Call": "repro.lang.expr",
    "Expr": "repro.lang.expr",
    "Lit": "repro.lang.expr",
    "Opaque": "repro.lang.expr",
    "UnOp": "repro.lang.expr",
    "Var": "repro.lang.expr",
    "to_expr": "repro.lang.expr",
    "Assign": "repro.lang.syntax",
    "Choice": "repro.lang.syntax",
    "Command": "repro.lang.syntax",
    "Ite": "repro.lang.syntax",
    "Observe": "repro.lang.syntax",
    "Seq": "repro.lang.syntax",
    "Skip": "repro.lang.syntax",
    "Uniform": "repro.lang.syntax",
    "While": "repro.lang.syntax",
    "seq": "repro.lang.syntax",
    "bernoulli_exponential": "repro.lang.sugar",
    "bernoulli_exponential_0_1": "repro.lang.sugar",
    "dueling_coins": "repro.lang.sugar",
    "flip": "repro.lang.sugar",
    "gaussian": "repro.lang.sugar",
    "gaussian_0": "repro.lang.sugar",
    "geometric_primes": "repro.lang.sugar",
    "hare_tortoise": "repro.lang.sugar",
    "laplace": "repro.lang.sugar",
    "n_sided_die": "repro.lang.sugar",
    "parse_expr": "repro.lang.parser",
    "parse_program": "repro.lang.parser",
    "check_program": "repro.lang.typecheck",
}

__all__ = sorted(set(_EXPORTS) | {"pretty", "pretty_expr"})

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
