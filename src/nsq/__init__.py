"""Exact-arithmetic toolkit for numerical semigroups, their quotients,
and representation generating functions.

The public names are loaded on first access (PEP 562), so a caller pays
only for the modules it uses: `nsq.frobenius` loads `nsq.semigroup` and
never the rational-function kernel.
"""

from importlib import import_module as _import_module

# public name -> defining submodule; __all__ and __getattr__ both read it
_EXPORTS = {
    **dict.fromkeys(("GeneratorList", "MembershipTable", "TruncatedSeries",
                     "apery", "build_membership", "denumerant",
                     "denumerant_series", "frobenius", "gaps",
                     "minimal_generators", "semigroup_equal"), "semigroup"),
    **dict.fromkeys(("QuotientSpec", "TpSet", "enumerate_Tp",
                     "frobenius_quotient", "generators_thm",
                     "minimal_quotient_generators", "quotient_membership",
                     "table1_generators", "verify_generators"), "quotient"),
    **dict.fromkeys(("RGFRational", "RGFSeries", "frobenius_from_rgf",
                     "gens_from_rgf", "rgf_rational", "rgf_series"), "rgf"),
    **dict.fromkeys(("CTExpr", "build_rgf_expr", "classify_monomial",
                     "ct_constant_term", "ct_rgf_rational", "lemma_zero_check",
                     "normalize_expr", "parse_elliott", "reduce_factor_mod",
                     "render_elliott", "residue_A0"), "ctengine"),
    **dict.fromkeys(("Poly", "RationalFunction", "poly_divmod", "poly_gcd",
                     "series_from_rational"), "exactalg"),
}
_SUBMODULES = {*_EXPORTS.values(), "errors"}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
