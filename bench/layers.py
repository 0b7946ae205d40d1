"""Per-layer metrics from one cProfile pass, aggregated by source file.

A layer is a module of src/subalg.  ``<module>.self_s`` sums the tottime of
the functions defined in that file (``fields`` also takes fractions.py and
math.gcd, the arithmetic it delegates to).  ``*_calls`` are the exact ncalls
of one public function, ``*_incl_s`` its cumtime.  Functions are found
through their code objects, so a renamed or deleted function reads 0 rather
than breaking the benchmark.
"""

from __future__ import annotations

import fractions
import importlib
from pathlib import Path

MODULES = ("fields", "poly", "mpoly", "linalg", "semigroup", "sagbi",
           "conditions", "resultants", "roots", "spectrum", "derivations",
           "classify", "parsing")

# metric -> (kind, "module:qualname", ...); kind is calls or incl
FUNCTIONS = {
    "fields.fraction_new": ("calls", "fractions:Fraction.__new__"),
    "fields.elem_mul": ("calls", "fields:FieldElem.__mul__"),
    "fields.elem_inverse": ("calls", "fields:FieldElem.inverse"),
    "fields.is_zero_calls": ("calls", "fields:is_zero_scalar",
                             "fields:FieldElem.is_zero"),
    "poly.mul_calls": ("calls", "poly:Poly.__mul__"),
    "poly.eval_calls": ("calls", "poly:Poly.__call__"),
    "poly.derivative_calls": ("calls", "poly:Poly.derivative"),
    "poly.divmod_calls": ("calls", "poly:Poly.__divmod__"),
    "poly.gcd_calls": ("calls", "poly:poly_gcd"),
    "poly.squarefree_calls": ("calls", "poly:squarefree_decompose"),
    "mpoly.mul_calls": ("calls", "mpoly:MPoly.__mul__"),
    "linalg.rref_calls": ("calls", "linalg:rref"),
    "linalg.rank_calls": ("calls", "linalg:rank"),
    "linalg.nullspace_calls": ("calls", "linalg:nullspace"),
    "semigroup.represent_calls": ("calls",
                                  "semigroup:DegreeSemigroup.represent"),
    "sagbi.complete_calls": ("calls", "sagbi:sagbi_complete"),
    "sagbi.complete_incl_s": ("incl", "sagbi:sagbi_complete"),
    "sagbi.subduce_calls": ("calls", "sagbi:subduce"),
    "sagbi.subduce_incl_s": ("incl", "sagbi:subduce"),
    "conditions.kernel_calls": ("calls", "conditions:kernel_subalgebra"),
    "conditions.kernel_incl_s": ("incl", "conditions:kernel_subalgebra"),
    "conditions.apply_calls": ("calls", "conditions:LinearFunctional.apply"),
    "resultants.pair_calls": ("calls", "resultants:char_poly_pair"),
    "resultants.pair_incl_s": ("incl", "resultants:char_poly_pair"),
    "resultants.multi_incl_s": ("incl", "resultants:char_poly_multi"),
    "resultants.tables_calls": ("calls", "resultants:resultant_y_tables"),
    "resultants.relation_incl_s": ("incl", "resultants:resultant_relation"),
    "roots.rational_calls": ("calls", "roots:rational_roots"),
    "roots.field_calls": ("calls", "roots:field_roots"),
    "roots.aberth_calls": ("calls", "roots:aberth_roots"),
    "roots.aberth_incl_s": ("incl", "roots:aberth_roots"),
    "spectrum.charpoly_incl_s": ("incl",
                                 "spectrum:characteristic_polynomial"),
    "spectrum.compute_incl_s": ("incl", "spectrum:compute_spectrum"),
    "derivations.k_alpha_calls": ("calls", "derivations:k_alpha"),
    "derivations.k_alpha_incl_s": ("incl", "derivations:k_alpha"),
    "derivations.space_incl_s": ("incl", "derivations:derivation_space"),
    "classify.classify_incl_s": ("incl", "classify:classify"),
    "classify.construct_incl_s": ("incl", "classify:construct_case"),
    "classify.canonical_incl_s": ("incl", "classify:canonical_case_basis"),
}

# metric -> (callee, caller): calls of callee made directly by caller
EDGES = {
    "sagbi.basis_builds": ("sagbi:SagbiBasis.__init__",
                           "sagbi:sagbi_complete"),
}

# metric -> (numerator edge (callee, caller), denominator function)
RATIOS = {
    "sagbi.rounds_per_complete": (("sagbi:SagbiBasis.__init__",
                                   "sagbi:sagbi_complete"),
                                  "sagbi:sagbi_complete"),
    "derivations.rounds_per_k_alpha": (("linalg:rank", "derivations:k_alpha"),
                                       "derivations:k_alpha"),
    "spectrum.pairs_per_charpoly": (("resultants:char_poly_pair",
                                     "spectrum:characteristic_polynomial"),
                                    "spectrum:characteristic_polynomial"),
}

ERROR_CLASSES = ("SubalgError", "NonConvergence", "UnpairedRoot",
                 "BoundViolated", "SpectrumNotExact", "InexactSpectrum",
                 "ClassificationError", "ParameterDegeneracy",
                 "DegenerateConditions", "NotSubalgebraConditions",
                 "NoStabilization", "PowerBoundExceeded",
                 "InfiniteCodimension", "NonInvertible")

OTHER_METRICS = {
    "spectrum.exact_share": ("ratio", "higher"),
    "fail_ratio": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def metric_specs():
    """(name, unit, better) of every per-layer metric, in output order."""
    out = [(f"{m}.self_s", "s", "lower") for m in MODULES]
    out.append(("fields.fraction_ops", "count", "lower"))
    for name, (kind, *_rest) in FUNCTIONS.items():
        out.append((name, "s" if kind == "incl" else "count", "lower"))
    out.extend((name, "count", "lower") for name in EDGES)
    out.extend((name, "ratio", "lower") for name in RATIOS)
    out.extend((f"errors.{c}", "count", "lower")
               for c in ERROR_CLASSES + ("other",))
    out.extend((name, unit, better)
               for name, (unit, better) in OTHER_METRICS.items())
    return out


def _code_key(path):
    """pstats key of the function named by "module:qualname", or None."""
    module, qualname = path.split(":")
    obj = importlib.import_module(
        module if module == "fractions" else f"subalg.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    code = getattr(obj, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def layer_metrics(stats, src_dir):
    """Per-layer values from pstats.Stats(...).stats; no error counts."""
    files = {str(Path(src_dir) / f"{m}.py"): m for m in MODULES}
    fraction_file = fractions.__file__
    self_s = dict.fromkeys(MODULES, 0.0)
    fraction_ops = 0
    for (filename, _, funcname), (_, nc, tt, _, _) in stats.items():
        module = files.get(filename)
        if filename == fraction_file:
            module = "fields"
            if funcname != "__new__":
                fraction_ops += nc
        elif funcname == "<built-in method math.gcd>":
            module = "fields"
        if module is not None:
            self_s[module] += tt
    out = {f"{m}.self_s": self_s[m] for m in MODULES}
    out["fields.fraction_ops"] = fraction_ops

    def calls(path):
        key = _code_key(path)
        return stats[key][1] if key in stats else 0

    def edge(callee, caller):
        key, by = _code_key(callee), _code_key(caller)
        if key not in stats or by not in stats[key][4]:
            return 0
        return stats[key][4][by][0]

    for name, (kind, *paths) in FUNCTIONS.items():
        if kind == "calls":
            out[name] = sum(calls(p) for p in paths)
        else:
            key = _code_key(paths[0])
            out[name] = stats[key][3] if key in stats else 0.0
    for name, (callee, caller) in EDGES.items():
        out[name] = edge(callee, caller)
    for name, ((callee, caller), base) in RATIOS.items():
        n = calls(base)
        out[name] = edge(callee, caller) / n if n else 0.0
    return out


def error_metrics(errors, attempted):
    """errors.<Class> counts, errors.other and fail_ratio."""
    out = {f"errors.{c}": errors.get(c, 0) for c in ERROR_CLASSES}
    out["errors.other"] = sum(n for c, n in errors.items()
                              if c not in ERROR_CLASSES)
    out["fail_ratio"] = sum(errors.values()) / attempted
    return out
