"""Regenerate bench/draws.json from tests/case_draws.py.

The benchmark reads its base draws from draws.json, not from the test
module, so that edits to the tests do not silently change the benchmark's
inputs.  Run from the repository root:

    PYTHONPATH=src:tests python3 bench/freeze_draws.py

Each entry is [label, params, expected_type_or_null, scale].  Rationals are
written as "p/q" strings, number-field elements as {"modulus": [...],
"coeffs": [...]} (ascending, as NumberField takes them).  `scale` is false
for families with a condition that mixes derivative orders: x -> (x - mu) /
lam rescales the orders differently, so only translations (lam = 1) map
such a draw onto the same family and type with unchanged coefficient
parameters.
"""

import json
from pathlib import Path

from case_draws import all_draws
from subalg.classify import CASES

OUT = Path(__file__).with_name("draws.json")


def scalar(value):
    if hasattr(value, "field"):
        return {"modulus": [str(c) for c in value.field.modulus_coeffs],
                "coeffs": [str(c) for c in value.coeffs]}
    return str(value)


def scalable(label):
    return all(len({order for order, _, _ in spec["terms"]}) <= 1
               for spec in CASES[label]["conditions"]
               if spec["kind"] == "deriv")


def main():
    rows = [[label, {k: scalar(v) for k, v in params.items()},
             list(expected) if expected else None, scalable(label)]
            for label, params, expected in all_draws()]
    OUT.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {len(rows)} draws to {OUT}")


if __name__ == "__main__":
    main()
