"""The per-layer benchmark metrics name functions that exist.

bench/layers.py finds a function through its "module:qualname" and reads 0
for a name that no longer resolves, so a rename in the library would
silently empty a metric; this test makes it fail instead.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
# named by metrics, but deleted from the library before this test
RETIRED = {"linalg:rank", "mpoly:MPoly.__mul__"}


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_metric_names_a_live_function():
    layers = _layers()
    names = set()
    for _, *paths in layers.FUNCTIONS.values():
        names.update(paths)
    for callee, caller in layers.EDGES.values():
        names.update((callee, caller))
    for (callee, caller), denominator in layers.RATIOS.values():
        names.update((callee, caller, denominator))
    assert {"roots:rational_roots", "roots:field_roots"} <= names
    unresolved = {name for name in names if layers._code_key(name) is None}
    assert unresolved <= RETIRED, unresolved - RETIRED
