"""The benchmark tracer (perfbench/layers.py) names solver functions to time.

A renamed function would leave its span reading zero in every traced run
instead of failing, so every (module, attribute) pair must resolve here.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_span_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for module_name, attr, span in layers.SPANS:
        owner = importlib.import_module(module_name)
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr} ({span})")
    assert not missing, missing
