"""The benchmark's trace probes name functions that ``Tracer.install`` can replace.

``perfbench/spans.Tracer.install`` reads ``owner.__dict__[attr]``, so a probed
function that moves to a base class or another module fails only in a traced
benchmark run. This checks every probe without running one.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_is_an_attribute_of_its_owner_itself():
    probes = load_layers().PROBES
    assert probes
    missing = [(name, getattr(owner, "__qualname__", owner.__name__), attr)
               for name, owner, attr, _ in probes if attr not in vars(owner)]
    assert missing == []
