"""The traced benchmark (perfbench/spans.py) wraps romkit functions by name;
a refactor that drops or renames one must fail here, not in a benchmark run."""

import importlib.util
import inspect
from pathlib import Path

from romkit.rom import integrate_rom

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_target():
    spans = _load_spans()
    tracer = spans.Tracer()  # raises LookupError naming any missing target
    assert len(tracer._targets) == len(spans.TARGETS)


def test_integrate_rom_takes_times_third():
    # the tracer counts reduced steps from the third positional argument
    assert list(inspect.signature(integrate_rom).parameters)[2] == "times"
