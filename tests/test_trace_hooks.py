import importlib
import importlib.util

from helpers import FIXTURES

SPANS = FIXTURES.parent / "mkgbench" / "spans.py"


def test_traced_names_resolve():
    # mkgbench/run.py --trace 1 wraps these module globals by name, so a
    # rename in the package must show up here, not only in a traced run
    spec = importlib.util.spec_from_file_location("mkgbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module, attr, _ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr)), (
            module, attr)
