"""The benchmark's trace wrappers still find every name they patch.

``perfbench/run.py --trace 1`` wraps each ``SPAN_SITES`` entry by module (or
class) and attribute name; a refactor that moves or renames one of them
would make the traced pass fail with ``AttributeError``.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("site,attr,name", spans.SPAN_SITES,
                         ids=[f"{s}.{a}" for s, a, _n in spans.SPAN_SITES])
def test_span_site_resolves(site, attr, name):
    owner = spans._resolve(site)
    assert callable(getattr(owner, attr, None)), f"{site}.{attr} ({name})"
    assert name.split(".", 1)[0] in spans.LAYERS
