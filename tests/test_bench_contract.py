"""The names the benchmark reads from the package exist.

``bench/`` is outside this test run, and its own self-test starts the
workloads.  A renamed name would first show there, as a failed run: the
tracer rebinds every name of ``bench/tracing.py``'s ``TRACED``, and
``bench/worker.py`` and ``bench/workloads.py`` read the rest.  ``TRACED`` is
read from the source, so ``bench/`` is neither imported nor changed.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

import snrecoupling
from snrecoupling import cli, intertwiner, recoupling, schurweyl

BENCH = Path(__file__).resolve().parent.parent / "bench"


def traced_names() -> list[tuple[str, str]]:
    """(module, attr) of each ``Traced(...)`` in ``TRACED``."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    traced = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    return [tuple(arg.value for arg in call.args[:2]) for call in traced.elts]


def test_every_traced_name_exists():
    names = traced_names()
    assert len(names) == 16 and ("repsym", "young_orthogonal_rep") in names
    for module, attr in names:
        owner = importlib.import_module(f"snrecoupling.{module}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # the tracer reads a method from its class's own __dict__
        value = vars(owner)[name] if classes else getattr(owner, name)
        assert callable(value), f"{module}.{attr}"


def test_names_the_worker_and_the_workloads_read():
    assert isinstance(snrecoupling.__version__, str)
    assert isinstance(intertwiner.DEFAULT_PRODUCT_CAP, int)
    assert isinstance(schurweyl.DENSE_CAP, int)
    assert callable(cli.main)
    matrix = np.asarray(recoupling.full_recoupling_unitary((2, 1), (2, 1), (2, 1), (2, 1)).matrix)
    assert matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1] > 0
