"""The benchmark tracer's targets still name live ellcob functions.

``bench/tracer.py`` wraps functions by module and attribute name.  A
rename in the library would otherwise only surface when someone runs
``bench/run.py --trace 1``; these tests load the tracer read-only and
fail as soon as a target stops resolving, or as soon as a genus stops
passing through the layer that times one of its two routes.
"""
import importlib
import sys
import types
from pathlib import Path

import pytest

from ellcob.genera import ahat, elliptic_q_coefficients, signature
from ellcob.manifolds import build_cp, build_hp, product

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # compiled in memory, so no bytecode is written next to the tracer
    module = types.ModuleType("ellcob_bench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    for name in {module_name for targets in module.TARGETS.values() for module_name, _ in targets}:
        importlib.import_module(name)
    return module


def _targets(tracer):
    return [(layer, module, path) for layer, targets in tracer.TARGETS.items() for module, path in targets]


def test_every_target_resolves(tracer):
    for layer, module, path in _targets(tracer):
        _, fn = tracer._resolve(module, path)
        assert callable(fn), f"{layer}: {module}.{path} is not callable"


def test_every_cache_is_an_lru_cache(tracer):
    genera = sys.modules["ellcob.genera"]
    for prefix, names in tracer.CACHES.items():
        for name in names:
            assert hasattr(getattr(genera, name), "cache_info"), f"{prefix}: {name}"


GENERA = {
    "signature": signature,
    "ahat": ahat,
    "elliptic_q_coefficients": lambda m: elliptic_q_coefficients(m, 2),
}


@pytest.mark.parametrize("genus", GENERA)
@pytest.mark.parametrize("build", [lambda: build_cp(2), lambda: product(build_cp(2), build_hp(1))],
                         ids=["prime", "product"])
def test_each_route_layer_counts_its_calls(tracer, genus, build):
    # the roots route evaluates once per prime factor and the universal route once per model,
    # so neither layer reads 0 while both routes run
    m = build()
    t = tracer.Tracer()
    t.install()
    try:
        GENERA[genus](m)
    finally:
        t.uninstall()
    calls = t.layer_metrics()
    assert calls["genera.roots_eval.calls"] == len(m.factors or (m,))
    assert calls["genera.universal_eval.calls"] == 1


def test_install_and_uninstall_restore_every_target(tracer):
    before = [tracer._resolve(module, path)[1] for _, module, path in _targets(tracer)]
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = [tracer._resolve(module, path)[1] for _, module, path in _targets(tracer)]
    finally:
        t.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert [tracer._resolve(module, path)[1] for _, module, path in _targets(tracer)] == before
