"""Ring state stays bounded however many models are built.

A ring built once keeps its own reduction table, which dies with its
model, and leaves only its signature behind; equal rings built again
share one table, and one registry keeps the signatures, one-off and
shared alike, for a bounded number of them.  An unbounded cache of either
would make memory grow with the number of models a caller builds; this
guard builds and evaluates fresh models after a warm-up and checks that
the allocations made in ``ellcob/algebra.py`` do not grow.  What the
shared tables hold depends on what ran before in the same interpreter,
so the guard must pass both alone and after the whole suite.
"""
import gc
import random
import tracemalloc

from ellcob import algebra
from ellcob.cobordism import pontryagin_numbers
from ellcob.genera import signature
from ellcob.manifolds import LineBundleSum, build_proj_bundle

LIMIT = 64 * 1024  # bytes


def _specs(count: int, seed: str) -> list[tuple[int, tuple[int, ...]]]:
    """Random P(E) over CP^l with l + rank odd, so the dimension is 4k, 8 to 20."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        base, rank = rng.randint(1, 6), rng.randint(2, 6)
        if (base + rank) % 2 and base + rank <= 11:
            specs.append((base, tuple(rng.randint(-3, 3) for _ in range(rank))))
    return specs


def _evaluate(specs) -> None:
    for base, degrees in specs:
        m = build_proj_bundle(LineBundleSum(base, degrees))
        signature(m)
        pontryagin_numbers(m)


def test_fresh_models_leave_no_ring_state():
    # warm-up: the universal polynomials and the powers of each series are cached here
    _evaluate(_specs(150, "warm-up"))
    fresh = _specs(50, "fresh")
    gc.collect()
    only_algebra = [tracemalloc.Filter(True, algebra.__file__)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_algebra)
        _evaluate(fresh)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(only_algebra)
    finally:
        tracemalloc.stop()
    growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert growth < LIMIT, f"{growth} bytes allocated in algebra.py outlived their models"
