"""Ring state stays bounded however many models are built.

A ring depends only on the shape of its model, and the builders share
one ring per shape through a bounded cache; a ring's one memo, which
monomial codes it keeps, is bounded by its shape too.  An unbounded
cache keyed by the twists, or a memo that grew with the models a ring
serves, would make memory grow with the number of models a caller
builds; this guard builds and evaluates fresh models after a warm-up
and checks that the allocations made in ``ellcob/algebra.py`` (rings and
their memos) and ``ellcob/manifolds.py`` (the shape cache) do not grow.
A fresh model shares no base and twists with a warm-up model or another
fresh one.  What the shared rings hold depends on what ran before in the
same interpreter, so the guard must pass both alone and after the whole
suite.
"""
import gc
import random
import tracemalloc

from ellcob import algebra, manifolds
from ellcob.cobordism import pontryagin_numbers
from ellcob.genera import signature
from ellcob.manifolds import LineBundleSum, build_proj_bundle

LIMIT = 64 * 1024  # bytes


def _specs(count: int, seed: str, taken: set | None = None) -> list[tuple[int, tuple[int, ...]]]:
    """Random P(E) over CP^l with l + rank odd, so the dimension is 4k, 8 to 20.  With ``taken``,
    a set of (base, sorted twists), each spec is one not in it, and is added to it."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        base, rank = rng.randint(1, 6), rng.randint(2, 6)
        if (base + rank) % 2 and base + rank <= 11:
            degrees = tuple(rng.randint(-3, 3) for _ in range(rank))
            if taken is not None:
                if (base, tuple(sorted(degrees))) in taken:
                    continue
                taken.add((base, tuple(sorted(degrees))))
            specs.append((base, degrees))
    return specs


def _evaluate(specs) -> None:
    for base, degrees in specs:
        m = build_proj_bundle(LineBundleSum(base, degrees))
        signature(m)
        pontryagin_numbers(m)


def test_fresh_models_leave_no_ring_state():
    # warm-up: the universal polynomials and the powers of each series are cached here
    warm = _specs(150, "warm-up")
    _evaluate(warm)
    fresh = _specs(50, "fresh", {(base, tuple(sorted(degrees))) for base, degrees in warm})
    gc.collect()
    ring_state = [tracemalloc.Filter(True, module.__file__) for module in (algebra, manifolds)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(ring_state)
        _evaluate(fresh)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(ring_state)
    finally:
        tracemalloc.stop()
    growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert growth < LIMIT, f"{growth} bytes allocated in algebra.py and manifolds.py outlived their models"
