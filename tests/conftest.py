"""Suite-wide pytest hooks.

Order-independence sweep: setting ``REPRO_TEST_ORDER_SEED=<int>``
shuffles test execution order deterministically (module order, and
test order within each module). Any test that passes only because a
sibling ran first — a warmed process-global cache, a leaked executor,
a mutated registry — fails under some seed, which is exactly the
point. CI runs the tier-1 suite under three pinned seeds; reproduce a
failure locally with the seed CI prints::

    REPRO_TEST_ORDER_SEED=1 python -m pytest -x -q

The shuffle is grouped by module so module-scoped fixtures keep their
locality (the expensive sample-field and worker-fleet fixtures are
built once per module either way); dependence on *fixtures* is fine,
dependence on *order* is the bug this hook exists to surface.

The autouse ``_process_globals_restored`` fixture fails any test that
leaves the process-wide result cache, tracer or kernel-backend override
different from what it found, so no test leans on (or leaks) a sibling's
global state.
"""

import os
import random

import pytest

from repro.cache import get_cache
from repro.compressors import kernels
from repro.observability import get_tracer


@pytest.fixture(autouse=True)
def _process_globals_restored():
    cache, tracer, override = get_cache(), get_tracer(), kernels._override
    yield
    changed = [
        name for name, same in (
            ("result cache", get_cache() is cache),
            ("tracer", get_tracer() is tracer),
            ("kernel-backend override", kernels._override == override),
        ) if not same
    ]
    if changed:
        pytest.fail("test left the process-wide " + ", ".join(changed)
                    + " changed; restore it (use_cache/use_tracer/"
                    "use_backend)", pytrace=False)


def pytest_collection_modifyitems(config, items):
    seed_text = os.environ.get("REPRO_TEST_ORDER_SEED")
    if not seed_text:
        return
    try:
        seed = int(seed_text)
    except ValueError:
        raise ValueError(
            f"REPRO_TEST_ORDER_SEED must be an integer, got {seed_text!r}"
        ) from None
    rng = random.Random(seed)
    by_module = {}
    for item in items:
        by_module.setdefault(item.module.__name__, []).append(item)
    modules = list(by_module)
    rng.shuffle(modules)
    shuffled = []
    for module in modules:
        group = by_module[module]
        rng.shuffle(group)
        shuffled.extend(group)
    items[:] = shuffled


def pytest_report_header(config):
    seed_text = os.environ.get("REPRO_TEST_ORDER_SEED")
    if seed_text:
        return f"order-independence shuffle: REPRO_TEST_ORDER_SEED={seed_text}"
    return None
