"""The host-side contenders of Fig. 4 and Fig. 6: the CPU reference sort
under every library's cost model, the merge cost model and kernels, and
host copies on the simulated machine."""

import numpy as np
import pytest

from repro import cpu_reference_sort
from repro.errors import CalibrationError
from repro.hw.machine import Machine
from repro.hw.platforms import PLATFORM1
from repro.kernels.mergepath import parallel_merge
from repro.kernels.multiway import multiway_merge
from repro.kernels.utils import is_sorted, same_multiset
from repro.sim.engine import Environment

LIBRARIES = ("gnu", "qsort", "std", "tbb")


@pytest.mark.parametrize("name", LIBRARIES)
def test_every_library_sorts(name, rng):
    a = rng.normal(size=3000)
    res = cpu_reference_sort(PLATFORM1, data=a, library=name, threads=8)
    assert is_sorted(res.output)
    assert same_multiset(a, res.output)
    assert res.elapsed == pytest.approx(
        PLATFORM1.sort_model(name).seconds(len(a), 8))


def test_unknown_library():
    with pytest.raises(CalibrationError):
        cpu_reference_sort(PLATFORM1, n=1000, library="introsort9000")


def test_library_cost_models_bound_to_platform():
    n = 10 ** 8
    res = cpu_reference_sort(PLATFORM1, n=n, library="gnu", threads=16)
    assert res.elapsed == pytest.approx(
        PLATFORM1.sort_model("gnu").seconds(n, 16))


def test_sequential_libraries_ignore_threads(rng):
    a = rng.normal(size=500)
    one = cpu_reference_sort(PLATFORM1, data=a, library="std", threads=1)
    many = cpu_reference_sort(PLATFORM1, data=a, library="std", threads=16)
    assert np.array_equal(one.output, many.output)
    std = PLATFORM1.sort_model("std")
    n = 10 ** 7
    assert std.seconds(n, 16) == std.seconds(n, 1)


def test_pairwise_merge_functional(rng):
    a = np.sort(rng.normal(size=400))
    b = np.sort(rng.normal(size=300))
    m = parallel_merge(a, b, threads=4)
    assert np.array_equal(m, np.sort(np.concatenate([a, b])))


def test_multiway_merge_functional(rng):
    runs = [np.sort(rng.normal(size=100)) for _ in range(5)]
    m = multiway_merge(runs)
    assert np.array_equal(m, np.sort(np.concatenate(runs)))


def test_merge_cost_models():
    n = 10 ** 9
    t2 = PLATFORM1.merge.seconds(n, threads=16, k=2)
    t8 = PLATFORM1.merge.seconds(n, threads=16, k=8)
    assert t8 > t2  # k-way costs more per element


def _host_memcpy_seconds(nbytes, threads):
    env = Environment()
    machine = Machine(env, PLATFORM1)
    env.run(env.process(machine.host_memcpy(nbytes, threads=threads)))
    return env.now


def test_memcpy_seconds_parallel_capped_by_bus():
    hm = PLATFORM1.hostmem
    nbytes = 1e9
    t1 = _host_memcpy_seconds(nbytes, 1)
    t8 = _host_memcpy_seconds(nbytes, 8)
    assert t1 == pytest.approx(nbytes / hm.per_core_copy_bw)
    assert t8 == pytest.approx(nbytes / hm.copy_bus_bw)
    assert t8 < t1
