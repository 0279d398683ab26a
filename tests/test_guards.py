"""Every resource guard in one table.

Each site is checked the same way: it refuses a value one past its
limit with GuardExceededError(what, value, limit) and the one message
format, it lets the limit itself through, and at its real limit it
refuses before allocating; no guard can be lifted. Every guard the CLI
can reach exits 3 with that message, and README's Guards table names
exactly the guards the code has, each limit by a name the code defines.
"""

import importlib
import math
import pkgutil
import re
import tracemalloc
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import tricap
from tricap import (
    GuardExceededError,
    PointSet,
    comity_scan,
    cross_quadruples,
    diff_multiplicity,
    doubling_ratio,
    e2m,
    exhaustive_max_capset,
    greedy_random_capset,
    holder_check,
    komity,
    komity_reference,
    product_capset,
    random_point_set,
    save_point_set,
    transform_point_set,
    transform_table,
)
from tricap import capset, energy, fourier, linalg, structure
from tricap.cli import main
from tricap.structure import AdditiveStructure

from conftest import whole_space


class Site(NamedTuple):
    what: str
    limit: tuple[object, str]  # module and name of the limit
    setup: Callable[[int], Callable]  # guarded value -> the guarded call, inputs built
    small: int  # a value cheap to run: the limit is patched to it and to one less
    big: int  # a value past the real limit whose inputs are cheap to build


def _band(d: int, n: int = 11, base: int = 64) -> AdditiveStructure:
    """A band of d differences over the first base points of F_3^n.

    Comity rows over 64 base points are one word each, so the scan
    counts d^2 words.
    """
    return AdditiveStructure(
        base=PointSet._from_sorted(n, np.arange(base)),
        diffs=PointSet._from_sorted(n, np.arange(d)), m_lo=1, pair_count=0,
    )


def _product_of(size: int) -> Callable:
    """product_capset on two sets of F_3^9 whose sizes multiply to size."""
    right = math.isqrt(size)
    while size % right:
        right -= 1
    return partial(product_capset, PointSet(9, range(size // right)), PointSet(9, range(right)))


SITES = {
    "transform-hard": Site(
        "transform dimension", (fourier, "TRANSFORM_HARD_MAX_N"),
        lambda n: partial(transform_point_set, PointSet(n, [0])), 4, 17),
    "transform-bound": Site(  # the l1 of (v - v // 2, v // 2, 0), a third of its peak bound
        "transform bound", (fourier, "_INT64_MAX"),
        lambda v: partial(transform_table, np.array([v - v // 2, v // 2, 0]), 1), 2**31, 2**63),
    "bitmap": Site(
        "dense bitmap dimension", (capset, "DENSE_MAX_N"),
        lambda n: PointSet(n, [0]).bitmap, 4, 17),
    "greedy": Site(
        "greedy generation dimension", (capset, "GREEDY_GUARD_N"),
        lambda n: partial(greedy_random_capset, n, 1), 4, 17),
    "product": Site(
        "product dimension", (capset, "MAX_DIM"),
        lambda n: partial(product_capset, PointSet(n // 2, [0]), PointSet(n - n // 2, [1])),
        4, 21),
    "product-size": Site(  # 6,562 x 6,561 points: one row past 3^16
        "product size", (capset, "PRODUCT_GUARD_SIZE"),
        _product_of, 6, 6562 * 6561),
    "exhaustive": Site(
        "exhaustive search dimension", (capset, "EXHAUSTIVE_GUARD_N"),
        lambda n: partial(exhaustive_max_capset, n), 2, 5),
    "enumeration": Site(
        "subspace enumeration dimension", (linalg, "ENUM_GUARD_DIM"),
        lambda n: whole_space(n).enumerate_indices, 3, 17),
    "difference": Site(
        "dense difference table dimension", (energy, "DENSE_MAX_N"),
        lambda n: partial(diff_multiplicity, PointSet(n, [0, 1]), backend="hash"), 4, 17),
    "convolution": Site(  # the first step of E_4 counts |A| * |A| operations
        "convolution operations", (energy, "CONVOLUTION_OP_GUARD"),
        lambda v: partial(e2m, random_point_set(17, math.isqrt(v), 5), 2, backend="convolution"),
        9, 7072**2),
    "energy-order": Site(
        "energy order m", (energy, "E2M_MAX_M"),
        lambda m: partial(e2m, PointSet(3, [0, 1]), m), 4, 257),
    "holder-order": Site(
        "energy order m", (energy, "E2M_MAX_M"),
        lambda m: partial(holder_check, PointSet(3, [0, 1]), m), 4, 257),
    "sumset": Site(
        "dense sumset table dimension", (energy, "DENSE_MAX_N"),
        lambda n: partial(cross_quadruples, PointSet(n, [0, 1]), PointSet(n, [0, 2])), 4, 17),
    "komity-reference": Site(
        "reference komity size", (structure, "_REFERENCE_GUARD"),
        lambda d: partial(komity_reference, _band(d)), 3, 257),
    "comity": Site(  # d^2 words for d differences over 64 base points
        "comity scan words", (structure, "COMITY_GUARD_WORDS"),
        lambda v: partial(comity_scan, _band(math.isqrt(v))), 3**2, 65537**2),
    "doubling": Site(
        "dense doubling table dimension", (structure, "DENSE_MAX_N"),
        lambda n: partial(doubling_ratio, PointSet(n, [0, 1])), 4, 17),
}

sites = pytest.mark.parametrize("site", SITES.values(), ids=SITES.keys())


def message(what: str, value: int, limit: int) -> str:
    return f"{what} {value} exceeds the limit {limit}"


@sites
def test_refuses_one_past_the_limit(site, monkeypatch):
    call = site.setup(site.small)
    monkeypatch.setattr(*site.limit, site.small - 1)
    with pytest.raises(GuardExceededError) as exc:
        call()
    err = exc.value
    assert err.args == (site.what, site.small, site.small - 1)
    assert (err.what, err.value, err.limit) == err.args
    assert str(err) == message(site.what, site.small, site.small - 1)


@sites
def test_lets_the_limit_through(site, monkeypatch):
    call = site.setup(site.small)
    monkeypatch.setattr(*site.limit, site.small)
    call()


@sites
def test_refuses_before_allocating(site):
    limit = getattr(*site.limit)
    assert site.big > limit
    call = site.setup(site.big)
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceededError) as exc:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.args == (site.what, site.big, limit)
    assert peak < 1 << 20


UNITS_17 = ",".join("0" * i + "1" + "0" * (16 - i) for i in range(17))

# per site: argv, {name} standing for the files written below; the value
# and the limit it trips at; whether that limit is patched in
CLI_CASES = {
    "transform-hard": (("fourier", "transform", "{n17}"), 17, 16, False),
    "greedy": (("capset", "gen", "--n", "17", "--seed", "1"), 17, 16, False),
    "product": (("capset", "product", "{n10}", "{n11}"), 21, 20, False),
    "product-size": (("capset", "product", "{n4}", "{n4}"), 9, 8, True),  # 3 x 3 points
    "exhaustive": (("capset", "max", "--n", "5"), 5, 4, False),
    "enumeration": (("structure", "fibers", "{n17}", "--h", UNITS_17), 17, 16, False),
    "difference": (("energy", "e4", "{n17}", "--backend", "hash"), 17, 16, False),
    "convolution": (("energy", "e2m", "{n17}", "--m", "2"), 9, 8, True),  # 3 * 3 operations
    "energy-order": (("energy", "e2m", "{n4}", "--m", "257"), 257, 256, False),
    "holder-order": (("energy", "holder", "{n4}", "--m", "257"), 257, 256, False),
    "sumset": (("energy", "cross", "{n17}", "{n17}"), 17, 16, False),
    "comity": (("structure", "comity", "{n4}"), 36, 35, True),  # 6 differences in band 1
    "doubling": (("structure", "doubling", "{n17}"), 17, 16, False),
}
# the set files CLI_CASES name, one per dimension
FILE_DIMS = (4, 10, 11, 17)


@pytest.mark.parametrize("case", CLI_CASES.keys())
def test_cli_guard_exits_three_with_the_message(case, tmp_path, capsys, monkeypatch):
    argv, value, limit, patched = CLI_CASES[case]
    site = SITES[case]
    if patched:
        monkeypatch.setattr(*site.limit, limit)
    assert getattr(*site.limit) == limit
    files = {f"n{n}": str(tmp_path / f"n{n}.txt") for n in FILE_DIMS}
    for name, path in files.items():
        save_point_set(PointSet(int(name[1:]), [0, 1, 3]), path)
    code = main([arg.format(**files) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == f"tricap: guard: {message(site.what, value, limit)}\n"
    assert "(" not in err


def test_comity_takes_many_differences_over_a_narrow_base():
    # 4,097 differences, refused whatever the base by the old limit of
    # 4,096, are 4097^2 words over 64 base points: far within the limit
    band = _band(4097)
    assert sum(b.mass for b in comity_scan(band)) == komity(band)


def test_comity_refuses_a_wide_base_before_its_rows():
    # 4,096 differences over all of F_3^14, which the old limit let
    # through, are 2.5 GB of packed rows
    band = _band(4096, 14, 3**14)
    words = 4096**2 * -(-(3**14) // 64)
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceededError) as exc:
            comity_scan(band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.args == ("comity scan words", words, structure.COMITY_GUARD_WORDS)
    assert peak < 1 << 20


def test_readme_guards_table_names_every_guard():
    root = Path(__file__).resolve().parents[1]
    code = {
        what
        for path in sorted((root / "src" / "tricap").glob("*.py"))
        for what in re.findall(r'\bguard\(\s*"([^"]+)"', path.read_text())
    }
    section = root.joinpath("README.md").read_text().split("\n## Guards\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `([^`]+)`", section, flags=re.MULTILINE))
    assert code == {site.what for site in SITES.values()}
    assert rows == code
    # every constant the Limit column names is defined, so no row keeps a stale name
    modules = [importlib.import_module(m.name) for m in pkgutil.iter_modules(
        tricap.__path__, "tricap.") if m.name != "tricap.__main__"]
    limits = [re.split(r"(?<!\\)\|", line)[2]
              for line in section.splitlines() if line.startswith("| `")]
    names = {name for cell in limits for name in re.findall(r"`(\w+)`", cell)}
    assert names
    assert [name for name in sorted(names) if not any(hasattr(m, name) for m in modules)] == []
