import argparse
import csv
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from tricap import (
    PointSet,
    TritVector,
    cli,
    energy,
    eval_at,
    greedy_random_capset,
    is_capset,
    load_point_set,
    random_point_set,
    save_point_set,
    spectrum,
)
from tricap.cli import main
from tricap.version import VERSION

import oracles
from conftest import on_affine_coset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cap_file(tmp_path, capsys):
    path = str(tmp_path / "cap.txt")
    code, _, _ = run_cli(capsys, "capset", "gen", "--n", "6", "--seed", "3", "--out", path)
    assert code == 0
    return path


class TestCapsetCommands:
    def test_gen_writes_loadable_set(self, cap_file):
        ps = load_point_set(cap_file)
        assert ps.n == 6
        assert ps.size > 0

    def test_gen_stdout_form_roundtrips(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "capset", "gen", "--n", "4", "--seed", "1")
        assert code == 0
        assert out.startswith("n=4\n")
        path = tmp_path / "echo.txt"
        path.write_text(out)
        assert load_point_set(path).n == 4
        out_path = tmp_path / "gen.txt"
        assert run_cli(capsys, "capset", "gen", "--n", "4", "--seed", "1",
                       "--out", str(out_path))[0] == 0
        assert out_path.read_bytes() == out.encode("ascii")

    def test_verify_pass(self, cap_file, capsys):
        code, out, _ = run_cli(capsys, "capset", "verify", cap_file)
        assert code == 0
        rep = json.loads(out)
        assert rep["is_capset"] is True
        assert rep["command"] == "capset verify"

    def test_verify_fails_on_line(self, tmp_path, capsys):
        path = tmp_path / "line.txt"
        path.write_text("n=3\n000\n111\n222\n")
        code, out, _ = run_cli(capsys, "capset", "verify", str(path))
        assert code == 2
        assert json.loads(out)["is_capset"] is False

    def test_max_small(self, capsys):
        code, out, _ = run_cli(capsys, "capset", "max", "--n", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["maximum"] == 4
        assert len(rep["witness"]) == 4

    @pytest.mark.parametrize("n, witness", [
        (1, "0 1"),
        (2, "00 01 10 11"),
        (3, "000 001 010 011 100 101 112 122 212"),
        (4, "0001 0010 0012 0021 0100 0101 0110 0111 0200 1000 1002 1020 1022 1102"
            " 1112 1120 1121 1200 2011 2122"),
    ])
    def test_max_report_is_pinned(self, capsys, n, witness):
        code, out, _ = run_cli(capsys, "capset", "max", "--n", str(n))
        points = ",\n".join(f'    "{w}"' for w in witness.split())
        assert code == 0
        assert out == (
            '{\n  "tool": "tricap",\n'
            f'  "version": "{VERSION}",\n'
            '  "command": "capset max",\n  "seed": null,\n'
            f'  "n": {n},\n  "maximum": {len(witness.split())},\n'
            f'  "witness": [\n{points}\n  ]\n}}\n'
        )

    def test_product(self, cap_file, tmp_path, capsys):
        out_path = str(tmp_path / "prod.txt")
        code, out, _ = run_cli(
            capsys, "capset", "product", cap_file, cap_file, "--out", out_path
        )
        assert code == 0
        assert json.loads(out)["is_capset"] is True
        assert load_point_set(out_path).n == 12
        code, out, _ = run_cli(capsys, "capset", "product", cap_file, cap_file)
        assert code == 0
        assert out.encode("ascii") == Path(out_path).read_bytes()

    def test_product_to_stdout_skips_the_cap_check(self, cap_file, tmp_path, capsys, monkeypatch):
        # only the --out report prints is_capset, so the stdout path never runs it
        def refuse(ps):
            raise AssertionError("is_capset run for a report that is not printed")

        monkeypatch.setattr(cli, "is_capset", refuse)
        code, out, _ = run_cli(capsys, "capset", "product", cap_file, cap_file)
        assert code == 0
        assert out.startswith("n=12\n")
        with pytest.raises(AssertionError):
            run_cli(capsys, "capset", "product", cap_file, cap_file, "--out", str(tmp_path / "o"))

    @pytest.mark.parametrize("left, right", [
        (greedy_random_capset(3, 1), greedy_random_capset(2, 5)),
        (greedy_random_capset(3, 1), PointSet.from_strings(["000", "111", "222", "012"])),
        (PointSet.from_strings(["000", "111", "222", "012"]), PointSet.empty(2)),
        (PointSet.from_strings(["21"]), PointSet.from_strings(["000", "111", "222", "012"])),
    ], ids=["cap x cap", "cap x non-cap", "non-cap x empty", "one-point factor"])
    def test_product_report_matches_the_walk(self, tmp_path, capsys, left, right):
        # the report takes is_capset from the factors; the walk reads the product itself
        save_point_set(left, tmp_path / "l.txt")
        save_point_set(right, tmp_path / "r.txt")
        out_path = tmp_path / "p.txt"
        code, out, _ = run_cli(capsys, "capset", "product", str(tmp_path / "l.txt"),
                               str(tmp_path / "r.txt"), "--out", str(out_path))
        prod = load_point_set(out_path)
        assert code == 0
        assert json.loads(out)["is_capset"] is is_capset(prod)
        assert prod.size == left.size * right.size
        if left.size == 1:  # a copy of the other factor behind the one point's digits
            assert [str(v)[left.n:] for v in prod.vectors()] == [str(v) for v in right.vectors()]

    def test_product_report_checks_only_the_factors(self, cap_file, tmp_path, capsys,
                                                    monkeypatch):
        seen = []

        def spy(ps):
            seen.append(ps)
            return is_capset(ps)

        monkeypatch.setattr(cli, "is_capset", spy)
        code, out, _ = run_cli(capsys, "capset", "product", cap_file, cap_file,
                               "--out", str(tmp_path / "o"))
        assert (code, json.loads(out)["is_capset"]) == (0, True)
        assert seen == [load_point_set(cap_file)] * 2


class TestReportsAndFormats:
    def test_json_reports_are_byte_stable(self, cap_file, capsys):
        _, out1, _ = run_cli(capsys, "spectrum", "extract", cap_file)
        _, out2, _ = run_cli(capsys, "spectrum", "extract", cap_file)
        assert out1 == out2

    def test_csv_format(self, cap_file, capsys):
        code, out, _ = run_cli(
            capsys, "structure", "levels", cap_file, "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "m_lo,m_hi,G_size,D_size,alpha_eff"

    @pytest.mark.parametrize("command, options", [
        ("extract", ()),
        ("increments", ("--codim", "1", "--samples", "3", "--threshold", "400")),
    ])
    def test_increment_csv_matches_json(self, tmp_path, capsys, command, options):
        # 60 points inside the hyperplane x_0 = 0 of F_3^10: that hyperplane
        # is a strong increment, so both commands report rows
        path = str(tmp_path / "hyperplane.txt")
        save_point_set(PointSet(10, random_point_set(9, 60, 1).indices), path)
        code, out, _ = run_cli(capsys, "spectrum", command, path, *options)
        assert code == 0
        increments = json.loads(out)["increments"]
        assert increments
        code, out, _ = run_cli(capsys, "spectrum", command, path, *options, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["codim", "density", "excess", "basis", "shift"]
        assert rows[1:] == [
            [str(r["codim"]), r["density"], r["excess"], ";".join(r["basis"]), r["shift"]]
            for r in increments
        ]

    def test_empty_set_has_no_increments(self, tmp_path, capsys):
        # the empty set's spectrum is every nonzero frequency, yet no coset
        # of any sample is an increment
        path = tmp_path / "empty.txt"
        path.write_text("n=6\n")
        for command, options in [
            ("extract", ()),
            ("increments", ("--codim", "1", "--samples", "2", "--seed", "5")),
        ]:
            code, out, _ = run_cli(capsys, "spectrum", command, str(path), *options)
            assert code == 0
            rep = json.loads(out)
            assert (rep["spectrum_size"], rep["increments"]) == (3**6 - 1, [])

    def test_empty_set_has_no_bands(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("n=6\n")
        code, out, _ = run_cli(capsys, "structure", "levels", str(path))
        assert code == 0
        rep = json.loads(out)
        assert (rep["n"], rep["set_size"], rep["band_count"], rep["bands"]) == (6, 0, 0, [])
        code, _, err = run_cli(capsys, "structure", "komity", str(path))
        assert code == 1 and "empty set has no bands" in err

    def test_one_dimensional_set_has_null_exponents(self, tmp_path, capsys):
        # log n = 0 at n = 1, so no band has an exponent: null in JSON, empty in CSV
        path = str(tmp_path / "one.txt")
        save_point_set(PointSet(1, [0, 1]), path)
        for command, key in [("levels", "alpha_eff"), ("comity", "beta_eff")]:
            code, out, err = run_cli(capsys, "structure", command, path)
            assert (code, err) == (0, "")
            bands = json.loads(out)["bands"]
            assert bands and all(band[key] is None for band in bands)
        code, out, _ = run_cli(capsys, "structure", "levels", path, "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ["1,2,2,2,", "2,4,2,1,"]

    def test_text_format(self, cap_file, capsys):
        code, out, _ = run_cli(
            capsys, "fourier", "plancherel", cap_file, "--format", "text"
        )
        assert code == 0
        assert "equal: True" in out

    def test_report_out_file(self, cap_file, tmp_path, capsys):
        rep_path = tmp_path / "rep.json"
        code, out, _ = run_cli(
            capsys, "fourier", "cubesum", cap_file, "--out", str(rep_path)
        )
        assert code == 0
        assert rep_path.read_text() == out


# sets whose reports carry basis, shift and fiber strings: 60 points in
# the hyperplane x_0 = 0 of F_3^10, three points of F_3^10 (3,280
# increments), a third of a codimension-2 coset and a greedy cap
PINNED_SETS = {
    "hyperplane": lambda: PointSet(10, random_point_set(9, 60, 1).indices),
    "three": lambda: random_point_set(10, 3, 11),
    "coset": lambda: on_affine_coset(8, 2, 3),
    "cap": lambda: greedy_random_capset(6, 3),
}

# sha256 of stdout
PINNED_REPORTS = [
    ("spectrum extract", "hyperplane", (), "json",
     "a078aed258345661be122e9737b0c81746f0be50e16e1dae00e77f5fa0d13b14"),
    ("spectrum extract", "hyperplane", (), "csv",
     "0549ce8fcdde9425f8e8e0cbcb7a9bf1bed26efd1f93072b47b5359442ed8c90"),
    ("spectrum extract", "three", (), "json",
     "c168b1c5db37adae21cbe871e96c34a9453d5be7ddcb0aa965c898568ffeb9d7"),
    ("spectrum extract", "three", (), "csv",
     "c81ce4d34113b0c2444be5c8655e53896eed3a9167c4cce281defa222bb3ddef"),
    ("spectrum extract", "three", (), "text",
     "dee2f668b99e805a3bd026246b92e92830f17cc4f1360f2b4fa8b98c5c93c68b"),
    ("spectrum increments", "coset",
     ("--codim", "2", "--threshold", "27", "--samples", "6", "--seed", "3"), "json",
     "0aff6002e5f868a0a37f73df3849711e6f55bf68e7b67122894dd7f502a2b746"),
    ("spectrum increments", "coset",
     ("--codim", "2", "--threshold", "27", "--samples", "6", "--seed", "3"), "csv",
     "c5c8c27375f989879b29a00af7ebe20aa6fb8f18b2554e83a0c35b92aa994130"),
    ("spectrum increments", "coset",
     ("--codim", "2", "--threshold", "27", "--samples", "6", "--seed", "3"), "text",
     "d0c2e5d64f769c1b269f434821e69edfbf4e361c94099222f809b440e1c47578"),
    ("structure fibers", "cap", ("--h", "120000,111111"), "json",
     "24da927855c39fa78292ce11869898ccef89b70af402bd1476ee44b2610596fa"),
    ("structure fibers", "cap", ("--h", "120000,111111"), "csv",
     "cfd76521f9c5c4a2e2672ddb47882ed2f7cc832046c34ffab768b8575f8fd28c"),
    ("structure martingale", "cap", ("--h", "120000", "--k", "100000,010000,001200"),
     "json", "417e9e2379e0b7b140f7f54d41babb3dd729f8d252ab89dee10073a8914b6a55"),
    # reports with float diagnostics, each computed by its handler
    ("energy smoothing", "cap", ("--scale-n", "3"), "json",
     "9fc31bfd2841d4ff376ae168f12aa44231f30e5e43422c92887f43476a401b1b"),
    ("energy smoothing", "cap", ("--scale-n", "3"), "text",
     "cb5d17aa88163eb3091f4e0e9f78a72408508a260d0a7382bba98e26255cef92"),
    ("energy smoothing", "cap", ("--scale-n", "7", "--epsilon", "0.3"), "json",
     "25ebb0f2fd9e9eb2498db119fc5f6e7af40863891f7117fb1357b655aa2d2c43"),
    ("energy smoothing", "cap", ("--scale-n", "7", "--epsilon", "0.3"), "text",
     "acfcef8bcef868b4c4acf4b79234ff5c68f5a19a96711d266a321faf7dc40f34"),
    ("spectrum subspace", "cap",
     ("--basis", "120000,011100", "--threshold", "1/2", "--epsilon", "0.3"), "json",
     "ebd883bf34e48312090399d74cd00c84d3112d8016d24a7a320d355e69b55026"),
    ("spectrum subspace", "cap",
     ("--basis", "120000,011100", "--threshold", "1/2", "--epsilon", "0.3"), "text",
     "d616bc3a50fc116595156abe40c7295934064db16ed82a65836c105b69985752"),
    ("structure levels", "cap", (), "text",
     "52b0e3730b5615077c0b3e97eb7360a23dff8627aa28f89091c6633071e7166d"),
    ("structure levels", "cap", (), "csv",
     "f7d780838594daf7f8e70dfc751782219c8f86743578ba0341b30367b6c22154"),
    ("structure comity", "cap", (), "json",
     "6e92493f08d8aaddf5687173742e7ee5a922818abcaf489ec6179a7764e026e3"),
]


@pytest.fixture(scope="module")
def pinned_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    paths = {}
    for name, build in PINNED_SETS.items():
        paths[name] = str(root / f"{name}.txt")
        save_point_set(build(), paths[name])
    return paths


class TestPinnedReports:
    @pytest.mark.parametrize("command, name, options, fmt, digest", PINNED_REPORTS, ids=[
        f"{command.replace(' ', '-')}-{name}-{fmt}" for command, name, _, fmt, _ in PINNED_REPORTS
    ])
    def test_stdout_digest(self, pinned_paths, capsys, command, name, options, fmt, digest):
        code, out, _ = run_cli(
            capsys, *command.split(), pinned_paths[name], *options, "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())

# (workload, golden.json key, argv): commands of the benchmark workloads at
# their default seeds, as perfbench/run.py issues them, in order in one directory
GOLDEN_COMMANDS = [
    ("structure-n12", "00:capset.gen",
     ("capset", "gen", "--n", "12", "--seed", "7", "--out", "A.txt")),
    ("structure-n12", "06:structure.levels", ("structure", "levels", "A.txt")),
    ("structure-n12", "07:structure.komity", ("structure", "komity", "A.txt")),
    ("selftest", "00:selftest", ("selftest", "--seed", "31020")),
]


def test_benchmark_reports_match_golden_digests(tmp_path, capsys, monkeypatch):
    assert (GOLDEN["structure-n12"]["seed"], GOLDEN["selftest"]["seed"]) == (7, 31020)
    monkeypatch.chdir(tmp_path)
    for workload, key, argv in GOLDEN_COMMANDS:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        digest = hashlib.sha256(out.encode("ascii")).hexdigest()
        assert digest == GOLDEN[workload]["digests"][key], key
    set_file = hashlib.sha256((tmp_path / "A.txt").read_bytes()).hexdigest()
    assert set_file == GOLDEN["structure-n12"]["digests"]["file:A.txt"]


LEAVES = [
    (("capset", "gen"), ("--n", "3", "--seed", "1"), False),
    (("capset", "verify"), ("A",), False),
    (("capset", "max"), ("--n", "2"), False),
    (("capset", "product"), ("A", "B"), False),
    (("fourier", "transform"), ("A",), False),
    (("fourier", "plancherel"), ("A",), False),
    (("fourier", "cubesum"), ("A",), False),
    (("spectrum", "extract"), ("A",), True),
    (("spectrum", "increments"), ("A", "--codim", "1"), True),
    (("spectrum", "subspace"), ("A", "--basis", "100"), False),
    (("energy", "e4"), ("A",), False),
    (("energy", "e2m"), ("A", "--m", "2"), False),
    (("energy", "holder"), ("A", "--m", "2"), False),
    (("energy", "smoothing"), ("A", "--scale-n", "2"), False),
    (("energy", "cross"), ("A", "B"), False),
    (("structure", "levels"), ("A",), True),
    (("structure", "komity"), ("A",), False),
    (("structure", "comity"), ("A",), True),
    (("structure", "doubling"), ("A",), False),
    (("structure", "fibers"), ("A", "--h", "100"), True),
    (("structure", "martingale"), ("A", "--h", "100", "--k", "100"), False),
    (("nullity-sim",), ("--input", "A", "--d", "2", "--trials", "1", "--seed", "1"), True),
    (("selftest",), (), False),
]


def _leaf_names(parser, prefix=()):
    """Command paths of every leaf parser, walked from the subparsers."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix]
    return [
        name
        for key, sub in subs[0].choices.items()
        for name in _leaf_names(sub, prefix + (key,))
    ]


class TestLeafFlags:
    def test_table_covers_every_leaf(self):
        assert sorted(_leaf_names(cli._build_parser())) == sorted(c for c, *_ in LEAVES)

    @pytest.mark.parametrize("command, args, csv_form", LEAVES,
                             ids=[" ".join(c) for c, *_ in LEAVES])
    def test_leaf_accepts_only_the_flags_it_honours(self, command, args, csv_form):
        parser = cli._build_parser()
        argv = [*command, *args]
        for extra, honoured in [
            ((), True),
            (("--format", "json"), True),
            (("--format", "text"), True),
            (("--force",), False),
            (("--format", "csv"), csv_form),
        ]:
            if honoured:
                parser.parse_args([*argv, *extra])
            else:
                with pytest.raises(cli._UsageError):
                    parser.parse_args([*argv, *extra])

    def test_rejected_flag_stops_before_any_work(self, cap_file, tmp_path, capsys):
        table = tmp_path / "T.tbl"
        code, out, _ = run_cli(
            capsys, "fourier", "transform", cap_file, "--out", str(table), "--format", "csv"
        )
        assert (code, out) == (1, "")
        assert not table.exists()
        assert run_cli(capsys, "capset", "verify", cap_file, "--force")[:2] == (1, "")


# LEAVES arguments that parse but do not run: holder checks start at m = 3,
# and the full selftest is test_acceptance.py's
RUN_ARGS = {
    ("energy", "holder"): ("A", "--m", "3"),
    ("selftest",): ("--criteria", "8"),
}


class TestFraming:
    """Every leaf's report opens with its own command path and --seed, and
    a report written to --out has the bytes of stdout."""

    @pytest.mark.parametrize("command, args", [(c, a) for c, a, *_ in LEAVES],
                             ids=[" ".join(c) for c, *_ in LEAVES])
    def test_envelope_and_out_file(self, tmp_path, capsys, monkeypatch, command, args):
        monkeypatch.chdir(tmp_path)
        save_point_set(greedy_random_capset(3, 1), "A")
        save_point_set(greedy_random_capset(3, 2), "B")
        parser = cli._build_parser()
        argv = [*command, *RUN_ARGS.get(command, args)]
        try:
            parser.parse_args([*argv, "--seed", "5"])
            argv, seed = [*argv, "--seed", "5"], 5
        except cli._UsageError:
            seed = None
        code, out, _ = run_cli(capsys, *argv, "--format", "json", "--out", "out")
        assert code == 0
        report = json.loads(out)
        assert (report["command"], report["seed"]) == (" ".join(command), seed)
        if parser.parse_args(argv).out_kind == "report":
            assert Path("out").read_text() == out


@pytest.fixture
def transforms(monkeypatch):
    """Names of the transforms run, spied on in every module that calls one."""
    calls = []
    for module, name in [(cli, "transform_point_set"), (energy, "transform_point_set"),
                         (spectrum, "restricted_transform")]:
        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


EPSILON_LEAVES = [
    ("spectrum subspace", ("--basis", "100000")),
    ("energy smoothing", ("--scale-n", "3")),
]


class TestEpsilon:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, args", EPSILON_LEAVES, ids=[c for c, _ in EPSILON_LEAVES])
    def test_non_finite_stops_at_parsing(self, cap_file, capsys, transforms, command, args, value):
        code, out, err = run_cli(capsys, *command.split(), cap_file, *args, f"--epsilon={value}")
        assert (code, out, transforms) == (1, "", [])
        assert err == f"tricap: argument --epsilon: not a finite number: '{value}'\n"

    @pytest.mark.parametrize("command, args, value", [
        # 6^(1 + 2e10) overflows a float, 2 * 1e308 and 30 * 1e308 are infinite
        (*EPSILON_LEAVES[0], "1e10"),
        (*EPSILON_LEAVES[0], "1e308"),
        (*EPSILON_LEAVES[1], "1e308"),
    ], ids=["spectrum subspace-1e10", "spectrum subspace-1e308", "energy smoothing-1e308"])
    def test_no_finite_reference_stops_before_its_transform(
        self, cap_file, capsys, transforms, command, args, value
    ):
        code, out, err = run_cli(capsys, *command.split(), cap_file, *args, "--epsilon", value)
        assert (code, out, transforms) == (1, "", [])
        assert err.startswith("tricap: epsilon ")

    def test_bad_basis_stops_before_the_transform(self, cap_file, capsys, transforms):
        code, out, err = run_cli(capsys, "spectrum", "subspace", cap_file, "--basis", "12")
        assert (code, out, transforms) == (1, "", [])
        assert err == "tricap: bad basis vector '12' for dimension 6\n"


THRESHOLD_ARGV = {
    "spectrum extract": lambda a: ["spectrum", "extract", a],
    "spectrum increments": lambda a: ["spectrum", "increments", a, "--codim", "1"],
    "spectrum subspace": lambda a: ["spectrum", "subspace", a, "--basis", "100000"],
    "nullity-sim": lambda a: ["nullity-sim", "--input", f"spectrum-of:{a}",
                              "--d", "2", "--trials", "5", "--seed", "1"],
}


class TestRefusedArguments:
    """Arguments a command cannot honour stop with their exit code before any transform."""

    @pytest.mark.parametrize("value", ["1e4300", "1e-4300", "1e5000", "-1"])
    @pytest.mark.parametrize("command", list(THRESHOLD_ARGV))
    def test_threshold_past_the_digit_limit(self, cap_file, capsys, transforms, command, value):
        # CPython prints no int of more than 4,300 digits, and 10^4300 has 4,301;
        # a negative threshold is refused by the same argparse type
        code, out, err = run_cli(capsys, *THRESHOLD_ARGV[command](cap_file), "--threshold", value)
        assert (code, out, transforms) == (1, "", [])
        if value == "-1":
            assert err == "tricap: threshold must be nonnegative\n"
        else:
            assert err == (f"tricap: '{value}' has a numerator or denominator "
                           "of more than 4300 digits\n")

    @pytest.mark.parametrize("command", list(THRESHOLD_ARGV))
    def test_threshold_at_the_digit_limit_runs(self, cap_file, capsys, command):
        value = "1/" + "9" * 4300
        code, out, _ = run_cli(capsys, *THRESHOLD_ARGV[command](cap_file), "--threshold", value)
        assert code == 0
        if command in ("spectrum extract", "spectrum increments"):
            assert json.loads(out)["threshold_c"] == value

    @pytest.mark.parametrize("command", ["e2m", "holder"])
    def test_energy_order_past_the_ceiling(self, cap_file, capsys, transforms, command):
        code, out, err = run_cli(capsys, "energy", command, cap_file, "--m", "1200")
        assert (code, out, transforms) == (3, "", [])
        assert err == "tricap: guard: energy order m 1200 exceeds the limit 256\n"

    @pytest.mark.parametrize("args, message", [
        (("--codim", "1", "--samples", "-3"), "samples -3 is below 1"),
        (("--codim", "1", "--samples", "0"), "samples 0 is below 1"),
        (("--codim", "0"), "codimension 0 outside 1..n/2"),
        (("--codim", "4"), "codimension 4 outside 1..n/2"),
    ])
    def test_increment_sampling_out_of_range(self, cap_file, capsys, transforms, args, message):
        code, out, err = run_cli(capsys, "spectrum", "increments", cap_file, *args)
        assert (code, out, transforms) == (1, "", [])
        assert err == f"tricap: {message}\n"

    @pytest.mark.parametrize("argv, flag, value, low", [
        (("capset", "gen", "--n", "3", "--seed", "-1"), "--seed", -1, 0),
        (("spectrum", "increments", "A", "--codim", "1", "--seed", "-1"), "--seed", -1, 0),
        (("nullity-sim", "--input", "spectrum-of:A", "--d", "2", "--trials", "5",
          "--seed", "-1"), "--seed", -1, 0),
        (("nullity-sim", "--input", "spectrum-of:A", "--d", "2", "--trials", "0",
          "--seed", "1"), "--trials", 0, 1),
        (("nullity-sim", "--input", "spectrum-of:A", "--d", "-1", "--trials", "5",
          "--seed", "1"), "--d", -1, 0),
        (("selftest", "--seed", "-1", "--criteria", "5"), "--seed", -1, 0),
    ], ids=["capset-gen-seed", "increments-seed", "nullity-seed", "nullity-trials",
            "nullity-d", "selftest-seed"])
    def test_integer_below_its_floor(self, cap_file, capsys, transforms, argv, flag, value, low):
        argv = [cap_file if a == "A" else a.replace(":A", f":{cap_file}") for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, transforms) == (1, "", [])
        assert err == f"tricap: argument {flag}: {value} is below {low}\n"

    def test_integer_options_keep_their_parse_message(self, capsys):
        code, out, err = run_cli(capsys, "capset", "gen", "--n", "3", "--seed", "x")
        assert (code, out) == (1, "")
        assert err == "tricap: argument --seed: invalid int value: 'x'\n"

    @pytest.mark.parametrize("flags, named", [
        (("--threshold", "7/2"), "--threshold"),
    ])
    def test_nullity_spectrum_flags_need_the_prefix(self, cap_file, capsys, flags, named):
        argv = ["nullity-sim", "--input", cap_file, "--d", "2", "--trials", "5", "--seed", "1"]
        assert run_cli(capsys, *argv, *flags) == (1, "", f"tricap: {named} applies only to "
                                                         "a spectrum-of: input\n")
        prefixed = THRESHOLD_ARGV["nullity-sim"](cap_file)
        assert run_cli(capsys, *prefixed) == run_cli(capsys, *prefixed, "--threshold", "1")


class TestEnergyCommands:
    def test_holder_reports_the_same_energies(self, cap_file, capsys):
        code, out, _ = run_cli(capsys, "energy", "holder", cap_file, "--m", "5")
        assert code == 0
        holder = json.loads(out)
        e4 = json.loads(run_cli(capsys, "energy", "e4", cap_file)[1])
        e8 = json.loads(run_cli(capsys, "energy", "e2m", cap_file, "--m", "4")[1])
        e10 = json.loads(run_cli(capsys, "energy", "e2m", cap_file, "--m", "5")[1])
        assert holder["E4"] == e4["E4"]
        assert holder["E8"] == e8["E2m"]["4"]
        assert holder["E2m"] == e10["E2m"]["5"]

    def test_holder_has_no_backend_flag(self, cap_file, capsys):
        code = run_cli(capsys, "energy", "holder", cap_file, "--m", "4", "--backend", "auto")[0]
        assert code == 1

    @pytest.mark.parametrize("command, args", [
        ("e2m", ("--m", "4")),
        ("smoothing", ("--scale-n", "3")),
    ])
    def test_e2m_and_smoothing_have_no_backend_flag(self, cap_file, capsys, command, args):
        assert run_cli(capsys, "energy", command, cap_file, *args)[0] == 0
        code = run_cli(capsys, "energy", command, cap_file, *args, "--backend", "auto")[0]
        assert code == 1


    def test_e4_and_holder_past_the_dense_ceiling(self, tmp_path, capsys):
        # n = 17 is past DENSE_MAX_N: E4 comes from the convolution, as in e2m
        path = str(tmp_path / "a.txt")
        save_point_set(random_point_set(17, 50, 2), path)
        reports = {}
        for name, argv in [("e4", ("e4",)), ("e2m", ("e2m", "--m", "2")),
                           ("holder", ("holder", "--m", "4"))]:
            code, out, err = run_cli(capsys, "energy", *argv, path)
            assert (code, err) == (0, "")
            reports[name] = json.loads(out)
        assert reports["e4"]["E4"] == reports["e2m"]["E2m"]["2"] == reports["holder"]["E4"]


class TestExitCodes:
    def test_usage_error_is_one(self, cap_file, capsys):
        assert run_cli(capsys, "no-such-command")[0] == 1
        assert run_cli(capsys, "capset", "verify", cap_file, "--threads", "2")[0] == 1
        assert run_cli(capsys, "capset", "gen", "--n", "x", "--seed", "0")[0] == 1
        assert run_cli(capsys)[0] == 1
        assert run_cli(
            capsys, "nullity-sim", "--input", cap_file, "--spectrum",
            "--d", "6", "--trials", "25", "--seed", "5",
        )[0] == 1

    def test_missing_file_is_one(self, capsys):
        code, _, err = run_cli(capsys, "capset", "verify", "does-not-exist.txt")
        assert code == 1
        assert "does-not-exist" in err

    @pytest.mark.parametrize("argv", [
        ("capset", "gen", "--n", "0", "--seed", "1"),
        ("capset", "gen", "--n", "-2", "--seed", "1"),
        ("capset", "max", "--n", "0"),
    ])
    def test_dimension_below_one_is_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"tricap: dimension {argv[3]} is below 1\n"

    def test_guard_is_three(self, capsys):
        code, _, err = run_cli(capsys, "capset", "gen", "--n", "30", "--seed", "0")
        assert code == 3
        assert "guard" in err

    def test_convolution_guard_is_three(self, tmp_path, capsys):
        path = str(tmp_path / "a.txt")
        save_point_set(random_point_set(17, 7100, 2), path)  # 7100^2 > 5e7 operations
        code, out, err = run_cli(capsys, "energy", "e2m", path, "--m", "2")
        assert (code, out) == (3, "")
        assert "convolution operations" in err

    def test_martingale_guard_is_three(self, tmp_path, capsys):
        path = str(tmp_path / "a.txt")
        save_point_set(random_point_set(17, 50, 2), path)
        units = ",".join("0" * i + "1" + "0" * (16 - i) for i in range(17))
        code, out, err = run_cli(
            capsys, "structure", "martingale", path, "--h", units[:17], "--k", units
        )
        assert (code, out) == (3, "")
        assert "guard" in err

    def test_plancherel_at_n15_runs_with_no_flag(self, tmp_path, capsys):
        # past n = 14 and up to the one ceiling, n = 16, a transform needs no lift
        path = str(tmp_path / "a.txt")
        save_point_set(random_point_set(15, 50, 2), path)
        code, out, err = run_cli(capsys, "fourier", "plancherel", path)
        assert (code, err) == (0, "")
        assert json.loads(out)["rhs"] == str(3**15 * 50)

    def test_martingale_needs_containment(self, cap_file, capsys):
        code, _, _ = run_cli(
            capsys, "structure", "martingale", cap_file,
            "--h", "100000", "--k", "010000",
        )
        assert code == 1


class TestPipelines:
    def test_spectrum_of_prefix(self, cap_file, capsys):
        code, out, _ = run_cli(
            capsys, "nullity-sim", "--input", f"spectrum-of:{cap_file}",
            "--d", "6", "--trials", "25", "--seed", "5",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["d"] == 6
        assert sum(rep["histogram"].values()) == 25

    def test_spectrum_extract_transforms_once(self, cap_file, capsys, transforms):
        # the spectrum and the hyperplane scan read the one table the handler built
        code, out, _ = run_cli(capsys, "spectrum", "extract", cap_file)
        assert (code, transforms) == (0, ["transform_point_set"])
        assert json.loads(out)["spectrum_size"] > 0

    def test_spectrum_subspace_transforms_only_w(self, cap_file, capsys, transforms):
        # |Spec on W| and the weight come off W's table; no table of the cube is built
        code, out, _ = run_cli(capsys, "spectrum", "subspace", cap_file,
                               "--basis", "120000,011100", "--threshold", "1/2")
        assert (code, transforms) == (0, ["restricted_transform"])
        assert json.loads(out)["dim"] == 2

    @pytest.mark.parametrize("threshold, members", [("1", 6), ("28697814", 0)])
    def test_spectrum_subspace_past_the_dense_ceiling(self, tmp_path, capsys, threshold, members):
        # n = 17 has no 3^n table, but W has dim 2. Six of W's nonzero points
        # have norm 3 and two norm 0; c = 2 * 3^15 asks for a norm of 4 exactly
        n, gens = 17, ["0" * 15 + "10", "0" * 15 + "01"]
        ps = PointSet(n, [0, 1, 5])
        path = tmp_path / "a.txt"
        save_point_set(ps, path)
        code, out, err = run_cli(capsys, "spectrum", "subspace", str(path),
                                 "--basis", ",".join(gens), "--threshold", threshold)
        assert (code, err) == (0, "")
        c = Fraction(threshold)
        points = [d for d in oracles.naive_span([oracles.digits(g) for g in gens], n) if any(d)]
        norms = [eval_at(ps, TritVector.from_string(oracles.to_string(d))).norm() for d in points]
        passed = [v * 3 ** (2 * n) * c.denominator**2 >= c.numerator**2 * 3**4 for v in norms]
        rep = json.loads(out)
        assert len(points) == 8
        assert (rep["member_count"], rep["weight"]) == (sum(passed), str(sum(norms)))
        assert sum(passed) == members

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="CPython 3.10 keeps a call's arguments alive until it returns")
    def test_spectrum_extract_frees_its_table_before_listing_members(self, tmp_path):
        # at threshold 0 every nonzero frequency is a member, 8 bytes each;
        # the int32 table, 8 bytes a cell, must be gone before they are
        # listed, leaving the byte-a-cell mask and the fixed butterfly scratch
        n = 12
        path = str(tmp_path / "a.txt")
        save_point_set(greedy_random_capset(n, 7), path)
        args = cli._build_parser().parse_args(["spectrum", "extract", path, "--threshold", "0"])
        tracemalloc.start()
        try:
            body, ok = args.fn(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ok, body["spectrum_size"]) == (True, 3**n - 1)
        assert peak <= 9 * 3**n + (3 << 20)

    def test_selftest_subset(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--criteria", "8")
        assert code == 0
        rep = json.loads(out)
        assert rep["all_pass"] is True
        assert [c["id"] for c in rep["criteria"]] == [8]
        assert "criterion 8: PASS" in err

    def test_selftest_with_no_criteria_is_refused(self, capsys):
        assert run_cli(capsys, "selftest", "--criteria", ",") == (
            1, "", "tricap: no criteria to run\n")

    def test_selftest_refuses_an_unknown_criterion_before_running(self, capsys):
        # criterion 1 is not run, so nothing is logged before the refusal
        assert run_cli(capsys, "selftest", "--criteria", "1,99") == (
            1, "", "tricap: unknown criteria [99]\n")

    def test_module_entry_point(self, cap_file):
        proc = subprocess.run(
            [sys.executable, "-m", "tricap", "capset", "verify", cap_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_capset"] is True


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_cli_lines():
    """The command lines of the README's CLI block, in order."""
    block = README.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("tricap ")]


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    # selftest is the acceptance suite's own run, in test_acceptance.py
    monkeypatch.chdir(tmp_path)
    lines = [argv for argv in _readme_cli_lines() if argv[0] != "selftest"]
    assert len(lines) >= 20
    for argv in lines:
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
