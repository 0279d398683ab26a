"""tricap benchmark: fixed sequences of real CLI commands, one fresh interpreter each.

    python3 perfbench/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, every metric

Load model: a closed loop with one client. The commands of a workload run
one after another, each in a fresh interpreter started through shim.py,
exactly like a user's shell invocations, so nothing cached inside one
process can carry over to the next command. Only one command process runs
at a time. The workload seed is turned into CLI arguments here; the
program sees nothing else.

With --trace 0 the run repeats full passes of the workload until
--seconds have elapsed and reports the end-to-end metrics as medians over
passes; set-up time also samples import-only processes before and after
the passes. With --trace 1 it makes one untraced pass (per-command and
per-criterion times, measured from outside) and one traced pass (spans
around tricap's public functions, see tracer.py) and reports the
per-layer metrics.

Every command's exit code and identity fields are checked; at a
workload's default seed every command's stdout and every file it writes
must also match the sha256 digests in golden.json, and a traced pass must
print exactly what the untraced pass printed. Any mismatch counts as a
failed command and makes this program exit 1. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

import numpy as np

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
GOLDEN = HERE / "golden.json"

SETUP_PROBES = 5  # before and again after the untraced passes
SELFTEST_SEED = 31020  # tricap.selftest.SELFTEST_SEED, the seed the acceptance tests pin
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CRITERION_LINE = re.compile(r"^criterion (\d+): (PASS|FAIL)\b")
# reference_task() median on the host the bounds were tuned on (2-core x86_64 VM, fast phase)
REF_NOMINAL_S = 0.05


Check = Callable[[dict, dict], list]


@dataclass
class Step:
    """One CLI command of a workload, with the checks its report must pass."""

    label: str
    argv: list[str]
    check: Check | None = None
    outputs: tuple[str, ...] = ()


# -- workloads -------------------------------------------------------------------


def _require(report: dict, *keys: str) -> list[str]:
    return [f"{key} is not true" for key in keys if report.get(key) is not True]


def dense_steps(seed: int, n: int = 14) -> list[Step]:
    """Desk-scale ceiling: 3^n tables, butterflies, a 4.6M-member spectrum."""
    s, trials = str(seed), 200

    def gen(r, _):
        return _require(r, "is_capset") + ([] if r.get("n") == n else ["wrong n"])

    def transform(r, _):
        return [] if r.get("norm_total") == r.get("plancherel") else ["norm_total != 3^n |A|"]

    def nullity(r, _):
        total = sum(r.get("histogram", {}).values())
        return [] if total == r.get("trials") == trials else ["histogram does not sum to trials"]

    return [
        Step("capset.gen", ["capset", "gen", "--n", str(n), "--seed", s, "--out", "A.txt"],
             gen, ("A.txt",)),
        Step("fourier.plancherel", ["fourier", "plancherel", "A.txt"],
             lambda r, _: _require(r, "equal")),
        Step("fourier.cubesum", ["fourier", "cubesum", "A.txt"],
             lambda r, _: _require(r, "matches", "is_capset")),
        Step("fourier.transform", ["fourier", "transform", "A.txt", "--out", "T.tbl"],
             transform, ("T.tbl",)),
        Step("nullity-sim", ["nullity-sim", "--input", "spectrum-of:A.txt", "--d", str(n),
                             "--trials", str(trials), "--seed", s], nullity),
    ]


def structure_steps(seed: int, n: int = 12) -> list[Step]:
    """Difference multiplicities on tables that fit in L3: pairwise loops,
    the object-dtype inverse of the norm table and dict-built maps."""

    def gen(r, _):
        return _require(r, "is_capset") + ([] if r.get("n") == n else ["wrong n"])

    def same_e4(r, seen):
        first = seen.get("energy.e4", {}).get("E4")
        return [] if r.get("E4") == first else ["E4 differs from energy e4"]

    def holder(r, seen):
        return _require(r, "part1_holds", "part2_holds") + same_e4(r, seen)

    def levels(r, _):
        pairs = sum(b["G_size"] for b in r.get("bands", []))
        return [] if pairs == r.get("set_size", -1) ** 2 else ["bands do not cover |A|^2 pairs"]

    return [
        Step("capset.gen", ["capset", "gen", "--n", str(n), "--seed", str(seed), "--out", "A.txt"],
             gen, ("A.txt",)),
        Step("capset.gen", ["capset", "gen", "--n", str(n), "--seed", str(seed + 1),
                            "--out", "B.txt"], gen, ("B.txt",)),
        Step("capset.verify", ["capset", "verify", "A.txt"], lambda r, _: _require(r, "is_capset")),
        Step("energy.e4", ["energy", "e4", "A.txt"]),
        Step("energy.e4-hash", ["energy", "e4", "A.txt", "--backend", "hash"], same_e4),
        Step("energy.holder", ["energy", "holder", "A.txt", "--m", "4"], holder),
        Step("structure.levels", ["structure", "levels", "A.txt"], levels),
        Step("structure.komity", ["structure", "komity", "A.txt"]),
        Step("structure.doubling", ["structure", "doubling", "A.txt"]),
        Step("energy.cross", ["energy", "cross", "A.txt", "B.txt"]),
        Step("spectrum.extract", ["spectrum", "extract", "A.txt"]),
    ]


def selftest_steps(seed: int, n: int | None = None) -> list[Step]:
    """All eleven criteria in one process: thousands of small-n calls.

    Always the package's default selftest seed, whatever the workload
    seed: criterion 8's Monte Carlo stage tests 87 bins at 3 sigma each
    and reports FAIL for many seeds (5, 6, 11, 13 and 15-18 of 1-20),
    so an arbitrary seed would measure a failing run, not the selftest.
    """

    def all_pass(r, _):
        count = len(r.get("criteria", []))
        return _require(r, "all_pass") + ([] if count == 11 else [f"{count} criteria, not 11"])

    return [Step("selftest", ["selftest", "--seed", str(SELFTEST_SEED)], all_pass)]


@dataclass(frozen=True)
class Workload:
    build: Callable[..., list[Step]]
    default_seed: int
    # spans the traced pass must reach; a zero count means a claim lost its span
    required: tuple[str, ...]


WORKLOADS: dict[str, Workload] = {
    "dense-n14": Workload(dense_steps, 7, (
        "capset.greedy_random_capset", "capset.PointSet", "capset.load_point_set",
        "capset.save_point_set", "capset.count_line_solutions",
        "fourier.transform_point_set", "fourier.plancherel_check", "fourier.cube_sum",
        "fourier.SpectrumTable.norms", "fourier.save_table", "spectrum.extract_spectrum",
        "randomsel.nullity_distribution", "randomsel.sample_without_replacement",
        "linalg.rank", "rng.make_rng", "jsonio.dumps_canonical",
    )),
    "structure-n12": Workload(structure_steps, 7, (
        "capset.greedy_random_capset", "capset.PointSet", "capset.load_point_set",
        "capset.is_capset", "capset.count_line_solutions", "fourier.transform_point_set",
        "fourier.inverse_table", "fourier.SpectrumTable.norms",
        "spectrum.extract_spectrum", "spectrum.scan_codim1_increments",
        "energy.diff_multiplicity", "energy.e2m", "energy.holder_check",
        "energy.cross_quadruples", "structure.build_levels", "structure.komity",
        "structure.doubling_ratio", "jsonio.dumps_canonical",
    )),
    "selftest": Workload(selftest_steps, SELFTEST_SEED, (
        "capset.PointSet", "capset.is_capset", "capset.count_line_solutions",
        "capset.exhaustive_max_capset", "capset.random_point_set",
        "fourier.plancherel_check", "fourier.cube_sum", "fourier.transform_point_set",
        "energy.e2m", "energy.holder_check", "structure.fiber_plancherel_check",
        "structure.komity", "structure.comity_scan", "linalg.rank", "linalg.Subspace.span",
        "randomsel.nullity_distribution", "randomsel.sample_without_replacement",
        "rng.make_rng", "jsonio.dumps_canonical",
    )),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in the order BENCHMARK.json lists them."""
    units: dict[str, str] = {}
    for name in tracer.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in tracer.COUNT_METRICS:
        units[name] = "bytes" if "bytes" in name else "count"
    for w in WORKLOADS.values():
        for step in w.build(w.default_seed):
            units[f"cli.{step.label}.s"] = "s"
    for k in range(1, 12):
        units[f"selftest.c{k}.s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


# -- processes -------------------------------------------------------------------


@dataclass
class Proc:
    """One finished command process, as measured from outside."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    stdout: bytes
    stderr: str
    criteria: dict[int, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(args: list[str], workdir: Path, trace: bool, env: dict[str, str],
                record_name: str = "record.json") -> Proc:
    """Run the shim once; a traced process leaves its spans in record_name."""
    record = workdir / record_name
    out_path = workdir / "stdout.bin"
    argv = [sys.executable, str(HERE / "shim.py"), str(record), "1" if trace else "0", *args]
    lines: list[tuple[float, str]] = []
    with open(out_path, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out,
                                stderr=subprocess.PIPE, text=True)
        for line in proc.stderr:
            lines.append((time.monotonic(), line))
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        rec = json.loads(record.read_text(encoding="ascii"))
        if not trace:
            record.unlink()
    except (OSError, ValueError):
        rec = {"imported": None, "ready": None, "spans": []}
    criteria: dict[int, float] = {}
    mark = rec["ready"] or rec["imported"] or start
    for t, line in lines:
        m = CRITERION_LINE.match(line)
        if m:
            criteria[int(m.group(1))] = t - mark
            mark = t
    return Proc(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        setup_s=None if rec["imported"] is None else rec["imported"] - start,
        stdout=out_path.read_bytes(),
        stderr="".join(line for _, line in lines),
        criteria=criteria,
        spans=rec["spans"],
    )


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- passes ----------------------------------------------------------------------


@dataclass
class Pass:
    procs: list[Proc]
    digests: dict[str, str]
    problems: dict[int, list[str]]  # step index -> what went wrong

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def peak_rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


def reference_task() -> float:
    """Seconds for a fixed piece of CPU work that does not touch tricap.

    A shared host's speed drifts by up to 2x over minutes, which moves
    every time the benchmark takes by the same factor. Sampled between
    processes, this task measures that factor, and run_workload reports
    every time at REF_NOMINAL_S / (median sample of the run) of its
    measured value.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    block = np.arange(1 << 21, dtype=np.int64)
    for _ in range(4):
        acc += int((block * 3 + 1).sum())
    return time.perf_counter() - start


def run_pass(steps: list[Step], workdir: Path, trace: bool, env: dict[str, str],
             refs: list[float]) -> Pass:
    for old in workdir.iterdir():
        old.unlink()
    procs: list[Proc] = []
    digests: dict[str, str] = {}
    problems: dict[int, list[str]] = {}
    reports: dict[str, dict] = {}
    for i, step in enumerate(steps):
        record = f"spans-{i:02d}-{step.label}.json" if trace else "record.json"
        refs.append(reference_task())
        proc = run_process(step.argv, workdir, trace, env, record)
        procs.append(proc)
        digests[f"{i:02d}:{step.label}"] = hashlib.sha256(proc.stdout).hexdigest()
        found: list[str] = []
        if proc.code != 0:
            found.append(f"exit code {proc.code}: {proc.stderr.strip()[-300:]}")
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            report = {}
            found.append("stdout is not one JSON report")
        if step.check is not None and not found:
            found += step.check(report, reports)
        for name in step.outputs:
            path = workdir / name
            if path.is_file():
                digests[f"file:{name}"] = sha256_file(path)
            else:
                found.append(f"{name} was not written")
        reports.setdefault(step.label, report)
        if found:
            problems[i] = found
    return Pass(procs, digests, problems)


def compare_digests(p: Pass, steps: list[Step], want: dict[str, str], what: str) -> None:
    """Record a problem on each step whose stdout or files differ from want."""
    for i, step in enumerate(steps):
        keys = [f"{i:02d}:{step.label}"] + [f"file:{name}" for name in step.outputs]
        for key in keys:
            if p.digests.get(key) != want.get(key):
                p.problems.setdefault(i, []).append(f"{key} differs from {what}")


# -- provenance ------------------------------------------------------------------


def provenance(workload: str, seed: int) -> dict:
    git_sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "tricap").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        l3 = (Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
              .read_text(encoding="ascii").strip())
    except OSError:
        l3 = None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": l3,
        "thread_env": dict(THREAD_ENV),
    }


# -- one run ---------------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    problems: list[str]
    digests: dict[str, str]
    ref_s: float  # median reference_task() time of the run


def sample_setup(workdir: Path, env: dict[str, str], refs: list[float]) -> list[float]:
    """Set-up seconds of SETUP_PROBES import-only processes."""
    setup = []
    for _ in range(SETUP_PROBES):
        refs.append(reference_task())
        probe = run_process([], workdir, False, env)
        if probe.code != 0 or probe.setup_s is None:
            raise RuntimeError(f"import tricap failed:\n{probe.stderr}")
        setup.append(probe.setup_s)
    return setup


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n: int | None = None, golden: bool = True) -> Result:
    """Measure one workload; n shrinks the set workloads for quick tests."""
    workload = WORKLOADS[name]
    steps = workload.build(seed) if n is None else workload.build(seed, n)
    env = child_env()
    workdir = WORK / (name if n is None else f"{name}-n{n}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        refs: list[float] = []
        setup = sample_setup(workdir, env, refs)
        untraced: list[Pass] = []
        deadline = time.monotonic() + seconds
        while True:
            untraced.append(run_pass(steps, workdir, False, env, refs))
            if trace or time.monotonic() >= deadline:
                break
        setup += sample_setup(workdir, env, refs)
        passes = list(untraced)
        traced = None
        if trace:
            traced = run_pass(steps, workdir, True, env, refs)
            compare_digests(traced, steps, untraced[0].digests, "the untraced pass")
            passes.append(traced)
        want = {}
        if golden and n is None:
            want = json.loads(GOLDEN.read_text(encoding="ascii"))[name]
        # golden digests apply whenever the commands are the recorded ones
        if want and [s.argv for s in workload.build(want["seed"])] == [s.argv for s in steps]:
            for p in passes:
                compare_digests(p, steps, want["digests"], "golden.json")
    finally:
        for table in workdir.glob("*.tbl"):
            table.unlink()

    problems = [f"{steps[i].label}: {msg}" for p in passes
                for i, msgs in sorted(p.problems.items()) for msg in msgs]
    attempted = sum(len(p.procs) for p in passes)
    failed = sum(len(p.problems) for p in passes)
    for p in untraced:
        setup += [proc.setup_s for proc in p.procs if proc.setup_s is not None]
    ref_s = statistics.median(refs)
    scale = REF_NOMINAL_S / ref_s
    e2e = {
        "setup_s": statistics.median(setup) * scale,
        "wall_s": statistics.median(p.wall_s for p in untraced) * scale,
        "cpu_s": statistics.median(p.cpu_s for p in untraced) * scale,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in untraced),
    }
    layers: dict[str, float] = {}
    if traced is not None:
        layers = dict.fromkeys(per_layer_units(), 0)
        layers.update(tracer.aggregate([proc.spans for proc in traced.procs]))
        for span in workload.required:
            if not layers[f"{span}.calls"]:
                problems.append(f"coverage: {span} recorded no calls")
        for step, proc in zip(steps, untraced[0].procs):  # a traced run has one untraced pass
            layers[f"cli.{step.label}.s"] += proc.wall_s
            for k, secs in proc.criteria.items():
                layers[f"selftest.c{k}.s"] = secs
        for key, unit in per_layer_units().items():
            if unit == "s":
                layers[key] *= scale
        layers["trace.overhead"] = traced.wall_s * scale / e2e["wall_s"]
    if problems and not failed:
        failed = 1
    return Result(not problems, attempted, failed, e2e, layers, problems,
                  untraced[0].digests, ref_s)


# -- entry -----------------------------------------------------------------------


def record_golden(name: str, seed: int, res: Result) -> None:
    data = json.loads(GOLDEN.read_text(encoding="ascii")) if GOLDEN.is_file() else {}
    data[name] = {"seed": seed, "digests": res.digests}
    GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="ascii")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the seed golden.json was recorded at)")
    ap.add_argument("--seconds", type=float, default=1.0,
                    help="keep repeating untraced passes for this long (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="store this run's digests in golden.json instead of checking them")
    args = ap.parse_args(argv)

    if not (SRC / "tricap" / "__init__.py").is_file():
        print(f"perfbench: no tricap source under {SRC}", file=sys.stderr)
        return 2

    everything = args.workload == "all"
    table_out = sys.stdout if everything else sys.stderr
    results = {}
    for name in WORKLOADS if everything else [args.workload]:
        seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
        res = run_workload(name, seed, args.seconds, everything or args.trace == 1,
                           golden=not args.record_golden)
        if args.record_golden and res.correct:
            record_golden(name, seed, res)
        units: dict[str, str] = {}
        if everything or args.trace == 0:
            units.update(END_TO_END)
        if everything or args.trace == 1:
            units.update(per_layer_units())
        values = {**res.end_to_end, **res.per_layer, "failed_ratio": res.failed / res.attempted}
        for problem in res.problems:
            print(f"perfbench: {name}: FAILED {problem}", file=sys.stderr)
        print(json.dumps({"provenance": {**provenance(name, seed), "ref_s": res.ref_s,
                                         "ref_nominal_s": REF_NOMINAL_S}}))
        for key, unit in {**units, "failed_ratio": "ratio"}.items():
            print(f"{name:14s} {key:48s} {values[key]:>16.6g} {unit}", file=table_out)
        results[name] = {
            "correct": res.correct,
            "attempted": res.attempted,
            "failed": res.failed,
            "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
        }
    print(json.dumps(results if everything else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
