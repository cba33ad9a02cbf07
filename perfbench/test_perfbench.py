"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q

Each workload's check accepts the program's real output and rejects the same
output with one value perturbed; a reduced run of every workload, untraced
and traced, ends with no failed op and prints every metric BENCHMARK.json
names.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402


def _rewrite_json(path: Path, edit):
    payload = json.loads(path.read_text())
    edit(payload["results"])
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _rewrite_csv_cell(path: Path, row: int, col: int, factor: float):
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def apriori(tmp_path_factory):
    wl = workloads.build("apriori-1d", 7, tmp_path_factory.mktemp("apriori"))
    return wl, wl.op()


@pytest.fixture(scope="module")
def field2d(tmp_path_factory):
    wl = workloads.build("field-2d", 7, tmp_path_factory.mktemp("field"))
    return wl, wl.op()


# -- references against known values -------------------------------------------


def test_exp_mode_closed_form_l2_matches_parseval():
    """The closed form for exp(ikx) and the Parseval evaluation agree at p = q = 2."""
    n, k = 256, 5
    coeff = checks.coefficients_from_samples(
        checks.samples_from_coefficients(_single_mode(n, k), 1), 1
    )
    for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0, 2.5):
        closed = checks.exp_mode_besov(k, alpha, 2.0, 2.0, n, math.pi)
        parseval = checks.fourier_besov_22(coeff, 1, math.pi, alpha)
        assert abs(closed / parseval - 1.0) < 1e-12


def _single_mode(n, k):
    import numpy as np

    coeff = np.zeros((n, 1), dtype=complex)
    coeff[k, 0] = 1.0
    return coeff


# -- apriori-1d ----------------------------------------------------------------


def test_apriori_check_accepts_real_output(apriori):
    wl, out = apriori
    assert wl.check(out) == []
    assert wl.check(wl.op()) == []  # the repeat is byte-identical


@pytest.mark.parametrize(
    "target",
    ["besov-norm", "apriori-csv", "apriori-max", "patch-csv", "partition", "bytes"],
)
def test_apriori_check_rejects_perturbed_output(apriori, target):
    wl, _ = apriori
    out = wl.op()
    if target == "besov-norm":
        _rewrite_json(out["besov-norm"] / "results.json",
                      lambda r: r["norms"].update({"0.5": r["norms"]["0.5"] * (1 + 1e-7)}))
    elif target == "apriori-csv":
        _rewrite_csv_cell(out["apriori-sweep"] / "apriori_ratios.csv", 0, 5, 1 + 1e-7)
    elif target == "apriori-max":
        _rewrite_json(out["apriori-sweep"] / "results.json",
                      lambda r: r.update(max_ratio=r["max_ratio"] * 1.01))
    elif target == "patch-csv":
        _rewrite_csv_cell(out["patch-equivalence"] / "patch_equivalence.csv", 2, 1, 1 + 1e-7)
    elif target == "partition":
        _rewrite_json(out["patch-equivalence"] / "results.json",
                      lambda r: r.update(partition_sum_error=1e-6))
    else:
        path = out["besov-norm"] / "results.json"
        path.write_bytes(path.read_bytes() + b" ")
    assert wl.check(out), target


# -- field-2d ------------------------------------------------------------------


def test_field_check_accepts_real_output(field2d):
    wl, out = field2d
    assert wl.check(out) == []


@pytest.mark.parametrize("target", ["w22", "unstable", "patch-csv", "overlap"])
def test_field_check_rejects_perturbed_output(field2d, target):
    wl, out = field2d
    gap = out["regularity-gap"] / "results.json"
    patch = out["patch-equivalence"]
    saved = {p: p.read_bytes() for p in (gap, patch / "results.json", patch / "patch_equivalence.csv")}
    try:
        if target == "w22":
            _rewrite_json(gap, lambda r: r["trajectories"]["w_k_2"].__setitem__(
                1, r["trajectories"]["w_k_2"][1] * (1 + 1e-7)))
        elif target == "unstable":
            _rewrite_json(gap, lambda r: r["trajectories"]["besov_k_1_inf"].__setitem__(
                1, r["trajectories"]["besov_k_1_inf"][1] * 1.2))
        elif target == "patch-csv":
            _rewrite_csv_cell(patch / "patch_equivalence.csv", 0, 1, 1 + 1e-7)
        else:
            _rewrite_json(patch / "results.json", lambda r: r.update(max_overlap=50))
        assert wl.check(out), target
    finally:
        for path, blob in saved.items():
            path.write_bytes(blob)


# -- solve-iterate -------------------------------------------------------------


def _perturb_solve(results, labels, target):
    import numpy as np

    index = {"neumann": 0, "contraction": 1, "frozen": labels.index("frozen"),
             "3-channel": labels.index("3-channel"), "mollify": len(labels) - 1}[target]
    rep = results[index]
    if target == "contraction":
        rep.contraction_estimate *= 1.5
    elif target == "mollify":
        rep.rows[-1]["error"] = rep.rows[0]["error"]
    else:
        rep.u.samples = rep.u.samples + 1e-6 * np.max(np.abs(rep.u.samples))


def test_solve_check_accepts_real_output():
    wl = workloads.build("solve-iterate", 7, Path("."))
    assert wl.check(wl.op()) == []


@pytest.mark.parametrize("target", ["neumann", "contraction", "frozen", "3-channel", "mollify"])
def test_solve_check_rejects_perturbed_output(target):
    wl = workloads.build("solve-iterate", 7, Path("."))
    results = wl.op()
    _perturb_solve(results, wl.inputs["cases"], target)
    assert wl.check(results), target


# -- reduced end-to-end runs ---------------------------------------------------


def _names(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_reduced_run_of_every_workload_has_no_failed_op(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(lines) == len(workloads.NAMES)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == _names(section)
        assert all(math.isfinite(m["value"]) for m in line["metrics"].values())


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "trace"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "apriori-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
