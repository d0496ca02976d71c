"""Checks of the program's output rows against values computed apart from it.

Tolerances (relative unless stated):

- NMSE against the from-formula reference: 1e-6.
- Capacity against the from-formula reference: 1e-6, and ``p_used`` must
  be identical wherever the run holds it.
- FSCM against its closed form sigma_1 = sigma_2 = sqrt(MN) / (4 pi d0):
  1e-9 on capacity; ``p_used`` is 2.
- The full-size 4.25 wavelength point against ``tests/_goldens.json``:
  1e-6 on the PSCM NMSE, on the OCM capacity and on the top eight OCM gains;
  the reference spectrum itself must match the golden one to 1e-9.
- Eigenchannel patterns: orthonormal to 1e-8; |G v - sigma u| at most
  1e-6 sigma_1 with G the reference matrix.

A point fails when any check on it fails, when the program raised on it,
or when a later round's row differs from the first round's.
"""

from __future__ import annotations

import numpy as np

import reference
import workloads

RTOL_NMSE = 1e-6
RTOL_CAPACITY = 1e-6
RTOL_CLOSED_FORM = 1e-9
RTOL_GOLDEN = 1e-6
RTOL_REFERENCE_GOLDEN = 1e-9
RTOL_GEOMETRY = 1e-12
TOL_ORTHONORMAL = 1e-8
TOL_RESIDUAL = 1e-6


def _rel(a, b):
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


def expected_x(inputs, point):
    if inputs.get("cli", {}).get("command") == "sweep-elements":
        return float(point["tx_grid"][0] * point["tx_grid"][1])
    return float(point["d0_lambda"])


def check_point(inputs, index, row, *, goldens=None, p_used=None, gains=None, patterns=None):
    """Problems found with one point's row; an empty list means it passed."""
    point = inputs["points"][index]
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(f"point {index} (d0={point['d0_lambda']}): {message}")

    pt = workloads.reference_point(inputs, point)
    expect(_rel(row["x_value"], expected_x(inputs, point)) <= RTOL_GEOMETRY,
           f"x_value {row['x_value']!r}")
    expect(_rel(row["d0_lambda"], point["d0_lambda"]) <= RTOL_GEOMETRY,
           f"d0_lambda {row['d0_lambda']!r}")
    if "d_R_lambda" in row:
        expect(_rel(row["d_R_lambda"], pt.d_r_lambda) <= RTOL_GEOMETRY,
               f"d_R_lambda {row['d_R_lambda']!r} vs {pt.d_r_lambda!r}")
    variants = inputs["variants"]
    expect(sorted(row["nmse"]) == sorted(v for v in variants if v != "OCM"), "NMSE columns")
    decompose = inputs["decompose"]
    if decompose:
        expect(sorted(row["capacity"]) == sorted(variants), "capacity columns")
    if problems or index not in inputs["nmse_checked"]:
        return problems

    golden = goldens is not None and workloads.is_golden_point(inputs, point)
    spectra = decompose and index in inputs["capacity_checked"]
    threshold = inputs["threshold"]
    snr_db = inputs["snr_db"]
    p_used = p_used or {}

    ocm = reference.dyadic_matrix(pt)
    sigma = {}
    if spectra or golden:
        sigma["OCM"] = reference.singular_values(ocm)
    for v in variants:
        mat = ocm if v == "OCM" else reference.variant_matrix(pt, v)
        if v != "OCM":
            want = reference.nmse(mat, ocm)
            expect(_rel(row["nmse"][v], want) <= RTOL_NMSE,
                   f"nmse_{v} {row['nmse'][v]!r} vs reference {want!r}")
        if spectra and v not in sigma and v != "FSCM":
            sigma[v] = reference.singular_values(mat)
        if patterns is not None:
            problems += _check_patterns(index, v, mat, patterns, pt)
        del mat

    if decompose:
        want = reference.far_field_capacity(pt, snr_db)
        expect(_rel(row["capacity"]["FSCM"], want) <= RTOL_CLOSED_FORM,
               f"capacity_FSCM {row['capacity']['FSCM']!r} vs closed form {want!r}")
        if "FSCM" in p_used:
            expect(p_used["FSCM"] == 2, f"FSCM p_used {p_used['FSCM']} vs closed form 2")
    if spectra:
        for v, s in sigma.items():
            p = reference.channels_kept(s, threshold)
            want = reference.capacity(s, p, pt, snr_db)
            expect(_rel(row["capacity"][v], want) <= RTOL_CAPACITY,
                   f"capacity_{v} {row['capacity'][v]!r} vs reference {want!r}")
            if v in p_used:
                expect(p_used[v] == p, f"{v} p_used {p_used[v]} vs reference {p}")
    if golden:
        g = goldens["benchmark_point"]
        expect(_rel(row["nmse"]["PSCM"], g["nmse_pscm_vs_ocm"]) <= RTOL_GOLDEN,
               f"nmse_PSCM {row['nmse']['PSCM']!r} vs golden {g['nmse_pscm_vs_ocm']!r}")
        s_ref = sigma["OCM"]
        top = np.array(g["sigma_top8"])
        expect(np.max(np.abs(s_ref[:8] - top) / top) <= RTOL_REFERENCE_GOLDEN,
               "reference OCM spectrum disagrees with the golden sigma_top8")
        p = reference.channels_kept(s_ref, threshold)
        mixed = np.concatenate([top, s_ref[8:]])
        want = reference.capacity(mixed, p, pt, snr_db)
        expect(_rel(row["capacity"]["OCM"], want) <= RTOL_GOLDEN,
               f"capacity_OCM {row['capacity']['OCM']!r} vs golden-derived {want!r}")
        if gains is not None and "OCM" in gains:
            want_g = np.array(g["gains_top8"])
            got = np.array(gains["OCM"][:8])
            expect(got.shape == want_g.shape and np.max(np.abs(got - want_g) / want_g) <= RTOL_GOLDEN,
                   "OCM gains disagree with the golden gains_top8")
    return problems


def _check_patterns(index, variant, matrix, patterns, pt):
    """Orthonormal patterns and G v = sigma u, with G the reference matrix."""
    tx = patterns[f"{index}_{variant}_tx"] * np.sqrt(pt.area)
    rx = patterns[f"{index}_{variant}_rx"] * np.sqrt(pt.area)
    sigma = patterns[f"{index}_{variant}_gains"] / pt.area
    problems = []
    eye = np.eye(tx.shape[1])
    for name, basis in (("TX", tx), ("RX", rx)):
        err = float(np.max(np.abs(basis.conj().T @ basis - eye)))
        if err > TOL_ORTHONORMAL:
            problems.append(f"point {index}: {variant} {name} patterns not orthonormal ({err:.3g})")
    residual = np.linalg.norm(matrix @ tx - rx * sigma[None, :], axis=0)
    worst = float(np.max(residual)) / float(sigma[0])
    if worst > TOL_RESIDUAL:
        problems.append(f"point {index}: {variant} |G v - sigma u| / sigma_1 = {worst:.3g}")
    return problems


def check_run(inputs, rounds, *, goldens=None, decompositions=None, patterns=None):
    """Count points attempted and failed over all rounds of one child process.

    Returns ``(attempted, failed, wrong, problems)``: ``wrong`` counts the
    points whose outputs failed a check, a subset of ``failed`` (which also
    counts points the program raised on).
    """
    n = len(inputs["points"])
    attempted = n * len(rounds)
    failed = wrong = 0
    problems = []
    first = rounds[0] if rounds else None
    verdict = []
    for index in range(n):
        if not isinstance(first, list) or len(first) != n:
            verdict.append("error")
            continue
        row = first[index]
        if isinstance(row, str):
            problems.append(row)
            verdict.append("error")
            continue
        used, gains = _decomposed(inputs, index, row, decompositions)
        found = check_point(inputs, index, row, goldens=goldens, p_used=used, gains=gains,
                            patterns=patterns)
        problems += found
        verdict.append("wrong" if found else "ok")
    if not isinstance(first, list):
        problems.append(str(first))
    elif len(first) != n:
        problems.append(f"expected {n} rows, got {len(first)}")
    for r, rows in enumerate(rounds):
        for index in range(n):
            state = verdict[index]
            if r == 0:
                pass
            elif not isinstance(rows, list) or len(rows) != n or isinstance(rows[index], str):
                state = "error"
            elif state == "ok" and rows[index] != first[index]:
                problems.append(f"round {r} point {index}: differs from round 0")
                state = "wrong"
            if state != "ok":
                failed += 1
                wrong += state == "wrong"
    return attempted, failed, wrong, problems


def _decomposed(inputs, index, row, decompositions):
    """p_used and gains per variant for one point, from the row or the trace."""
    if "p_used" in row:
        return row["p_used"], None
    if decompositions is None:
        return None, None
    point = inputs["points"][index]
    lam = reference.C_LIGHT / inputs["frequency"]
    count = point["tx_grid"][0] * point["tx_grid"][1]
    used, gains = {}, {}
    for d in decompositions:
        if d["point"] is None:
            continue
        tx_count, d0 = d["point"]
        if tx_count == count and abs(d0 / lam - point["d0_lambda"]) <= 1e-9 * point["d0_lambda"]:
            used[d["variant"]] = d["p_used"]
            gains[d["variant"]] = d["gains"]
    return used, gains
