"""Batch command-line interface.

Four subcommands cover the toolkit: `spectrum` (level tables), `irrep`
(one representation in full), `angular` (the angular-momentum eigenbasis
of one irrep) and `verify` (the whole identity suite up to a given N).
Output formats are table (default), json and csv; exact rationals are
serialized as "num/den" strings and decimals are 12-significant-digit
renderings only.  Exit codes: 0 success, 1 verification failure, 2
usage/input error.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .angular import (
    AngularSpectrum,
    angular_eigenvalues,
    bisection_eigenvalues,
    build_l0,
    exact_hints,
)
from .core import (
    FrequencyRatio,
    IrrepLabel,
    enumerate_levels,
    irrep_members,
)
from .exceptions import NonCoprimeError
from .oracle import build_oracle, oracle_compare
from .representation import build_irrep, verify_algebra, w32_check, worst_residual
from .structure import StructureFunction, commutator_polynomial, parafermionic_decompose

IDENTITY_TOL = 1e-10
EIGEN_TOL = 1e-9


def _parse_ratio(ctx, param, value):
    try:
        return FrequencyRatio.parse(value)
    except (ValueError, NonCoprimeError) as exc:
        raise click.UsageError(str(exc)) from exc


def _parse_tol(ctx, param, value):
    if value is None:
        return value
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"{value} is not a finite number > 0")
    if not math.isfinite(10 * value):
        raise click.BadParameter(
            f"{value} is too large: the eigen tolerance 10 * {value} is not finite"
        )
    return value


def _make_label(big_n: int, p: int, q: int, ratio: FrequencyRatio) -> IrrepLabel:
    try:
        label = IrrepLabel(big_n, p, q)
        label.validate_for(ratio)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    return label


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _decimal(value: float) -> float:
    """Fixed 12-significant-digit rendering, for deterministic output."""
    return float(f"{value:.12g}")


def _angular_spectrum(label: IrrepLabel, ratio: FrequencyRatio) -> AngularSpectrum:
    """The eigenpairs of L0, or exit 2 naming the value that is out of reach."""
    try:
        return angular_eigenvalues(label, ratio)
    except ArithmeticError as exc:
        raise click.UsageError(str(exc)) from exc


def _amplitude_text(amp: complex) -> str:
    if amp.imag == 0.0:
        return _fmt(amp.real)
    if amp.real == 0.0:
        return _fmt(amp.imag) + "i"
    sign = "+" if amp.imag >= 0 else "-"
    return f"({_fmt(amp.real)}{sign}{_fmt(abs(amp.imag))}i)"


def _state_text(pairs) -> str:
    """Render sum of amplitude|n_x,n_y> terms with explicit phases."""
    terms = []
    for state, amp in pairs:
        if abs(amp) <= 1e-12:
            continue
        if amp.imag == 0.0:
            value, suffix = amp.real, ""
        elif amp.real == 0.0:
            value, suffix = amp.imag, "i"
        else:
            terms.append(("+", f"{_amplitude_text(amp)}|{state.n_x},{state.n_y}>"))
            continue
        sign = "-" if value < 0 else "+"
        terms.append((sign, f"{_fmt(abs(value))}{suffix}|{state.n_x},{state.n_y}>"))
    if not terms:
        return "0"
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, term in terms[1:]:
        text += f" {sign} {term}"
    return text


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def _render_csv(headers: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _document(ratio: FrequencyRatio, command: str, records, residuals) -> dict:
    return {
        "ratio": {"m": ratio.m, "n": ratio.n},
        "command": command,
        "records": records,
        "residuals": residuals,
        "tool_version": __version__,
    }


def _emit(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text)
    else:
        Path(output).write_text(text + "\n", encoding="utf-8")


_ratio_option = click.option(
    "--ratio",
    required=True,
    callback=_parse_ratio,
    help="Frequency ratio M:N with coprime positive integers, e.g. 1:2.",
)
_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "json", "csv"]),
    default="table",
    show_default=True,
    help="Output format.",
)
_output_option = click.option(
    "--output",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write the report to FILE instead of stdout.",
)
_tol_option = click.option(
    "--tol",
    type=float,
    default=None,
    callback=_parse_tol,
    help="Identity-residual tolerance (default 1e-10); eigenvector and "
    "method-agreement checks use 10x this value.",
)


@click.group()
@click.version_option(version=__version__, prog_name="deformed-u2")
def main():
    """Deformed u(2) toolkit for the 2D anisotropic quantum oscillator.

    Spectra, irreducible representations, angular-momentum eigenbases and
    algebra-identity verification for coprime frequency ratios m:n.
    """


@main.command()
@_ratio_option
@click.option("--count", type=click.IntRange(min=1), default=10, show_default=True,
              help="Number of energy levels to list.")
@_format_option
@_output_option
def spectrum(ratio, count, fmt, output):
    """List the lowest COUNT energy levels with labels and degeneracies."""
    levels = enumerate_levels(ratio, count)
    records = [
        {
            "energy": str(level.energy),
            "decimal": _decimal(float(level.energy)),
            "N": level.label.N,
            "p": level.label.p,
            "q": level.label.q,
            "degeneracy": level.degeneracy,
        }
        for level in levels
    ]
    if fmt == "json":
        _emit(json.dumps(_document(ratio, "spectrum", records, {}), indent=2), output)
        return
    headers = ["energy", "decimal", "N", "p", "q", "degeneracy"]
    rows = [
        [r["energy"], _fmt(r["decimal"]), str(r["N"]), str(r["p"]), str(r["q"]), str(r["degeneracy"])]
        for r in records
    ]
    renderer = _render_csv if fmt == "csv" else _render_table
    _emit(renderer(headers, rows), output)


@main.command()
@_ratio_option
@click.option("--N", "big_n", type=click.IntRange(min=0), required=True,
              help="Representation index N (dimension N+1).")
@click.option("--p", type=int, default=1, show_default=True, help="Sublabel p in 1..m.")
@click.option("--q", type=int, default=1, show_default=True, help="Sublabel q in 1..n.")
@_format_option
@_tol_option
@_output_option
def irrep(ratio, big_n, p, q, fmt, tol, output):
    """Report one irrep: energy, structure function, matrices, residuals."""
    label = _make_label(big_n, p, q, ratio)
    identity_tol = tol if tol is not None else IDENTITY_TOL
    rep = build_irrep(label, ratio)
    report = verify_algebra(rep, identity_tol)
    members = irrep_members(label, ratio)

    residuals = {key: _decimal(value) for key, value in report.residuals.items()}
    residuals["exact_check_failures"] = float(
        sum(not ok for ok in report.exact_checks.values())
    )
    record = {
        "N": label.N,
        "p": label.p,
        "q": label.q,
        "dimension": label.dimension,
        "energy": str(rep.energy),
        "energy_decimal": _decimal(float(rep.energy)),
        "u": str(rep.u),
        "phi": [str(v) for v in rep.phi],
        "members": [
            {"k": k, "n_x": s.n_x, "n_y": s.n_y} for k, s in enumerate(members)
        ],
        "matrices": {
            "s0": [[_decimal(v) for v in row] for row in rep.s0],
            "s_plus": [[_decimal(v) for v in row] for row in rep.s_plus],
            "s_minus": [[_decimal(v) for v in row] for row in rep.s_minus],
            "h": [[_decimal(v) for v in row] for row in rep.h],
        },
        "passed": report.passed,
    }
    if fmt == "json":
        _emit(json.dumps(_document(ratio, "irrep", [record], residuals), indent=2), output)
        if not report.passed:
            sys.exit(1)
        return

    if fmt == "csv":
        headers = ["k", "n_x", "n_y", "s0_diagonal", "splus_next"]
        rows = []
        for k, state in enumerate(members):
            up = rep.s_plus[k + 1, k] if k < label.N else 0.0
            rows.append([str(k), str(state.n_x), str(state.n_y),
                         _fmt(rep.s0[k, k]), _fmt(up)])
        _emit(_render_csv(headers, rows), output)
        if not report.passed:
            sys.exit(1)
        return

    lines = [
        f"irrep (N={label.N}, p={label.p}, q={label.q}) of the {ratio} oscillator",
        f"energy: {rep.energy} ({_fmt(float(rep.energy))})",
        f"dimension: {label.dimension}",
        f"u: {rep.u}",
        "phi: " + ", ".join(str(v) for v in rep.phi),
        "members: " + "  ".join(f"k={k} {s}" for k, s in enumerate(members)),
        "s0 diagonal: " + ", ".join(_fmt(rep.s0[k, k]) for k in range(label.dimension)),
        "s+ subdiagonal: "
        + (", ".join(_fmt(rep.s_plus[k + 1, k]) for k in range(label.N)) or "(none)"),
        f"h: {rep.energy} * identity",
        "",
        "residuals:",
    ]
    for key, value in residuals.items():
        lines.append(f"  {key:<28}{_fmt(value)}")
    lines.append(f"verification: {'PASS' if report.passed else 'FAIL'} "
                 f"(tolerance {identity_tol:g})")
    _emit("\n".join(lines), output)
    if not report.passed:
        sys.exit(1)


@main.command()
@_ratio_option
@click.option("--N", "big_n", type=click.IntRange(min=0), required=True,
              help="Representation index N (dimension N+1).")
@click.option("--p", type=int, default=1, show_default=True, help="Sublabel p in 1..m.")
@click.option("--q", type=int, default=1, show_default=True, help="Sublabel q in 1..n.")
@_format_option
@_output_option
def angular(ratio, big_n, p, q, fmt, output):
    """Angular-momentum table of one irrep: eigenvalues and eigenvectors."""
    label = _make_label(big_n, p, q, ratio)
    spec = _angular_spectrum(label, ratio)

    records = []
    for marker, value, hint, vector in zip(
        spec.markers, spec.eigenvalues, exact_hints(spec, ratio), spec.vectors
    ):
        records.append(
            {
                "marker": marker,
                "eigenvalue": _decimal(value),
                "exact_hint": hint,
                "coefficients": [_decimal(c) for c in vector.coefficients],
                "amplitudes": [
                    {
                        "n_x": state.n_x,
                        "n_y": state.n_y,
                        "re": _decimal(amp.real),
                        "im": _decimal(amp.imag),
                        "text": _amplitude_text(amp),
                    }
                    for state, amp in vector.cartesian
                ],
                "state": _state_text(vector.cartesian),
            }
        )
    eigenvalues = np.array(spec.eigenvalues)
    residuals = {
        "eigenvector_residual": _decimal(spec.max_residual),
        "spectrum_symmetry": _decimal(float(np.max(np.abs(eigenvalues + eigenvalues[::-1])))),
    }
    if fmt == "json":
        _emit(json.dumps(_document(ratio, "angular", records, residuals), indent=2), output)
        return
    headers = ["m", "eigenvalue", "exact", "state"]
    rows = [
        [
            f"{r['marker']:+d}" if r["marker"] else "0",
            _fmt(r["eigenvalue"]),
            r["exact_hint"] or "",
            r["state"],
        ]
        for r in records
    ]
    renderer = _render_csv if fmt == "csv" else _render_table
    _emit(renderer(headers, rows), output)


@main.command()
@_ratio_option
@click.option("--N-max", "n_max", type=click.IntRange(min=0), default=6,
              show_default=True, help="Largest representation index to sweep.")
@_format_option
@_tol_option
@_output_option
def verify(ratio, n_max, fmt, tol, output):
    """Run the full identity suite over every irrep with N <= N-max.

    Exit status 0 when every residual is within tolerance and every exact
    check holds, 1 otherwise (the report is still emitted).
    """
    identity_tol = tol if tol is not None else IDENTITY_TOL
    eigen_tol = 10 * tol if tol is not None else EIGEN_TOL
    # the bisection cells' width must not eat into the method-agreement gate
    bisection_tol = min(1e-12, eigen_tol / 10)

    poly = commutator_polynomial(ratio)
    oracle = build_oracle(ratio, n_max)
    worst: dict[str, float] = {}
    exact_failures = 0
    parafermionic_failures = 0
    records = []

    for big_n in range(n_max + 1):
        for p in range(1, ratio.m + 1):
            for q in range(1, ratio.n + 1):
                label = IrrepLabel(big_n, p, q)
                rep = build_irrep(label, ratio)
                rep_report = verify_algebra(rep, identity_tol)
                irrep_residuals = dict(rep_report.residuals)
                irrep_exact_failures = sum(
                    not ok for ok in rep_report.exact_checks.values()
                )
                exact_failures += irrep_exact_failures

                oracle_report = oracle_compare(oracle, label, identity_tol)
                for key, value in oracle_report.residuals.items():
                    irrep_residuals[f"oracle_{key}"] = value

                spec = _angular_spectrum(label, ratio)
                eigenvalues = np.array(spec.eigenvalues)
                roots = np.array(bisection_eigenvalues(label, ratio, bisection_tol))
                dense = np.sort(np.linalg.eigvalsh(build_l0(label, ratio)))
                irrep_residuals["method_agreement"] = worst_residual((
                    float(np.max(np.abs(eigenvalues - roots))),
                    float(np.max(np.abs(eigenvalues - dense))),
                    float(np.max(np.abs(roots - dense))),
                ))
                irrep_residuals["spectrum_symmetry"] = float(
                    np.max(np.abs(eigenvalues + eigenvalues[::-1]))
                )
                irrep_residuals["eigenvector_residual"] = spec.max_residual
                basis = np.array([v.amplitudes for v in spec.vectors]).T
                gram = basis.conj().T @ basis
                irrep_residuals["orthonormality"] = float(
                    np.max(np.abs(gram - np.eye(label.dimension)))
                )

                if ratio.m == 1:
                    form = parafermionic_decompose(StructureFunction(label, ratio))
                    if not form.positive:
                        parafermionic_failures += 1
                if (ratio.m, ratio.n) == (1, 2):
                    w32 = w32_check(rep, tolerance=identity_tol)
                    for key, value in w32.residuals.items():
                        irrep_residuals[f"w32_{key}"] = value

                for key, value in irrep_residuals.items():
                    worst[key] = worst_residual((worst.get(key, 0.0), value))
                records.append(
                    {
                        "kind": "irrep",
                        "N": big_n,
                        "p": p,
                        "q": q,
                        "energy": str(rep.energy),
                        "max_residual": _decimal(worst_residual(irrep_residuals.values())),
                        "exact_check_failures": irrep_exact_failures,
                    }
                )

    eigen_keys = {"method_agreement", "eigenvector_residual", "orthonormality"}
    residual_ok = all(
        value <= (eigen_tol if key in eigen_keys else identity_tol)
        for key, value in worst.items()
    )
    passed = residual_ok and exact_failures == 0 and parafermionic_failures == 0

    residuals = {key: _decimal(value) for key, value in sorted(worst.items())}
    residuals["exact_check_failures"] = float(exact_failures)
    if ratio.m == 1:
        residuals["parafermionic_failures"] = float(parafermionic_failures)

    summary = {
        "kind": "summary",
        "n_max": n_max,
        "irreps_checked": len(records),
        "commutator": str(poly),
        "identity_tolerance": identity_tol,
        "eigen_tolerance": eigen_tol,
        "passed": passed,
    }

    if fmt == "json":
        _emit(
            json.dumps(
                _document(ratio, "verify", [summary] + records, residuals), indent=2
            ),
            output,
        )
    else:
        headers = ["check", "worst residual", "status"]
        rows = []
        for key, value in residuals.items():
            if key.endswith("_failures"):
                ok = value == 0.0
            elif key in eigen_keys:
                ok = value <= eigen_tol
            else:
                ok = value <= identity_tol
            rows.append([key, _fmt(value), "pass" if ok else "FAIL"])
        body = _render_csv(headers, rows) if fmt == "csv" else _render_table(headers, rows)
        lines = []
        if fmt == "table":
            lines = [
                f"verification of the {ratio} oscillator algebra, N <= {n_max}",
                f"tolerances: identities {identity_tol:g}, eigenvectors {eigen_tol:g}",
                f"[S-, S+] = {poly}",
                f"irreps checked: {len(records)}",
                "",
            ]
        lines.append(body)
        if fmt == "table":
            lines.append("")
            lines.append(f"result: {'PASS' if passed else 'FAIL'}")
        _emit("\n".join(lines), output)

    if not passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
