"""Batch command-line interface.

Four subcommands cover the toolkit: `spectrum` (level tables), `irrep`
(one representation in full), `angular` (the angular-momentum eigenbasis
of one irrep) and `verify` (the whole identity suite up to a given N).
Output formats are table (default), json and csv; exact rationals are
serialized as "num/den" strings and decimals are 12-significant-digit
renderings only.  Every command writes its report through `_report`.
Exit codes: 0 success, 1 verification failure, 2 usage/input error,
including an --output that cannot be written.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import sys
from collections.abc import Iterable
from itertools import chain, groupby, repeat
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from pathlib import Path

import click

from . import __version__
from .angular import angular_eigenvalues, exact_hints
from .core import FrequencyRatio, IrrepLabel, _level_keys, irrep_members
from .exceptions import NonCoprimeError
from .representation import build_irrep, verify_algebra
from .suite import IDENTITY_TOL, run_suite


def _parse_ratio(ctx, param, value):
    try:
        return FrequencyRatio.parse(value)
    except (ValueError, NonCoprimeError) as exc:
        raise click.UsageError(str(exc)) from exc


def _parse_tol(ctx, param, value):
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


def _reachable(compute, *args):
    """compute(*args), or exit 2 with the ArithmeticError naming what is out of reach."""
    try:
        return compute(*args)
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
        text = _amplitude_text(amp)
        sign, text = ("-", text[1:]) if text.startswith("-") else ("+", text)
        terms.append(f"{sign} {text}|{state.n_x},{state.n_y}>")
    if not terms:
        return "0"
    text = " ".join(terms)
    return text[2:] if text.startswith("+") else "-" + text[2:]


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


def _render_csv(headers: list[str], rows: Iterable[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _flat_encoder(depth: int):
    """CPython's C json encoder with the item separator of a container at depth."""
    return c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii, None,
                          ": ", ",\n" + "  " * (depth + 1), False, False, True)


_SCALARS = frozenset((str, int, float, bool, type(None)))
_DICT = frozenset((dict,))


def _all_records(items) -> bool:
    """Whether every item is a record: a non-empty dict whose values have exact scalar types.

    Records go to the C encoder in runs (`_records_text`); anything else, dict
    and scalar subclasses included, takes the item-by-item path.  Each check
    runs in C over all the items, with no Python call per item: their exact
    types, their truth (no dict is empty), then the exact types of all values.
    """
    return (_DICT.issuperset(map(type, items)) and all(items)
            and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, items)))))


# records per C-encoder call; one call over a long list would hold all its encoded
# chunks at once and raise the peak memory
_RUN = 128


def _records_text(records: list[dict], depth: int) -> str:
    """The records, each at depth, joined by their list's item separator: one encoder call.

    The records are encoded as one list whose item separator is their own, so
    the layout inside each record is already right.  An encoded string never
    holds a raw newline and a record's values are scalars, so `}` followed by
    that separator only ever ends a record; one replace re-indents those
    boundaries to the list's level.
    """
    outer, inner = "  " * depth, "  " * (depth + 1)
    text = "".join(_flat_encoder(depth)(records, depth))
    body = text[2:-2].replace(f"}},\n{inner}{{", f"\n{outer}}},\n{outer}{{\n{inner}")
    return f"{{\n{inner}{body}\n{outer}}}"


def _runs_text(records, depth: int) -> list[str]:
    """The texts of the records at depth, `_RUN` records per `_records_text` call."""
    return [_records_text(records[i:i + _RUN], depth) for i in range(0, len(records), _RUN)]


def _json_text(value, depth: int = 0) -> str:
    """json.dumps(value, indent=2), byte for byte, for documents with str keys.

    The C encoder serves only indent=None, so the indented layout is written
    here.  Every scalar, and every container whose values are all scalars, is
    encoded in one call to the C encoder.  A list of records only
    (`_all_records`) is encoded `_RUN` records per call (`_records_text`);
    in any other list each run of consecutive records, found item by item, is
    encoded the same way, and other nested containers are written item by item.
    """
    encode = _flat_encoder(depth)
    if not isinstance(value, _CONTAINERS) or not value:
        return "".join(encode(value, depth))
    is_dict = isinstance(value, dict)
    if any(map(isinstance, value.values() if is_dict else value, repeat(_CONTAINERS))):
        if is_dict:
            items = [f"{encode_basestring_ascii(key)}: {_json_text(child, depth + 1)}"
                     for key, child in value.items()]
        elif _all_records(value):
            items = _runs_text(value, depth + 1)
        else:
            items = []
            for flat, run in groupby(value, lambda item: _all_records((item,))):
                items += (_runs_text(list(run), depth + 1) if flat
                          else [_json_text(child, depth + 1) for child in run])
        opening, closing = ("{", "}") if is_dict else ("[", "]")
        body = (",\n" + "  " * (depth + 1)).join(items)
    else:
        text = "".join(encode(value, depth))
        opening, body, closing = text[0], text[1:-1], text[-1]
    return f"{opening}\n{'  ' * (depth + 1)}{body}\n{'  ' * depth}{closing}"


# version 1, the documents without this key, carried the oracle's float residuals
SCHEMA_VERSION = 2


def _report(ratio: FrequencyRatio, command: str, fmt: str, output: str | None,
            records, residuals, headers: list[str], rows: Iterable[list[str]],
            table: str | None = None, passed: bool = True) -> None:
    """Render the report as fmt, write it to stdout or output, and exit 1 unless passed."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "ratio": {"m": ratio.m, "n": ratio.n},
        "command": command,
        "records": records,
        "residuals": residuals,
        "tool_version": __version__,
    }
    if fmt == "json":
        text = _json_text(document)
    elif fmt == "csv":
        text = _render_csv(headers, rows)
    else:
        text = _render_table(headers, list(rows)) if table is None else table
    if output is None:
        click.echo(text)
    else:
        try:
            Path(output).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise click.UsageError(f"cannot write {output}: {exc.strerror or exc}") from exc
    if not passed:
        sys.exit(1)


_ratio_option = click.option(
    "--ratio",
    required=True,
    callback=_parse_ratio,
    help="Frequency ratio M:N with coprime positive integers, e.g. 1:2.",
)


def _label_options(command):
    """--N, --p and --q, the label (N, p, q) of one irrep."""
    for name, text in (("--q", "Sublabel q in 1..n."), ("--p", "Sublabel p in 1..m.")):
        command = click.option(name, type=int, default=1, show_default=True, help=text)(command)
    return click.option("--N", "big_n", type=click.IntRange(min=0), required=True,
                        help="Representation index N (dimension N+1).")(command)


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
    default=IDENTITY_TOL,
    callback=_parse_tol,
    help=f"Identity-residual tolerance (default {IDENTITY_TOL:g}); 10x it must be finite. "
    "verify gates its eigenvector and method-agreement checks, and the Sturm-count "
    "certificate of every eigenvalue, at 10x this value.",
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
    scale = 2 * ratio.m * ratio.n
    # E = key / scale in lowest terms, as str(Fraction(key, scale)) writes it; int
    # true division is correctly rounded, so the decimal is the float of that E
    records = [
        {
            "energy": f"{key // g}/{scale // g}" if g != scale else str(key // g),
            "decimal": _decimal(key / scale),
            "N": big_n,
            "p": p,
            "q": q,
            "degeneracy": big_n + 1,
        }
        for key, big_n, p, q in _level_keys(ratio, count)
        for g in (math.gcd(key, scale),)
    ]
    headers = ["energy", "decimal", "N", "p", "q", "degeneracy"]
    rows = (
        [r["energy"], _fmt(r["decimal"]), str(r["N"]), str(r["p"]), str(r["q"]), str(r["degeneracy"])]
        for r in records
    )
    _report(ratio, "spectrum", fmt, output, records, {}, headers, rows)


@main.command()
@_ratio_option
@_label_options
@_format_option
@_tol_option
@_output_option
def irrep(ratio, big_n, p, q, fmt, tol, output):
    """Report one irrep: energy, structure function, matrices, residuals."""
    label = _make_label(big_n, p, q, ratio)
    rep = _reachable(build_irrep, label, ratio)
    report = verify_algebra(rep, tol)
    members = irrep_members(label, ratio)

    residuals = {key: _decimal(value) for key, value in report.residuals.items()}
    residuals["exact_check_failures"] = float(report.failures)
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
        "matrices": {key: [[_decimal(v) for v in row] for row in getattr(rep, key)]
                     for key in ("s0", "s_plus", "s_minus", "h")},
        "passed": report.passed,
    }
    rows = [[str(k), str(s.n_x), str(s.n_y), _fmt(s0), _fmt(up)]
            for k, (s, s0, up) in enumerate(zip(members, rep.s0_band, [*rep.s_plus_band, 0.0]))]
    lines = [
        f"irrep (N={label.N}, p={label.p}, q={label.q}) of the {ratio} oscillator",
        f"energy: {rep.energy} ({_fmt(float(rep.energy))})",
        f"dimension: {label.dimension}",
        f"u: {rep.u}",
        "phi: " + ", ".join(str(v) for v in rep.phi),
        "members: " + "  ".join(f"k={k} {s}" for k, s in enumerate(members)),
        "s0 diagonal: " + ", ".join(_fmt(v) for v in rep.s0_band),
        "s+ subdiagonal: " + (", ".join(_fmt(v) for v in rep.s_plus_band) or "(none)"),
        f"h: {rep.energy} * identity",
        "",
        "residuals:",
    ]
    for key, value in residuals.items():
        lines.append(f"  {key:<28}{_fmt(value)}")
    lines.append(f"verification: {'PASS' if report.passed else 'FAIL'} "
                 f"(tolerance {tol:g})")
    _report(ratio, "irrep", fmt, output, [record], residuals,
            ["k", "n_x", "n_y", "s0_diagonal", "splus_next"], rows, "\n".join(lines),
            report.passed)


@main.command()
@_ratio_option
@_label_options
@_format_option
@_output_option
def angular(ratio, big_n, p, q, fmt, output):
    """Angular-momentum table of one irrep: eigenvalues and eigenvectors."""
    label = _make_label(big_n, p, q, ratio)
    spec = _reachable(angular_eigenvalues, label, ratio)
    coefficients = _reachable(lambda: spec.coefficients)  # c_k may overflow

    records = []
    for marker, value, hint, column, amplitudes in zip(
        spec.markers, spec.eigenvalues, exact_hints(spec),
        coefficients.T.tolist(), spec.amplitudes.T.tolist(),
    ):
        pairs = list(zip(spec.cartesian, amplitudes))
        records.append(
            {
                "marker": marker,
                "eigenvalue": _decimal(value),
                "exact_hint": hint,
                "coefficients": [_decimal(c) for c in column],
                "amplitudes": [
                    {
                        "n_x": state.n_x,
                        "n_y": state.n_y,
                        "re": _decimal(amp.real),
                        "im": _decimal(amp.imag),
                        "text": _amplitude_text(amp),
                    }
                    for state, amp in pairs
                ],
                "state": _state_text(pairs),
            }
        )
    residuals = {
        "eigenvector_residual": _decimal(spec.max_residual),
        "spectrum_symmetry": _decimal(spec.symmetry_residual),
    }
    headers = ["m", "eigenvalue", "exact", "state"]
    rows = (
        [
            f"{r['marker']:+d}" if r["marker"] else "0",
            _fmt(r["eigenvalue"]),
            r["exact_hint"] or "",
            r["state"],
        ]
        for r in records
    )
    _report(ratio, "angular", fmt, output, records, residuals, headers, rows)


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
    report = _reachable(run_suite, ratio, n_max, tol)
    residuals = {key: _decimal(value) for key, value in report.residuals.items()}
    records = [
        {
            "kind": "irrep",
            "N": label.N,
            "p": label.p,
            "q": label.q,
            "energy": str(energy),
            "max_residual": _decimal(worst),
            "exact_check_failures": failures,
        }
        for label, energy, worst, failures in zip(
            report.labels, report.energies, report.max_residuals.tolist(),
            report.failure_columns["exact_check_failures"].tolist())
    ]
    summary = {
        "kind": "summary",
        "n_max": n_max,
        "irreps_checked": len(records),
        "commutator": str(report.commutator),
        "identity_tolerance": report.identity_tolerance,
        "eigen_tolerance": report.eigen_tolerance,
        "passed": report.passed,
        "worst_irreps": {key: {"N": label.N, "p": label.p, "q": label.q}
                         for key, label in zip(residuals, map(report.worst_irrep, residuals))},
    }
    headers = ["check", "worst residual", "status"]
    rows = [
        [key, _fmt(residuals[key]), "pass" if report.passes(key, value) else "FAIL"]
        for key, value in report.residuals.items()
    ]
    table = "\n".join([
        f"verification of the {ratio} oscillator algebra, N <= {n_max}",
        f"tolerances: identities {report.identity_tolerance:g}, "
        f"eigenvectors {report.eigen_tolerance:g}",
        f"[S-, S+] = {summary['commutator']}",
        f"irreps checked: {len(records)}",
        "",
        _render_table(headers, rows),
        "",
        f"result: {'PASS' if report.passed else 'FAIL'}",
    ])
    _report(ratio, "verify", fmt, output, [summary] + records, residuals, headers, rows,
            table, report.passed)


if __name__ == "__main__":
    main()
