"""Batch command-line interface.

Four subcommands cover the toolkit: `spectrum` (level tables), `irrep`
(one representation in full), `angular` (the angular-momentum eigenbasis
of one irrep) and `verify` (the whole identity suite up to a given N).
Output formats are table (default), json and csv; exact rationals are
serialized as "num/den" strings, energies straight from their int keys 2mn E
(`_energy_texts`), and decimals are 12-significant-digit renderings only: the
cell `format(v, ".12g")` in a table or csv, its float in JSON.  Every command
writes its report through `_report`, each flat list of records as a `_Table`
of columns, whose rows the JSON writer fills into one `%` template; a column
of decimals goes in as the JSON texts of its cells (`_Numbers`).  Exit codes:
0 success, 1 verification failure, 2 usage/input error, including an
--output that cannot be written.  The module's last statement, `gc.freeze()`, moves
every object its import made into the permanent generation, so neither a later
collection nor the collections at interpreter exit scan that heap (numpy, click and
this package, none of it garbage); objects a command builds are collected as before.
"""

from __future__ import annotations

import csv
import functools
import gc
import io
import math
import sys
from collections.abc import Iterable, Sequence
from itertools import repeat
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from operator import mod, truediv
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


def _cells(values: Iterable[float]) -> list[str]:
    """The 12-significant-digit text of each value, as `_fmt` writes it: one table or csv
    cell.  One `%` call writes them all, each followed by a comma, which no cell holds."""
    values = tuple(values)
    return (("%.12g," * len(values)) % values).split(",")[:-1]


def _decimals(values: Iterable[float]) -> list[float]:
    """The float of each value's cell (`_cells`), for the dicts and lists of a document."""
    return list(map(float, _cells(values)))


# json.dumps' texts of the non-finite floats, by their cells
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Numbers(list):
    """A `_Table` column of JSON number texts, which its records hold as they are."""

    __slots__ = ()


def _numbers(cells: Iterable[str]) -> _Numbers:
    """The JSON text json.dumps(float(t)) of each cell t (`_cells`): t when it holds "."
    and no "e", repr(float(t)) for an exponent form, t + ".0" for a signed digit string,
    and NaN, Infinity or -Infinity for a non-finite value."""
    return _Numbers([
        t if "." in t and "e" not in t
        else _NON_FINITE.get(t) or (repr(float(t)) if "e" in t else t + ".0")
        for t in cells])


def _energy_texts(keys: Sequence[int], scale: int) -> list[str]:
    """str(Fraction(key, scale)) of each int key: key / scale in lowest terms, or the
    numerator alone when that denominator is 1.  g = gcd(key, scale) is gcd(key mod
    scale, scale), so it is found once per residue class."""
    classes = {}
    for residue in set(map(mod, keys, repeat(scale))):
        g = math.gcd(residue, scale)
        classes[residue] = g, "" if g == scale else f"/{scale // g}"
    return [f"{key // g}{tail}" for key in keys for g, tail in [classes[key % scale]]]


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


class _Table:
    """Flat records held as columns: `columns` maps each key, in record order, to the
    values of that key in all the records.  `_json_text` writes it as the list of its
    records, and splices those records into a list that holds the table as an item."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, Sequence]):
        self.columns = columns


_CONTAINERS = (dict, list, tuple, _Table)


@functools.cache
def _flat_encoder(depth: int):
    """CPython's C json encoder with the item separator of a container at depth."""
    return c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii, None,
                          ": ", ",\n" + "  " * (depth + 1), False, False, True)


def _column(column: Sequence, depth: int) -> tuple[str, Iterable]:
    """The template field of a column of records at depth - 1 and the values it takes,
    encoded in C when all have one exact type: `%r` for ints and finite floats, one map
    of `encode_basestring_ascii` for strs.  Any other column (bool, None, NaN, +-inf,
    mixed types, subclasses) goes value by value through `_json_text`.  `_records`
    writes a `_Numbers` column itself."""
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is int or kind is float and all(map(math.isfinite, column)):
        return "%r", column
    if kind is str:
        return "%s", map(encode_basestring_ascii, column)
    return "%s", [_json_text(value, depth) for value in column]


# records per text of `_records`; a chunk's record texts are all held at once
_CHUNK = 256


def _records(table: _Table, depth: int) -> list[str]:
    """The texts of the table's records at depth, each `_CHUNK` records joined by their
    list's item separator.  Each chunk builds one `%` template of a record from the keys
    and its columns' fields, `%s` for a `_Numbers` column's texts and `_column`'s for any
    other, and fills it with each row of its columns."""
    outer, inner = "  " * depth, "  " * (depth + 1)
    keys = [encode_basestring_ascii(key).replace("%", "%%") + ": " for key in table.columns]
    columns = table.columns.values()
    numbers = [type(column) is _Numbers for column in columns]
    texts = []
    for start in range(0, min(map(len, columns), default=0), _CHUNK):
        chunks = [column[start:start + _CHUNK] for column in columns]
        fields, values = zip(*[("%s", chunk) if is_numbers else _column(chunk, depth + 1)
                               for is_numbers, chunk in zip(numbers, chunks)])
        members = (",\n" + inner).join(map(str.__add__, keys, fields))
        template = f"{{\n{inner}{members}\n{outer}}}"
        texts.append((",\n" + outer).join(map(template.__mod__, zip(*values))))
    return texts


def _json_text(value, depth: int = 0) -> str:
    """json.dumps(value, indent=2), byte for byte, for documents with str keys, where a
    `_Table` stands for the list of its records.

    The C encoder serves only indent=None, so the indented layout is written
    here.  Every scalar, and every container whose values are all scalars, is
    encoded in one call to the C encoder; a table's records are written by
    `_records`, and other nested containers item by item.
    """
    if isinstance(value, _Table):
        value = [value]
    encode = _flat_encoder(depth)
    if not isinstance(value, _CONTAINERS) or not value:
        return "".join(encode(value, depth))
    is_dict = isinstance(value, dict)
    if any(map(isinstance, value.values() if is_dict else value, repeat(_CONTAINERS))):
        if is_dict:
            items = [f"{encode_basestring_ascii(key)}: {_json_text(child, depth + 1)}"
                     for key, child in value.items()]
        else:
            items = []
            for child in value:
                if isinstance(child, _Table):
                    items += _records(child, depth + 1)
                else:
                    items.append(_json_text(child, depth + 1))
            if not items:
                return "[]"
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
    keys, big_ns, ps, qs = _level_keys(ratio, count)
    # int true division is correctly rounded, so each decimal rounds the float of its E
    cells = _cells(map(truediv, keys, repeat(scale)))
    columns = {
        "energy": _energy_texts(keys, scale),
        "decimal": _numbers(cells),
        "N": big_ns,
        "p": ps,
        "q": qs,
        "degeneracy": [big_n + 1 for big_n in big_ns],
    }
    rows = zip(columns["energy"], cells,
               *(map(str, columns[key]) for key in ("N", "p", "q", "degeneracy")))
    _report(ratio, "spectrum", fmt, output, _Table(columns), {}, list(columns), rows)


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

    residuals = dict(zip(report.residuals, _decimals(report.residuals.values())))
    residuals["exact_check_failures"] = float(report.failures)
    records = [{  # for JSON alone: the dense matrices' decimals are its own
        "N": label.N,
        "p": label.p,
        "q": label.q,
        "dimension": label.dimension,
        "energy": str(rep.energy),
        "energy_decimal": _decimals([float(rep.energy)])[0],
        "u": str(rep.u),
        "phi": [str(v) for v in rep.phi],
        "members": _Table({"k": range(len(members)), "n_x": [s.n_x for s in members],
                           "n_y": [s.n_y for s in members]}),
        "matrices": {key: list(map(_decimals, getattr(rep, key).tolist()))
                     for key in ("s0", "s_plus", "s_minus", "h")},
        "passed": report.passed,
    }] if fmt == "json" else None
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
    _report(ratio, "irrep", fmt, output, records, residuals,
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

    n_x, n_y = [s.n_x for s in spec.cartesian], [s.n_y for s in spec.cartesian]
    vectors = spec.amplitudes.T
    records = []
    for marker, value, hint, column, amplitudes, re, im in zip(
        spec.markers, _decimals(spec.eigenvalues), exact_hints(spec),
        map(_decimals, coefficients.T.tolist()), vectors.tolist(),
        map(_numbers, map(_cells, vectors.real.tolist())),
        map(_numbers, map(_cells, vectors.imag.tolist())),
    ):
        records.append(
            {
                "marker": marker,
                "eigenvalue": value,
                "exact_hint": hint,
                "coefficients": column,
                "amplitudes": _Table({"n_x": n_x, "n_y": n_y, "re": re, "im": im,
                                      "text": list(map(_amplitude_text, amplitudes))}),
                "state": _state_text(zip(spec.cartesian, amplitudes)),
            }
        )
    residuals = dict(zip(("eigenvector_residual", "spectrum_symmetry"),
                         _decimals((spec.max_residual, spec.symmetry_residual))))
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
    residuals = dict(zip(report.residuals, _decimals(report.residuals.values())))
    records = [{  # for JSON alone: the commutator's text, and the per-irrep records
        "kind": "summary",
        "n_max": n_max,
        "irreps_checked": len(report.big_n),
        "commutator": str(report.commutator),
        "identity_tolerance": report.identity_tolerance,
        "eigen_tolerance": report.eigen_tolerance,
        "passed": report.passed,
        "worst_irreps": {key: {"N": label.N, "p": label.p, "q": label.q}
                         for key, label in zip(residuals, map(report.worst_irrep, residuals))},
    }, _Table({
        "kind": ["irrep"] * len(report.big_n),
        "N": report.big_n.tolist(),
        "p": report.p.tolist(),
        "q": report.q.tolist(),
        "energy": _energy_texts(report.energy_keys, 2 * ratio.m * ratio.n),
        "max_residual": _numbers(_cells(report.max_residuals.tolist())),
        "exact_check_failures": report.failure_columns["exact_check_failures"].tolist(),
    })] if fmt == "json" else None
    headers = ["check", "worst residual", "status"]
    rows = [
        [key, _fmt(residuals[key]), "pass" if report.passes(key, value) else "FAIL"]
        for key, value in report.residuals.items()
    ]
    table = "\n".join([
        f"verification of the {ratio} oscillator algebra, N <= {n_max}",
        f"tolerances: identities {report.identity_tolerance:g}, "
        f"eigenvectors {report.eigen_tolerance:g}",
        f"[S-, S+] = {report.commutator}",
        f"irreps checked: {len(report.big_n)}",
        "",
        _render_table(headers, rows),
        "",
        f"result: {'PASS' if report.passed else 'FAIL'}",
    ]) if fmt == "table" else None
    _report(ratio, "verify", fmt, output, records, residuals, headers, rows, table,
            report.passed)


gc.freeze()

if __name__ == "__main__":
    main()
