"""Digest of `run_suite`'s results over a fixed set of sweeps.

    python tools/suite_digest.py SRC_DIR

imports `deformed_u2` from SRC_DIR, runs `run_suite` on every sweep of the set
and prints `<sweeps> <irreps> <records> <sha256> <spectra> <hints> <sha256>
<sha256>`.
The first hash covers the sweeps and reports: for each irrep, its label, its
energy, every residual key with the `float.hex()` of its value, and its failure
counts, and for each sweep whether it passed and its commutator.  It also
covers the one-irrep path (`IrrepStack.of`): on every irrep
of the first group below, `build_irrep(label, ratio)` is checked by
`verify_algebra`, `oracle_compare` and, at 1:2, `w32_check`, and each of these
`<records>` reports adds its residuals as `float.hex()` and its exact checks.
Last, `exact_hints(angular_eigenvalues(label, ratio))` of `<spectra>` irreps
gives each eigenvalue's hint, `<hints>` of them not None, to the second hash:
every irrep of that first group, and every label of 1:1 at N = 150, 1:2 at
N = 90, 2:3 at N = 60 and 3:5 at N = 56 (`HINT_LEVELS`), whose spectra hold
many closed forms and many near misses.  So a change to the hints alone moves
the second hash alone.  The third hash holds `certify_eigenvalues` on each of
those spectra at 1e-9 and at TIGHT_TOL (`CERTIFY_TOLS`), the public route to
the certificate kernel that `run_suite` runs on whole sweeps; at TIGHT_TOL
thousands of values fail, so uncertified flags are covered too.  Two checkouts
print the same line when their results are bitwise identical:

    python tools/suite_digest.py old/src
    python tools/suite_digest.py new/src

The set is every coprime m:n with m, n <= 7 at N <= 8, and 3:5 at N <= 40,
1:1 and 1:2 at N <= 60, 4:7 and 2:7 at N <= 20, and the sweeps of
`perfbench`'s verify workloads (1:1 N <= 26, 1:2 and 2:1 N <= 18, 1:3 N <= 16,
3:5 N <= 8, 4:7 N <= 5, 5:7 N <= 4, 2:7 N <= 6; 3:5 N <= 8 is already in the
first group), 1:20 at N <= 8, and 40:41 at N <= 1 and 13:17 at N <= 2, whose
Phi entries are products of 81 and 30 factors, split into an x-mode table by p
and a y-mode table by (q, N - k), and 1:60, 60:1 and 1:100 at N <= 1, whose
commutators and ladder identities are one-variable products of degree 61 to
101, and whose Phi tables, at 1:n, give the split of Phi its signs.
`run_suite` pads each sweep's bands to N_max + 1, so the set covers many
padding widths.  4:7 at N <= 20, 3:5 at N <= 40 and 1:20 at N <= 8 fail
(float residuals past the tolerances; at 1:20 the eigenvalues span 13 decades
and 326 of them fail their certificate), and
1:100 at N <= 1 fails its certificate, so failing sweeps are covered too.  Last
come 3:5 at N <= 12, 2:7 at N <= 10 and 4:7 at N <= 8 at the tolerance 1e-13,
where the certificate's interval counts leave 100-250 points of each sweep to
the exact counter, and dozens of values fail their certificate.  Then 1:1, 1:2
and 2:3 at N <= 3 run under each of four mutants: irrep (2, 1, 1) carries
P_1 + 1, u + 1 or E + 1 in the sweep's `IrrepStack` (through
`suite._build_stack`: its Phi table, 4mn u + 4mn or 2mn E + 2mn in the
columns, so the oracle, the algebra checks, the 1:n split, the certificate and
the report's energy all read the changed value), or the commutator is built
from a factor table whose first offset is one off (through
`representation.commutator_polynomial`, whose build alone sees the changed
`structure._ladder_factors`, so Phi, and with it the oracle and the 1:n split,
reads the true table), so the exact checks that fail, and the routes that
decide them, are covered.  The mutant reads only `structure._ladder_factors`
and the cached builder's `__wrapped__`, which a package that keeps the
commutator expanded and one that keeps it as its factor table both have, so it
runs unchanged on either.
Nothing is written to disk.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import sys
from itertools import product
from math import gcd
from pathlib import Path
from unittest import mock

ONE_IRREP_SWEEPS = [(m, n, 8) for m in range(1, 8) for n in range(1, 8) if gcd(m, n) == 1]
SWEEPS = ONE_IRREP_SWEEPS + [
    (3, 5, 40), (1, 1, 60), (1, 2, 60), (4, 7, 20), (2, 7, 20),
    (1, 1, 26), (1, 2, 18), (2, 1, 18), (1, 3, 16), (4, 7, 5), (5, 7, 4), (2, 7, 6),
    (1, 20, 8), (40, 41, 1), (13, 17, 2), (1, 60, 1), (60, 1, 1), (1, 100, 1),
]
# run at TIGHT_TOL, where many certificate points fall back to exact counts
TIGHT_SWEEPS = [(3, 5, 12), (2, 7, 10), (4, 7, 8)]
TIGHT_TOL = 1e-13
# run under each mutant, which alters MUTANT_LABEL's record or the commutator
MUTANT_SWEEPS = [(1, 1, 3), (1, 2, 3), (2, 3, 3)]
MUTANT_LABEL = (2, 1, 1)
# every label of one N, hinted beside the irreps of ONE_IRREP_SWEEPS
HINT_LEVELS = [(1, 1, 150), (1, 2, 90), (2, 3, 60), (3, 5, 56)]
# the tolerances at which every hinted spectrum is certified
CERTIFY_TOLS = (1e-9, TIGHT_TOL)


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/suite_digest.py SRC_DIR")
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    import deformed_u2
    from deformed_u2 import FrequencyRatio, IrrepLabel, angular_eigenvalues, build_irrep
    from deformed_u2 import certify_eigenvalues, exact_hints, oracle_compare, representation
    from deformed_u2 import structure, suite, verify_algebra, w32_check
    from deformed_u2.suite import run_suite

    if src not in Path(deformed_u2.__file__).resolve().parents:
        sys.exit(f"deformed_u2 was imported from {deformed_u2.__file__}, not from {src}")

    build, commutator, table = (suite._build_stack, representation.commutator_polynomial,
                                structure._ladder_factors)

    def record_off(column, change):
        """MUTANT_LABEL's entry of the stack's `column` replaced by `change(entry, ratio)`; the
        irrep is found by the stack's N, p and q columns."""

        def mutated(*args):
            stack = build(*args)
            irreps = zip(stack.big_n.tolist(), stack.p.tolist(), stack.q.tolist())
            return dataclasses.replace(stack, **{column: tuple(
                change(value, stack.ratio) if each == MUTANT_LABEL else value
                for each, value in zip(irreps, getattr(stack, column)))})
        return suite, "_build_stack", mutated

    def offset_off(ratio):
        """The commutator built, past its cache, from the table with its first offset one
        more."""
        (sigma, offset), *rest = table(ratio)
        with mock.patch.object(structure, "_ladder_factors",
                               lambda ratio: ((sigma, offset + 1), *rest)):
            return commutator.__wrapped__(ratio)

    mutants = [
        record_off("numerators", lambda phi, ratio: (phi[0], phi[1] + 1, *phi[2:])),
        record_off("scaled_u", lambda u, ratio: u + 4 * ratio.m * ratio.n),
        record_off("energy_keys", lambda energy, ratio: energy + 2 * ratio.m * ratio.n),
        (representation, "commutator_polynomial", offset_off),
    ]

    digest = hashlib.sha256()
    irreps = 0
    runs = [(sweep, {}, None) for sweep in SWEEPS]
    runs += [(sweep, {"tolerance": TIGHT_TOL}, None) for sweep in TIGHT_SWEEPS]
    runs += [(sweep, {}, mutant) for mutant in mutants for sweep in MUTANT_SWEEPS]
    for (m, n, n_max), options, mutant in runs:
        with mock.patch.object(*mutant) if mutant else contextlib.nullcontext():
            report = run_suite(FrequencyRatio(m, n), n_max, **options)
        for irrep in report.irreps:
            residuals = [(key, value.hex()) for key, value in irrep.residuals.items()]
            for part in (irrep.label, str(irrep.energy), residuals, irrep.failures):
                digest.update(repr(part).encode("utf-8") + b"\0")
        irreps += len(report.irreps)
        digest.update(repr((m, n, n_max, report.identity_tolerance, report.passed,
                            str(report.commutator))).encode("utf-8"))
    records = 0
    for m, n, n_max in ONE_IRREP_SWEEPS:
        ratio = FrequencyRatio(m, n)
        checks = [verify_algebra, oracle_compare] + ([w32_check] if (m, n) == (1, 2) else [])
        for big_n, p, q in product(range(n_max + 1), range(1, m + 1), range(1, n + 1)):
            rep = build_irrep(IrrepLabel(big_n, p, q), ratio)
            for report in (check(rep) for check in checks):
                residuals = [(key, value.hex()) for key, value in report.residuals.items()]
                for part in (rep.label, report.name, residuals, report.exact_checks):
                    digest.update(repr(part).encode("utf-8") + b"\0")
            records += len(checks)
    spectra, hinted_values, hint_digest, flag_digest = 0, 0, hashlib.sha256(), hashlib.sha256()
    hinted = [(m, n, range(n_max + 1)) for m, n, n_max in ONE_IRREP_SWEEPS]
    for m, n, sizes in hinted + [(m, n, [big_n]) for m, n, big_n in HINT_LEVELS]:
        ratio = FrequencyRatio(m, n)
        for big_n, p, q in product(sizes, range(1, m + 1), range(1, n + 1)):
            label = IrrepLabel(big_n, p, q)
            spectrum = angular_eigenvalues(label, ratio)
            hints = exact_hints(spectrum)
            hint_digest.update(repr((m, n, label, hints)).encode("utf-8") + b"\0")
            flags = [certify_eigenvalues(spectrum, tolerance) for tolerance in CERTIFY_TOLS]
            flag_digest.update(repr((m, n, label, flags)).encode("utf-8") + b"\0")
            hinted_values += sum(hint is not None for hint in hints)
            spectra += 1
    print(len(runs), irreps, records, digest.hexdigest(), spectra, hinted_values,
          hint_digest.hexdigest(), flag_digest.hexdigest())


if __name__ == "__main__":
    main()
