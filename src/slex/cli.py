"""Command line entry points.

Three subcommands:

  verify    exact-arithmetic identity suites (the ray Wronskian as a
            product of alternating parts and in closed form, product
            decompositions, the Gaussian-integer product form of the
            sigma row, the signed odd binomial sum, the sigma split and
            weighted-sum recurrences) plus sampled floating-point
            property suites, with a replayable report.
  scan-eps  the five-point family scan: pipeline decay exponent vs the
            closed trigonometric form on a uniform grid over [0, pi/12],
            plus bisection for the crossing of the admissibility threshold.
  solve     one full problem: classification, the first integral, both
            profile routes, tail integrals, and the subsolution
            verification report, emitted as a single JSON document.  It
            passes when every row of GATES holds, and the FAIL line names
            the rows that failed.  All-negative data, the iso point at
            theta < 0 included, runs as its sign reflection (-theta, -a),
            the problem classify analyses, and the report marks it
            reflected.  Every flag is range-checked before the vector is
            read, so an invalid one exits 2 whatever the vector.
            classify's WeightProfile is the one problem object:
            first_integral holds it as pf.prof, and radial.invert solves
            its table once, after the numeric route, for the implicit
            route, the grid and the tail integral.

One path through main serves every subcommand.  COMMANDS, one table, maps
each to its runner, which turns the parsed flags into a report dict; its
csv writer (none for solve, which emits JSON only); its summary, which
gives the stderr lines; and its flags.  Every flag maps to (dest,
converter, default) and takes a value: `--flag value` or `--flag=value`,
the value the next token as given (so `--a -1,-2,-3` is a value), the last
of a repeated flag winning, no abbreviations.  Every command takes --out;
--format only the commands with a csv writer; --seed only verify, the one
command that draws vectors.  main runs the runner, prints each warning it
raised as "warning: <message>", writes the report, prints the summary and
returns the exit code: 0 success, 1 check failure (including inadmissible
input to solve), 2 invalid input (a command line the table rejects, an
--out path or a stdout that cannot be written, or a warning made an error
by python -W error, included).  A rejected command line prints a usage
line and the error to stderr; -h or --help writes the help built from the
table to stdout, as a report is written, and returns 0.  A subcommand
accepts only the flags it reads.  Identical configuration and seed produce
byte-identical output; all numbers are emitted in shortest round-trip
decimal form, and a JSON report is byte for byte json.dumps(report,
indent=2, sort_keys=True).  Its strings are printable ASCII with no quote
or backslash, which JSON writes unescaped; the writer raises TypeError on
any other.

Imported before numpy, the module sets OPENBLAS_NUM_THREADS to 1 unless
the caller set it, and runs no garbage collection while it imports.

`verify` draws the numerators and denominators of all its rational
vectors in one broadcast call, rng.integers((1, 1), (25, 9), size=(total,
2)).  numpy takes each element's bounded draw from the generator's stream
in element order, so the vectors, and every float draw after them, are
those of one scalar call per numerator and per denominator.

Identity suites always run in exact arithmetic, on Python ints.  Each
drawn vector a stays a list of int (numerator, denominator) pairs; its
integer vector is p = D*a, D the lcm of the reduced denominators, formed
from the pairs directly.  The homogeneous suites (sigma recurrences, pair
exclusion differences, product decompositions, the Gaussian product,
Newton margins) run the kernels on p, so every value of degree d comes out
as D**d times its value at a, which leaves every verdict as it is.  The
ray Wronskian is not homogeneous: the product of p's alternating parts and
its closed form are compared on p itself, a positive vector like a.  No
Fraction is built.
"""

import gc
import math
import operator
import os
import sys
import warnings
from itertools import accumulate, chain, islice
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

# No command's BLAS call is large enough to gain from a thread pool, so
# OpenBLAS starts none unless the caller set its own count.  What the
# imports make lives as long as the process: the cyclic collector stays
# off until the gc.freeze() at the end of this module
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_COLLECTING = gc.isenabled()
_IMPORTED = False
gc.disable()
try:
    import numpy as np
    # numpy loads its random package lazily, and only verify draws from
    # it.  The import stays eager, at import time, for every command: the
    # benchmark counts import and main apart, and a lazy import would move
    # its cost into verify's run time (ROADMAP items 4 and 13)
    import numpy.random  # noqa: F401

    from . import phasepoly, radial, subsol, symfun, weights
    _IMPORTED = True
finally:
    # a failed import leaves the collector as the importer had it
    if _COLLECTING and not _IMPORTED:
        gc.enable()

SCHEMA_VERSION = 5
RNG_NAME = "numpy.random.default_rng(PCG64)"
# the verdict of `solve`, written once: (name, the dotted report field it
# reads, sense, bound) per gate, and a report passes when every row holds
GATES = (("route", "route_gap_max", "<=", 1e-8),
         ("phase", "verification.min_phase_gap", ">=", -1e-9),
         ("level", "verification.min_level_value", ">=", -1e-9))
_SENSES = {"<=": operator.le, ">=": operator.ge}


def _fmt(x) -> str:
    return repr(float(x))


def _verdict(report: dict) -> str:
    return "PASS" if report["passed"] else "FAIL"


def _field(report: dict, path: str):
    for key in path.split("."):
        report = report[key]
    return report


def _json_text(value) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it.

    Byte for byte: dict keys in sorted order; keys and strings through
    _json_str, which writes the strings a report holds (printable ASCII
    with no quote or backslash) and raises TypeError on any other string
    and on a non-str key; ints and floats (float subclasses such as
    np.float64 included) through int.__repr__ and float.__repr__, with
    NaN/Infinity/-Infinity for the non-finite floats as the stdlib writes
    them.  Anything else raises TypeError.  A list or tuple of finite
    exact floats is one join, one of plain dicts with one str key set and
    finite exact float values (the scan rows) fills one row template
    (_json_flat); any other recurses.
    """
    parts = []
    _json_parts(value, "\n", parts.append)
    return "".join(parts)


def _json_parts(o, nl: str, put) -> None:
    # nl is the newline plus the indent of the current depth
    if isinstance(o, float):
        text = float.__repr__(o)
        put(_NONFINITE.get(text, text))
    elif isinstance(o, str):
        put(_json_str(o))
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            put(sep + _json_str(key) + ": ")
            _json_parts(o[key], inner, put)
            sep = "," + inner
        put(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = nl + "  "
        text = _json_flat(o, inner)
        if text is not None:
            put("[" + inner + text + nl + "]")
            return
        sep = "[" + inner
        for item in o:
            put(sep)
            _json_parts(item, inner, put)
            sep = "," + inner
        put(nl + "]")
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} "
                        f"is not JSON serializable")


def _json_flat(items, inner: str) -> Optional[str]:
    """The items of a list as _json_parts writes them at indent inner, when
    they are finite exact floats (a trajectory, joined) or plain dicts of
    one set of two or more str keys with finite exact float values (scan
    rows: keys sorted once, values taken in one itemgetter pass, one row
    template of %r fields repeated and filled by a single %); None
    otherwise."""
    kinds = set(map(type, items))
    values, row = items, None
    if kinds == {dict}:
        keys = items[0].keys()
        if (len(keys) < 2 or not all(map(keys.__eq__, map(dict.keys, items)))
                or not all(type(key) is str for key in keys)):
            return None
        names = sorted(keys)
        values = list(chain.from_iterable(
            map(operator.itemgetter(*names), items)))
        kinds = set(map(type, values))
        row = "{" + ",".join(f"{inner}  {_json_str(key).replace('%', '%%')}"
                             ": %r" for key in names) + inner + "}"
    # a non-finite value makes the sum non-finite; an overflow just recurses
    if kinds != {float} or not math.isfinite(sum(values)):
        return None
    if row is None:
        return ("," + inner).join(map(float.__repr__, values))
    # exact floats only, so %r is float.__repr__
    return ("," + inner).join([row] * len(items)) % tuple(values)


# float.__repr__ spells the non-finite floats as Python literals; JSON text
# takes the stdlib's spelling
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_str(s: str) -> str:
    """s as a JSON string, when it is one a report holds: printable ASCII
    with no quote and no backslash, which JSON writes as it is, quoted, as
    the stdlib's json.encoder.encode_basestring_ascii does.  Any other str
    raises TypeError, and so does a non-str, from str.isascii."""
    if str.isascii(s) and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    raise TypeError(f"a report string must be printable ASCII with no "
                    f"quote or backslash, not {s!r}")


def _emit(text: str, out: Optional[str]) -> None:
    """text to the --out file, or to stdout without one.

    A failed write, to either, is invalid input (ValueError).  stdout is
    flushed here so that its error, too, surfaces inside the command.
    """
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not out:
            # the unwritten text stays buffered, and the interpreter flushes
            # stdout again at exit: point the descriptor at devnull so that
            # flush succeeds (the recipe of the signal module's SIGPIPE note)
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        where = f"--out {out}" if out else "stdout"
        raise ValueError(f"cannot write {where}: "
                         f"{exc.strerror or exc}") from exc


# ---------------------------------------------------------------- verify

def _rational_vectors(rng, sizes: list) -> list:
    """One rational vector per size, as int [p, q] pairs with
    1 <= p <= 24 and 1 <= q <= 8, from one broadcast draw of every pair:
    the stream of one scalar call per p and per q (module docstring)."""
    pairs = iter(rng.integers((1, 1), (25, 9), size=(sum(sizes), 2)).tolist())
    return [list(islice(pairs, n)) for n in sizes]


def _scale(vec: list) -> tuple:
    """(p, D) of a vector of int (num, den) pairs: D is the lcm of the
    reduced denominators and p_i = num_i * D // den_i, exactly D * a_i."""
    d = math.lcm(*(q // math.gcd(p, q) for p, q in vec))
    return [p * d // q for p, q in vec], d


def _int_rows(vec: list) -> tuple:
    """(p, D, sig, table, rows, pairs) of a vector of int pairs on its
    integer scale.

    p = D*a and D come from _scale; sig is sigma(p), table is
    gen_sym_table(p), rows[i-1] is sigma(p | i) and pairs[i-1] is
    sigma(p | i, n), each entry of degree e equal to D**e times the value
    at a (T[k][j] has degree k + j).  The Wronskian and product suites
    both read the one table.  Each pair row divides exactly out of
    r = rows[i-1], as r(t) = s(t) (1 + p_n t): s_0 = 1,
    s_k = r_k - p_n s_{k-1}.  The trailing 0 on each exclusion row is the
    zero convention at both ends, as row[-1] and row[len] read it.
    """
    p, d = _scale(vec)
    sig = symfun.elem_sym_all(p)
    table = symfun.gen_sym_table(p)
    rows = [symfun.elem_sym_excl_all(p, i) + [0] for i in range(1, len(p) + 1)]
    pairs = [[*accumulate(r[1:-2], lambda s, x: x - p[-1] * s, initial=1), 0]
             for r in rows[:-1]]
    return p, d, sig, table, rows, pairs


def _fracs(vec) -> list:
    # each pair as its reduced "p/q"
    out = []
    for p, q in vec:
        g = math.gcd(p, q)
        out.append(f"{p // g}/{q // g}")
    return out


def _floats(vec) -> list:
    return [_fmt(v) for v in vec]


def _suite(name: str, cases, label: Optional[str] = "exact mismatch"
           ) -> dict:
    """The report entry of one suite, tallied from its cases.

    A case is (ok, counterexample), the counterexample None unless the case
    failed; the first failure's is reported.  worst reads "0" while every
    case passes and label once one fails.  With label None a case is
    (ok, counterexample, margin) and worst is the largest margin.
    """
    count = failures = 0
    counterexample = None
    worst = 0.0
    for case in cases:
        count += 1
        if label is None:
            worst = max(worst, case[2])
        if not case[0]:
            failures += 1
            if counterexample is None:
                counterexample = case[1]
    entry = {"name": name, "cases": count, "failures": failures,
             "worst": (_fmt(worst) if label is None
                       else "0" if failures == 0 else label)}
    if counterexample is not None:
        entry["counterexample"] = counterexample
    return entry


# Each suite below yields its cases for _suite; a counterexample is built
# only for a failing case.  The exact suites that read _int_rows compare
# Python ints.  Every identity but the Wronskian's is homogeneous, so
# scaling both sides by D**degree keeps each verdict; the Wronskian's
# holds for every vector, and is checked at p itself.

def _wronskian_cases(vectors: list, scaled: list, ones: dict):
    # product of the alternating parts vs the all-positive closed form,
    # exact, on each integer vector p = D*a; plus the known all-ones values
    # n * 2^(n-1)
    for vec, (_p, d, sig, table, _rows, _pairs) in zip(vectors, scaled):
        x, y, xw, yw = phasepoly.alternating_parts(sig)
        prod = x * yw - y * xw
        closed = phasepoly.ray_wronskian(table)
        ok = prod == closed and closed > 0
        yield ok, None if ok else {
            "a": _fracs(vec), "D": str(d),
            "product": str(prod), "closed_form": str(closed)}
    for n in range(3, 13):
        ok = phasepoly.ray_wronskian(ones[n]) == n * 2 ** (n - 1)
        yield ok, None if ok else {"a": ["1"] * n}


def _recurrence_cases(vectors: list, scaled: list):
    # sigma split and weighted-sum recurrences, exact
    for vec, (p, _d, sig, _table, rows, _pairs) in zip(vectors, scaled):
        n = len(vec)
        for k in range(0, n + 1):
            acc = 0
            for i in range(1, n + 1):
                row = rows[i - 1]
                term = p[i - 1] * row[k - 1]
                acc += term
                ok = sig[k] == row[k] + term
                yield ok, None if ok else {"a": _fracs(vec), "k": k, "i": i,
                                           "identity": "split"}
            ok = acc == k * sig[k]
            yield ok, None if ok else {"a": _fracs(vec), "k": k,
                                       "identity": "weighted_sum"}


def _pair_cases(vectors: list, scaled: list):
    # pairwise exclusion difference against the last entry j = n, exact
    for vec, (p, _d, _sig, _table, rows, pairs) in zip(vectors, scaled):
        j = len(vec)
        for k in range(1, j + 1):
            last = p[j - 1] * rows[j - 1][k - 1]
            for i in range(1, j):
                ok = (p[i - 1] * rows[i - 1][k - 1] - last
                      == (p[i - 1] - p[j - 1]) * pairs[i - 1][k - 1])
                yield ok, None if ok else {"a": _fracs(vec), "k": k, "i": i,
                                           "j": j}


def _product_cases(vectors: list, scaled: list):
    # product decompositions, exact, all (j, k) per vector, on the same
    # integer scale: T[K][J] has degree K + J, which is j + k for every
    # term of the (j, k) expansion
    for vec, (_p, _d, sig, table, _rows, _pairs) in zip(vectors, scaled):
        n = len(vec)
        for j in range(0, n + 1):
            for k in range(j, n + 1):
                combo = 0
                for coeff, (kk, jj) in symfun.product_decomposition(j, k, n):
                    combo += coeff * table[kk][jj]
                ok = combo == sig[j] * sig[k]
                yield ok, None if ok else {"a": _fracs(vec), "j": j, "k": k}


def _gaussian_cases(vectors: list, scaled: list):
    # the product form the grid's level value rests on, exact in Gaussian
    # integers as int pairs: prod_j (D + i p_j) = sum_k i^k D^(n-k)
    # sigma_k(p), both D^n prod_j (1 + i a_j); the sum by Horner's rule
    for vec, (p, d, sig, _table, _rows, _pairs) in zip(vectors, scaled):
        prod = (1, 0)
        for x in p:
            prod = (prod[0] * d - prod[1] * x, prod[0] * x + prod[1] * d)
        acc, unit = (0, 0), (1, 0)
        for v in sig:
            acc = (acc[0] * d + unit[0] * v, acc[1] * d + unit[1] * v)
            unit = (-unit[1], unit[0])
        ok = prod == acc
        yield ok, None if ok else {"a": _fracs(vec), "D": str(d)}


def _combinatorial_cases(ones: dict):
    # signed odd binomial sum and all-ones gen_sym_table counts, exact
    for q in range(0, 21):
        ok = symfun.signed_odd_binomial_sum(q) == (1 if q == 0 else 0)
        yield ok, None if ok else {"Q": q}
    for n in range(1, 11):
        table = ones[n]
        for k in range(n + 1):
            for j in range(k + 1):
                ok = table[k][j] == math.comb(n, k) * math.comb(k, j)
                yield ok, None if ok else {"n": n, "k": k, "j": j}


def _tangent_cases(rng, trials: int):
    # sampled float properties; the sign cases carry no margin
    for t in range(trials):
        lam = (rng.standard_normal(3 + t % 6) * 2.0).tolist()
        x, y, _xw, _yw = phasepoly.alternating_parts(symfun.elem_sym_all(lam))
        h = phasepoly.phase(lam)
        if abs(math.cos(h)) > 1e-6 and abs(x) > 1e-6:
            margin = abs(y / x - math.tan(h)) / max(1.0, abs(math.tan(h)))
            ok = not margin > 1e-10
            yield ok, None if ok else {"lam": _floats(lam)}, margin
        if abs(math.cos(h)) > 1e-6:
            ok = math.copysign(1, x) == math.copysign(1, math.cos(h))
            yield ok, None if ok else {"lam": _floats(lam), "part": "cos"}, 0.0
        if abs(math.sin(h)) > 1e-6:
            ok = math.copysign(1, y) == math.copysign(1, math.sin(h))
            yield ok, None if ok else {"lam": _floats(lam), "part": "sin"}, 0.0


def _implication_cases(rng, trials: int):
    # positive-cone implication: wronskian > 0 forces the weighted level
    # combination at theta = H(lam) to be positive
    for t in range(trials):
        lam = np.exp(rng.standard_normal(3 + t % 6)).tolist()
        wron = phasepoly.ray_wronskian(symfun.gen_sym_table(lam))
        h = phasepoly.phase(lam)
        _x, _y, xw, yw = phasepoly.alternating_parts(symfun.elem_sym_all(lam))
        ok = wron > 0 and math.cos(h) * yw - math.sin(h) * xw > 0
        yield ok, None if ok else {"lam": _floats(lam)}


def _rank_one_cases(rng, trials: int):
    # rank-one update vs dense eigenvalue oracle, float.  Every trial's
    # (p, q, s) is drawn first, in trial order; then one eigvalsh call per
    # dimension runs on the stack of that dimension's matrices
    draws = []
    for t in range(trials):
        n = 3 + t % 6
        p = np.exp(rng.standard_normal(n)).tolist()
        q = rng.standard_normal(n).tolist()
        draws.append((p, q, float(rng.standard_normal())))
    eigen = [None] * trials
    for n in range(3, 3 + min(trials, 6)):
        ts = range(n - 3, trials, 6)
        ps, qs, ss = (np.array(col) for col in zip(*(draws[t] for t in ts)))
        # diag(p) + s * outer(q, q), each entry formed as for one matrix
        mats = np.zeros((len(ts), n, n))
        mats[:, range(n), range(n)] = ps
        mats += ss[:, None, None] * (qs[:, :, None] * qs[:, None, :])
        for t, lam in zip(ts, np.linalg.eigvalsh(mats).tolist()):
            eigen[t] = lam
    for (p, q, s), lam in zip(draws, eigen):
        n = len(p)
        row = symfun.elem_sym_all(lam)
        # the rows sigma_rank_one reads, built once for every k
        sig = symfun.elem_sym_all(p)
        excl = [symfun.elem_sym_excl_all(p, i) for i in range(1, n + 1)]
        for k in range(1, n + 1):
            direct = symfun.sigma_rank_one(sig, excl, q, s, k)
            oracle = row[k]
            margin = abs(direct - oracle) / max(1.0, abs(oracle))
            ok = not margin > 1e-10
            yield ok, None if ok else {"p": _floats(p), "q": _floats(q),
                                       "s": _fmt(s), "k": k}, margin


def _newton_cases(vectors: list, scaled: list, rng, trials: int):
    # Newton inequality margins: on rationals every margin >= 0, exactly
    # (the integer row's margins carry D**(2k) and keep their signs); on
    # floats every margin >= -1e-9 * max(1, largest |margin|)
    for vec, (_p, _d, sig, _table, _rows, _pairs) in zip(vectors, scaled):
        ok = all(v >= 0 for v in symfun.newton_check(sig))
        yield ok, None if ok else {"a": _fracs(vec)}
    for t in range(trials):
        lam = rng.standard_normal(3 + t % 6) * 3.0
        sig = symfun.elem_sym_all(lam.tolist())
        margins = symfun.newton_check(sig)
        scale = max(1.0, *map(abs, margins))
        ok = not any(v < -1e-9 * scale for v in margins)
        yield ok, None if ok else {"lam": _floats(lam)}


def _run_verify(args: SimpleNamespace) -> dict:
    if args.seed < 0:
        raise ValueError("--seed must be a non-negative integer")
    trials = args.grid
    if trials < 1:
        raise ValueError("verify grid needs at least 1 vector")
    rng = np.random.default_rng(args.seed)
    vectors = _rational_vectors(rng, [3 + t % 6 for t in range(trials)])
    # one build of each vector's integer vector, rows and table serves
    # every exact suite on it, and one build of the all-ones tables the
    # combinatorial counts, the all-ones Wronskians and zstar_unit6; the
    # float suites then draw from rng in list order
    scaled = [_int_rows(vec) for vec in vectors]
    ones = {n: symfun.gen_sym_table([1] * n) for n in range(1, 13)}
    suites = [
        _suite("wronskian_modes", _wronskian_cases(vectors, scaled, ones)),
        _suite("sigma_recurrences", _recurrence_cases(vectors, scaled)),
        _suite("pair_exclusion_difference", _pair_cases(vectors, scaled)),
        _suite("product_decomposition", _product_cases(vectors, scaled)),
        _suite("gaussian_product", _gaussian_cases(vectors, scaled)),
        _suite("combinatorial_sums", _combinatorial_cases(ones)),
        _suite("tangent_and_sign", _tangent_cases(rng, trials), None),
        _suite("wronskian_implication", _implication_cases(rng, trials),
               "implication failed"),
        _suite("rank_one_vs_eigen", _rank_one_cases(rng, trials), None),
        _suite("newton_margins", _newton_cases(vectors, scaled, rng, trials),
               "margin negative"),
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "seed": args.seed,
        "rng": RNG_NAME,
        "trials": trials,
        "arithmetic": "exact rational identities + float property samples",
        "zstar_unit6": phasepoly.ray_wronskian(ones[6]),
        "suites": suites,
        "passed": all(s["failures"] == 0 for s in suites),
    }


def _verify_csv(report: dict) -> str:
    lines = ["name,cases,failures,worst"]
    for s in report["suites"]:
        lines.append(f"{s['name']},{s['cases']},{s['failures']},{s['worst']}")
    lines.append(f"passed,,,{str(report['passed']).lower()}")
    return "\n".join(lines) + "\n"


def _verify_summary(report: dict) -> list:
    return [f"{s['name']}: cases={s['cases']} failures={s['failures']} "
            f"worst={s['worst']}" for s in report["suites"]] + [
        _verdict(report)]


# --------------------------------------------------------------- scan-eps

_SQRT3 = math.sqrt(3.0)


def _closed_form_exponent(eps: float) -> float:
    s3, cos4 = _SQRT3, math.cos(4 * eps)
    num = 4 * s3 * cos4 + 4 * s3 * math.cos(2 * eps) + 2 * s3
    den = (2 * s3 * cos4 + 2 * math.sin(6 * eps)
           + 2 * math.sin(2 * eps) + 3 * math.sin(4 * eps))
    return num / den


def _run_scan(args: SimpleNamespace) -> dict:
    grid_n = args.grid
    if grid_n < 2:
        raise ValueError("scan grid needs at least 2 points")
    eps_grid = np.linspace(0.0, math.pi / 12, grid_n).tolist()
    spec = weights.EPS_SPEC
    exponent, family = weights.decay_exponent, weights.epsilon_family
    # one exponent per row, in row order, before the bisection's
    pipe = [exponent(spec, family(eps)) for eps in eps_grid]
    closed = [_closed_form_exponent(eps) for eps in eps_grid]
    disc = max(map(abs, map(operator.sub, pipe, closed)))
    monotone = all(map(operator.gt, pipe, pipe[1:]))

    lo, hi = 0.0, math.pi / 12
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if exponent(spec, family(mid)) > 2.0:
            lo = mid
        else:
            hi = mid

    return {
        "schema_version": SCHEMA_VERSION,
        "command": "scan-eps",
        "grid": grid_n,
        "rows": [{"eps": e, "m_pipeline": mp, "m_closed_form": mc}
                 for e, mp, mc in zip(eps_grid, pipe, closed)],
        "summary": {
            "m_at_zero": pipe[0],
            "m_at_endpoint": pipe[-1],
            "max_discrepancy": disc,
            "monotone_decreasing": monotone,
            "crossing_low": lo,
            "crossing_high": hi,
        },
        "passed": disc <= 1e-9 and monotone and 0.206 <= lo and hi <= 0.208,
    }


def _scan_csv(report: dict) -> str:
    # the rows hold Python floats (_run_scan), so %r is float.__repr__
    rows = report["rows"]
    values = chain.from_iterable(map(
        operator.itemgetter("eps", "m_pipeline", "m_closed_form"), rows))
    return ("eps,m_pipeline,m_closed_form\n"
            + "%r,%r,%r\n" * len(rows) % tuple(values))


def _scan_summary(report: dict) -> list:
    s = report["summary"]
    return [f"m(0)={_fmt(s['m_at_zero'])} "
            f"m(pi/12)={_fmt(s['m_at_endpoint'])} "
            f"max_discrepancy={_fmt(s['max_discrepancy'])} "
            f"monotone={s['monotone_decreasing']} "
            f"crossing=[{_fmt(s['crossing_low'])}, "
            f"{_fmt(s['crossing_high'])}]", _verdict(report)]


# ------------------------------------------------------------------ solve

def _resolve_vector(args: SimpleNamespace) -> tuple:
    """(vector, PhaseSpec) of the problem the flags give: the spec built
    for the iso family or for --a, or weights.EPS_SPEC."""
    family, a_text, theta, n = args.family, args.a, args.theta, args.n
    if (family is None) == (a_text is None):
        raise ValueError("provide exactly one of --a or --family")
    if family is not None:
        if family == "iso":
            if n is None or theta is None:
                raise ValueError("--family iso needs --n and --theta")
            spec = phasepoly.PhaseSpec(n, _parse_theta(theta, n))
            return weights.iso_point(spec), spec
        if family.startswith("eps:"):
            eps = float(family[4:])
            spec = weights.EPS_SPEC
            if n is not None and n != spec.n:
                raise ValueError("the eps family is five dimensional")
            if theta is not None:
                given = _parse_theta(theta, spec.n)
                # written so that a NaN theta is rejected too
                if not abs(given - spec.theta) <= 1e-12:
                    raise ValueError("the eps family lives at theta = 5*pi/3")
            return weights.epsilon_family(eps), spec
        raise ValueError("family must be 'iso' or 'eps:<value>'")
    if n is None or theta is None:
        raise ValueError("--a needs --n and --theta")
    vec = np.array([float(v) for v in a_text.split(",")])
    if not np.all(np.isfinite(vec)):
        raise ValueError("--a entries must be finite")
    if vec.size != n:
        raise ValueError("--a length disagrees with --n")
    return vec, phasepoly.PhaseSpec(n, _parse_theta(theta, n))


def _parse_theta(text: str, n: int) -> float:
    if text == "critical":
        return (n - 2) * math.pi / 2
    return float(text)


def _run_solve(args: SimpleNamespace) -> dict:
    # every flag is range-checked before the vector is read, so an invalid
    # one exits 2 whatever the vector
    for name in ("beta", "gamma", "alpha", "rmax"):
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"--{name} must be finite")
    gamma, r_max = args.gamma, args.rmax
    # worst_point = rho d/sqrt(a^T (d o d)), rho up to 50 gamma, must stay
    # finite: a finite (50 gamma)^2 keeps it so for every a_i above 1/max
    radius = subsol.GRID_RADIUS * gamma
    if not math.isfinite(radius * radius):
        raise ValueError(f"--gamma out of range: the grid points, up to "
                         f"{subsol.GRID_RADIUS:g}*gamma/sqrt(min a_i) from "
                         f"the origin, may overflow")
    if args.grid < 1:
        raise ValueError("the grid needs at least one shell")
    if args.beta < 1.0:
        raise ValueError("beta must be at least 1")
    if args.beta > radial.BETA_CAP:
        raise ValueError("beta above the supported cap 1e6")
    if gamma < 1.0:
        raise ValueError("gamma must be finite and at least 1")
    rs = radial.check_rmax(r_max)
    vec, spec = _resolve_vector(args)
    adm = weights.classify(spec, vec)
    base = {
        "schema_version": SCHEMA_VERSION,
        "command": "solve",
        "config": {
            "n": spec.n, "theta": spec.theta, "a": np.sort(vec).tolist(),
            "beta": args.beta, "gamma": gamma, "alpha": args.alpha,
            "rmax": r_max, "grid": args.grid,
        },
        "admissibility": {"klass": adm.klass,
                          "m": adm.profile and adm.profile.m},
    }
    if adm.reflected:
        base["admissibility"]["reflected"] = True
    if adm.klass != "admissible":
        base["passed"] = False
        return base

    # every stage runs on the problem classify analysed: for all-negative
    # data the reflection (-theta, -a)
    pf = radial.first_integral(adm.profile, args.beta)
    sol_num = radial.profile_numeric(pf, rs)
    traj, shells, tail = radial.invert(
        pf, rs, subsol.shell_radii(gamma, args.grid), (gamma, 10.0 * gamma))
    sol_imp = radial.profile_implicit(pf, traj)

    mu_gamma, mu_10gamma = radial.tail_integral(pf, tail)
    mu = {"at_gamma": mu_gamma, "at_10gamma": mu_10gamma}
    rep = subsol.verify_subsolution(pf, shells)

    base.update({
        "first_integral": {"log_amplitude": pf.log_amplitude},
        "trajectory": {
            "r": sol_num.r.tolist(),
            "excess_numeric": sol_num.excess.tolist(),
            "excess_implicit": sol_imp.excess.tolist(),
        },
        "route_gap_max": float(np.max(np.abs(sol_num.psi - sol_imp.psi))),
        "mu": mu,
        "verification": {**rep._asdict(),
                         "worst_point": rep.worst_point.tolist()},
    })
    base["gates"] = [
        {"name": name, "field": field, "sense": sense, "bound": bound,
         "passed": _SENSES[sense](_field(base, field), bound)}
        for name, field, sense, bound in GATES]
    base["passed"] = all(row["passed"] for row in base["gates"])
    return base


def _solve_summary(report: dict) -> list:
    adm = report["admissibility"]
    if adm["klass"] != "admissible":
        return [f"inadmissible: klass={adm['klass']} m={adm['m']}"]
    rows = report["gates"]
    failed = ", ".join(row["name"] for row in rows if not row["passed"])
    return [" ".join(f"{row['field'].rpartition('.')[2]}="
                     f"{_fmt(_field(report, row['field']))}" for row in rows),
            f"FAIL: {failed}" if failed else "PASS"]


# ------------------------------------------------------------------- main

def _format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'csv', "
                         f"'json')")
    return text


_OUT = ("out", str, None)


class Command(NamedTuple):
    """One subcommand: its help line, the runner that turns the parsed
    flags into a report dict, the csv writer (None: JSON only), the summary
    that gives its stderr lines, and its flags.  A flag maps to (dest,
    converter, default)."""
    about: str
    run: Callable
    to_csv: Optional[Callable]
    summary: Callable
    flags: dict


_DESCRIPTION = ("identity verification, family scans, and subsolution runs "
                "for the exterior special Lagrangian construction")
COMMANDS = {
    "verify": Command(
        "run identity and property suites",
        _run_verify, _verify_csv, _verify_summary,
        {"--seed": ("seed", int, 42), "--out": _OUT,
         "--format": ("fmt", _format, "json"),
         "--grid": ("grid", int, 200)}),
    "scan-eps": Command(
        "scan the five-point family",
        _run_scan, _scan_csv, _scan_summary,
        {"--out": _OUT, "--format": ("fmt", _format, "csv"),
         "--grid": ("grid", int, 97)}),
    "solve": Command(
        "solve and verify one problem",
        _run_solve, None, _solve_summary,
        {"--out": _OUT, "--n": ("n", int, None),
         "--theta": ("theta", str, None), "--a": ("a", str, None),
         "--family": ("family", str, None), "--beta": ("beta", float, 2.0),
         "--gamma": ("gamma", float, 1.0), "--alpha": ("alpha", float, 0.0),
         "--rmax": ("rmax", float, 1.0e4), "--grid": ("grid", int, 120)}),
}


class UsageExit(Exception):
    """A command line that runs no command: code 0 with the help text for
    stdout, or code 2 with the usage line and error for stderr."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code


def _spelled(flag: str) -> str:
    return f"{flag} {flag[2:].upper()}"


def _usage(name: Optional[str]) -> str:
    if name is None:
        return f"usage: slex [-h] {{{','.join(COMMANDS)}}} ..."
    return " ".join([f"usage: slex {name} [-h]"] + [
        f"[{_spelled(flag)}]" for flag in COMMANDS[name].flags])


def _help(name: Optional[str]) -> str:
    if name is None:
        about = _DESCRIPTION
        rows = [(cmd, COMMANDS[cmd].about) for cmd in COMMANDS]
    else:
        about = COMMANDS[name].about
        rows = [(_spelled(flag), "" if default is None
                 else f"default {default}")
                for flag, (_dest, _convert, default)
                in COMMANDS[name].flags.items()]
    return "\n".join([_usage(name), "", about, ""] + [
        f"  {left:<16}  {text}".rstrip() for left, text in rows])


def _reject(name: Optional[str], message: str) -> UsageExit:
    prog = "slex" if name is None else f"slex {name}"
    return UsageExit(2, f"{_usage(name)}\n{prog}: error: {message}")


def parse(argv: list) -> tuple:
    """(command, args) of a command line, args holding every flag's dest.

    A flag is `--flag value` or `--flag=value`; the value is the next token
    as given, and a repeated flag's last value wins.  UsageExit on -h or
    --help, and on a line the table rejects: no or an unknown command, an
    unknown flag or stray token, a missing value or one its converter
    rejects.
    """
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        raise UsageExit(0, _help(None))
    command = COMMANDS.get(name)
    if command is None:
        raise _reject(None, "the following arguments are required: command"
                      if name is None else
                      f"argument command: invalid choice: {name!r} "
                      f"(choose from {', '.join(map(repr, COMMANDS))})")
    flags = command.flags
    values = {dest: default for dest, _conv, default in flags.values()}
    unknown = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            raise UsageExit(0, _help(name))
        flag, eq, text = token.partition("=")
        spec = flags.get(flag)
        if spec is None:
            unknown.append(token)
            continue
        dest, convert, _default = spec
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise _reject(name, f"argument {flag}: expected one argument")
        try:
            values[dest] = convert(text)
        except ValueError as exc:
            raise _reject(name, f"argument {flag}: {exc}") from None
    if unknown:
        raise _reject(name, f"unrecognized arguments: {' '.join(unknown)}")
    return command, SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        try:
            command, args = parse(sys.argv[1:] if argv is None else argv)
        except UsageExit as exc:
            if exc.code:
                print(exc, file=sys.stderr)
                return exc.code
            # help is written as a report is: a failed write exits 2
            _emit(f"{exc}\n", None)
            return 0
        with warnings.catch_warnings(record=True) as caught:
            try:
                report = command.run(args)
            finally:
                for w in caught:
                    print(f"warning: {w.message}", file=sys.stderr)
        _emit(command.to_csv(report)
              if command.to_csv and args.fmt == "csv"
              else _json_text(report) + "\n", args.out)
        for line in command.summary(report):
            print(line, file=sys.stderr)
    except (ValueError, RuntimeError, Warning) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return 0 if report["passed"] else 1


# What the import made lives as long as a command's process.  Frozen into
# the collector's permanent generation, it is traversed by no later
# collection, in the command's run or at exit, wherever the import left
# the generation counts.  Then the collector runs again if it ran when
# the import began
gc.freeze()
if _COLLECTING:
    gc.enable()

if __name__ == "__main__":
    sys.exit(main())
