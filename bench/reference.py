"""A fixed reference process: the host's speed at the moment it runs.

    python bench/reference.py

It imports the third-party modules slex imports (numpy and the scipy
subpackages), then does a fixed amount of exact rational arithmetic in
the interpreter, the two kinds of work a slex command line spends its time
on, but runs no slex code.  It prints {"import_s": ..., "compute_s": ...},
the two parts timed from inside.  The benchmark runs it before and after
every operation and divides the operation's times by the mean of the two
runs around it, so a spell in which the shared host runs everything slower
cancels out of the ratio while a change to slex does not.
"""

import json
import time
from fractions import Fraction

ROUNDS = 1200
REPEATS = 22


def main() -> None:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import numpy.polynomial  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401
    t1 = time.perf_counter()
    for _ in range(REPEATS):
        total = Fraction(0)
        for i in range(1, ROUNDS + 1):
            total += Fraction(i % 23 + 1, i % 7 + 1) * Fraction(1, i)
        if total <= 0:
            raise SystemExit("reference arithmetic went wrong")
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "compute_s": t2 - t1}))


if __name__ == "__main__":
    main()
