#!/usr/bin/env python3
"""Sweep non-liftability certificates for P(F*S) on Gr(d, N).

Runs the full certificate for every prime in --primes and every pair
2 <= d <= N-2 with N up to --max-N, prints one row per case, and exits
nonzero if any certificate fails to report no_lift_where_p_nonzero.

Example:
    python scripts/reproduce_nonliftability.py --primes 5,7,11,13 --max-N 10
"""

import argparse
import sys
import time

from charpflag import VERDICT_NO_LIFT, check_equivariant_smoothness
from charpflag.arith import is_prime
from charpflag.lattice import DENSE_LISTING_MAX, MAX_RANK

# The sweep's largest d is N - 2, and a certificate takes d <= DENSE_LISTING_MAX.
_LARGEST_N = DENSE_LISTING_MAX + 2


def prime_list(text: str) -> list[int]:
    """The primes >= 5 of a comma-separated list, for argparse's ``type=``.

    A word that is not an integer, or a prime past the trial-division bound,
    raises ``ValueError``, which argparse reports as a usage error.
    """
    primes = [int(word) for word in text.split(",")]
    for p in primes:
        if p < 5 or not is_prime(p):
            raise argparse.ArgumentTypeError(f"{p} is not a prime >= 5")
    return primes


def max_n(text: str) -> int:
    """The largest ambient N, 4 <= N <= _LARGEST_N, for argparse's ``type=``.

    Below 4 the sweep would check no certificate at all and still exit 0.
    Past _LARGEST_N it would reach a d that no certificate takes, after every
    smaller N had run.  An N that is not a datum rank at all is reported
    against MAX_RANK.
    """
    n = int(text)
    if not 4 <= n <= MAX_RANK:
        raise argparse.ArgumentTypeError(f"{n} is not in 4..{MAX_RANK}")
    if n > _LARGEST_N:
        raise argparse.ArgumentTypeError(
            f"{n} exceeds {_LARGEST_N}: a certificate takes d <= {DENSE_LISTING_MAX}"
        )
    return n


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--primes", type=prime_list, default="5,7,11,13", help="comma-separated primes >= 5"
    )
    parser.add_argument(
        "--max-N", type=max_n, default=10, dest="max_n", help=f"largest ambient N, 4..{_LARGEST_N}"
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON object per case")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    failures = 0
    cases = 0
    for p in args.primes:
        for n in range(4, args.max_n + 1):
            for d in range(2, n - 1):
                cert = check_equivariant_smoothness(d, n, p)
                cases += 1
                ok = cert.final_verdict == VERDICT_NO_LIFT
                failures += not ok
                if args.json:
                    print(cert.compact_json())
                else:
                    counts = {}
                    for row in cert.rows:
                        counts[row.case_tag] = counts.get(row.case_tag, 0) + 1
                    tag_summary = " ".join(f"{k}:{v}" for k, v in sorted(counts.items()))
                    marker = "ok " if ok else "FAIL"
                    note = " (Totaro: N = p + 2, d = 2)" if (d == 2 and n == p + 2) else ""
                    print(
                        f"[{marker}] p={p:<2} Gr({d},{n}): {cert.final_verdict:<24} "
                        f"rows {tag_summary}{note}"
                    )
    elapsed = time.perf_counter() - start
    if not args.json:
        print(f"\n{cases} certificates, {failures} failures, {elapsed:.2f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
