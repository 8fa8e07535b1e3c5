"""Command-line front end: every decision procedure as a subcommand.

Subcommands
-----------
roots            list roots, simple roots and Weyl group order of a datum
h1               Andersen/Kempf H^1 status of one weight
bwb0             characteristic-zero cohomology oracle for one weight
grassmann-check  full non-liftability certificate for (d, N, p)
isogeny-check    validate rigidified-morphism data from a JSON file
rigidity         Frobenius rigidity verdict for a datum over a base ring

Every subcommand accepts ``--json`` for a machine-readable report
envelope; output is byte-stable for fixed inputs and version.  Exit codes:
0 for definite verdicts, 2 for mathematically inconclusive or undetermined
outcomes, 1 for usage errors.  ``--batch FILE`` evaluates one query per
line, in order.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import shlex
import sys
from typing import Optional, Sequence

from . import __version__
from .arith import prime_power_base
from .errors import CharpFlagError, RankRangeError
from .certificate import VERDICT_NO_LIFT, check_equivariant_smoothness
from .cohomology import andersen_h1, bwb_char0
from .lattice import DENSE_LISTING_MAX
from .lattice import RootDatum, Weight, custom_datum, make_datum, weyl_group_order
from .rootmorph import (
    PMorphismData,
    RingChar,
    frobenius_rigidity_verdict,
    validate_p_morphism,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Weight vectors like -5,5,0,0 must parse as option values; every
        # option here is --long-form, so anything starting with -digit is
        # a value, not a flag.
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = None if args is None or namespace is not None else self._parse_exact(args)
        return parsed if parsed is not None else super().parse_args(args, namespace)

    def _parse_exact(self, words: Sequence[str]) -> Optional[argparse.Namespace]:
        """The namespace argparse builds from ``words``, when they are a run of
        exact ``--option value`` and ``--flag`` words; otherwise None.

        One lookup in argparse's own option table per option word.  Anything
        else (a prefix, ``--opt=value``, help, ``--``, a dash-led value, a
        missing or unconvertible value, a missing required option, a parser
        with positionals) returns None: argparse then parses the words and
        reports any error itself.
        """
        seen = {}
        i, n = 0, len(words)
        while i < n:
            action = self._option_string_actions.get(words[i])
            if action is None:
                return None
            if action.nargs == 0 and isinstance(action, argparse._StoreConstAction):
                seen[action.dest] = action.const
                i += 1
                continue
            if type(action) is not argparse._StoreAction or i + 1 == n:
                return None
            word = words[i + 1]
            if word[:1] == "-" and not self._negative_number_matcher.match(word):
                return None
            try:
                seen[action.dest] = self._registry_get("type", action.type, action.type)(word)
            except ValueError:
                return None
            i += 2
        namespace = argparse.Namespace()
        for action in self._actions:
            if action.dest in seen:
                setattr(namespace, action.dest, seen[action.dest])
            elif not action.option_strings or action.required:
                return None  # argparse would give this positional a word, or reject the line
            elif action.default is not argparse.SUPPRESS:
                setattr(namespace, action.dest, action.default)
        return namespace


# A quote, a backslash or whitespace other than space and tab: the only
# characters on which shlex.split (posix, no commenters) and str.split differ.
_NEEDS_SHLEX = re.compile(r"['\"\\]|[^\S \t]")


def _split_line(line: str) -> list[str]:
    """``shlex.split(line)``, by ``str.split`` when no character needs shlex."""
    return shlex.split(line) if _NEEDS_SHLEX.search(line) else line.split()


def _batch_words(line: str) -> list[str]:
    """The words of a batch line; an unclosed quote or a trailing escape is a usage error."""
    try:
        return _split_line(line)
    except ValueError as exc:
        raise UsageError(f"cannot split batch line: {exc}") from None


def _gl_weight(args) -> Weight:
    """The ``--weight`` of h1/bwb0 as a weight of GL(--N)."""
    try:
        coords = tuple(map(int, args.weight.split(",")))
    except ValueError:
        raise UsageError(
            f"malformed weight vector {args.weight!r}; expected comma-separated integers"
        )
    if args.N is not None and args.N != len(coords):
        raise UsageError(f"--N {args.N} does not match weight length {len(coords)}")
    return make_datum("GL", len(coords)).weight(coords)


def _json_int(value, what: str) -> int:
    """A JSON value that must be an integer (2.0 and true are not)."""
    if type(value) is not int:
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return value


def _json_ints(values, what: str) -> tuple[int, ...]:
    return tuple(_json_int(v, what) for v in values)


def _decimal(digits: str, what: str) -> int:
    """``int(digits)``, with CPython's limit on converted digits a usage error."""
    try:
        return int(digits)
    except ValueError:
        raise UsageError(f"{what} has {len(digits)} digits, too many to convert") from None


def _parse_ring_spec(spec: str, p: int) -> RingChar:
    s = spec.strip().lower()
    if s == "zero":
        return RingChar.zero()
    if s in ("p", "prime"):
        return RingChar.prime(p)
    m = re.fullmatch(r"p\^?(\d+)", s)
    if m:
        k = _decimal(m.group(1), "ring exponent")
    elif s.isdecimal():
        value = _decimal(s, "ring characteristic")
        if value == 0:  # any spelling: 0, 00, ...
            return RingChar.zero()
        if value < 2:
            raise UsageError(f"ring characteristic {value} must be 0 or a prime power")
        split = prime_power_base(value)
        if split is None:
            raise UsageError(f"ring characteristic {value} is not a prime power")
        base, k = split
        if p != base:
            raise UsageError(f"--ring {spec} conflicts with --p {p}")
    else:
        raise UsageError(f"unrecognized ring characteristic {spec!r}; use 0, p, or p^N")
    return RingChar.prime(p) if k == 1 else RingChar.prime_power(p, k)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit_code, output) and builds only the
# output that is printed: the envelope's (inputs, result) with --json, else
# the text lines.


def _cmd_roots(args) -> tuple[int, object]:
    if args.n > DENSE_LISTING_MAX:
        raise UsageError(f"roots --n {args.n} exceeds the bound {DENSE_LISTING_MAX}")
    datum = make_datum(args.type, args.n)
    order = weyl_group_order(datum)
    weyl = datum.weyl_vector
    if args.json:
        result = {
            "datum": datum.to_json(),
            "name": datum.name,
            "rank": datum.rank,
            "root_count": len(datum.roots),
            "roots": [r.vector.to_json() for r in datum.roots],
            "coroots": [list(r.coroot) for r in datum.roots],
            "simple_roots": [r.vector.to_json() for r in datum.simple_roots],
            "weyl_vector": None if weyl is None else weyl.to_json(),
            "weyl_group_order": order,
        }
        return EXIT_OK, ({"type": args.type, "n": args.n}, result)
    return EXIT_OK, [
        f"datum: {datum.name}  (rank {datum.rank}, {len(datum.roots)} roots)",
        "simple roots: " + " ".join(str(r.vector.coords) for r in datum.simple_roots),
        f"weyl vector: {None if weyl is None else weyl.coords}",
        f"weyl group order: {order}",
    ]


def _cmd_h1(args) -> tuple[int, object]:
    mu = _gl_weight(args)
    n = mu.datum.rank
    status = andersen_h1(mu, args.p)
    code = EXIT_INCONCLUSIVE if status.status == "undetermined" else EXIT_OK
    if args.json:
        return code, ({"weight": mu.to_json(), "N": n, "p": args.p}, status.to_json())
    text = [f"weight: {mu.coords}  datum GL({n})  p = {args.p}", f"H1 status: {status.status}"]
    if status.highest_weight is not None:
        text.append(f"largest weight: {status.highest_weight.coords}")
    if status.reason:
        text.append(f"reason: {status.reason}")
    return code, text


def _cmd_bwb0(args) -> tuple[int, object]:
    lam = _gl_weight(args)
    n = lam.datum.rank
    status = bwb_char0(lam)
    if args.json:
        return EXIT_OK, ({"weight": lam.to_json(), "N": n}, status.to_json())
    if status.all_zero:
        found = "all cohomology vanishes (singular)"
    else:
        top = status.highest_weight.coords
        found = f"cohomology in degree {status.degree}, highest weight {top}"
    return EXIT_OK, [f"weight: {lam.coords}  datum GL({n})", found]


def _cmd_grassmann_check(args) -> tuple[int, object]:
    cert = check_equivariant_smoothness(args.d, args.N, args.p)
    if args.json:
        result = cert.to_json()
        code = EXIT_OK if result["verdict"] == VERDICT_NO_LIFT else EXIT_INCONCLUSIVE
        return code, ({"d": args.d, "N": args.N, "p": args.p}, result)
    verdict = cert.final_verdict
    counts: dict[str, int] = {}
    for row in cert.rows:
        counts[row.case_tag] = counts.get(row.case_tag, 0) + 1
    text = [
        f"P(F*S) on Gr({args.d}, {args.N}) at p = {args.p}",
        "rows: " + ", ".join(f"{tag} x{cnt}" for tag, cnt in sorted(counts.items())),
        f"condition i  (H^2(G, H^0) = 0):        {'holds' if cert.condition_i.holds else 'FAILS'}",
        f"condition ii (H^1 trivial G-module):   {'holds' if cert.condition_ii.holds else 'FAILS'}",
        f"condition iii (H^1(G, k) = 0):         {'holds' if cert.condition_iii.holds else 'FAILS'}",
        f"Frobenius rigidity: mod p^2 "
        f"{'no lift' if not cert.rigidity_mod_p_squared.lift_possible else 'lift possible'}, "
        f"char 0 {'no lift' if not cert.rigidity_char_zero.lift_possible else 'lift possible'}",
        f"verdict: {verdict}",
    ]
    return EXIT_OK if verdict == VERDICT_NO_LIFT else EXIT_INCONCLUSIVE, text


def _load_datum_spec(spec: dict, role: str) -> RootDatum:
    if "type" in spec:
        return make_datum(spec["type"], _json_int(spec["n"], f"{role} n"))
    try:
        positive = [
            (
                _json_ints(entry["vector"], f"{role} root vector entry"),
                _json_ints(entry["coroot"], f"{role} coroot entry"),
            )
            for entry in spec["positive_roots"]
        ]
        simple = []
        for i in spec["simple_indices"]:
            if type(i) is not int or not 0 <= i < len(positive):
                raise UsageError(
                    f"{role} simple_indices entry {i!r} is not a positive-root index "
                    f"in 0..{len(positive) - 1}"
                )
            simple.append(positive[i][0])
        weyl = spec.get("weyl_vector")
        if weyl is not None:
            weyl = _json_ints(weyl, f"{role} weyl_vector entry")
        return custom_datum(
            rank=_json_int(spec["rank"], f"{role} rank"),
            positive_pairs=positive,
            simple_coords=simple,
            weyl_vector_coords=weyl,
            pairing_denominator=_json_int(
                spec.get("pairing_denominator", 1), f"{role} pairing_denominator"
            ),
            name=spec.get("name", f"custom-{role}"),
        )
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed {role} datum description: {exc}") from None


def _d_map_indices(d_spec, n_source: int, n_target: int) -> list[int]:
    """The JSON shape of a d_map list: one target-root index per source root."""
    if not isinstance(d_spec, list) or len(d_spec) != n_source:
        raise UsageError(
            f"d_map must be 'identity' or a list of {n_source} target-root indices, "
            "one per source root"
        )
    for j in d_spec:
        if type(j) is not int or not 0 <= j < n_target:
            raise UsageError(f"d_map entry {j!r} is not a target-root index in 0..{n_target - 1}")
    return d_spec


def _cmd_isogeny_check(args) -> tuple[int, object]:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {args.file}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{args.file} is not valid JSON: {exc}")
    except ValueError:  # an integer past CPython's limit on converted digits
        raise UsageError(f"{args.file} holds an integer with too many digits to convert") from None
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise UsageError(f"{args.file} nests its JSON too deeply to read") from None
    try:
        source = _load_datum_spec(spec["source"], "source")
        target = _load_datum_spec(spec["target"], "target")
        for role, datum in (("source", source), ("target", target)):
            if datum.rank > DENSE_LISTING_MAX:
                raise RankRangeError(
                    f"{role} rank {datum.rank} exceeds the isogeny-check bound "
                    f"{DENSE_LISTING_MAX}"
                )
        h = tuple(_json_ints(row, "h entry") for row in spec["h"])
        d_spec = spec.get("d_map", "identity")
        if d_spec == "identity":
            d_map = dict(zip(source.roots, target.roots))
        else:
            indices = _d_map_indices(d_spec, len(source.roots), len(target.roots))
            d_map = {a: target.roots[j] for a, j in zip(source.roots, indices)}
        q_spec = spec.get("q", 1)
        if type(q_spec) is int:
            q = {a: q_spec for a in source.roots}
        else:
            if not isinstance(q_spec, list) or len(q_spec) != len(source.roots):
                raise UsageError(
                    f"q must be an integer or a list of {len(source.roots)} multipliers, "
                    "one per source root"
                )
            q = dict(zip(source.roots, _json_ints(q_spec, "q entry")))
        ring = spec.get("ring_char", {"kind": "zero"})
        kind = ring["kind"]
        # Every field present reaches the constructor, which rejects one its kind ignores.
        p = _json_int(ring["p"], "ring_char p") if "p" in ring else None
        n = _json_int(ring["n"], "ring_char n") if "n" in ring else None
        ring_char = RingChar(kind, p, n)
        verdict = validate_p_morphism(PMorphismData(source, target, h, d_map, q, ring_char))
    except CharpFlagError as exc:
        # Well-formed JSON whose data a typed check rejects (a rank past its
        # bound, simple roots that are not a base, a d_map that is not a
        # bijection); caught before ValueError, which most library errors
        # subclass.
        raise UsageError(f"invalid morphism data in {args.file}: {exc}") from None
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed morphism description in {args.file}: {exc}") from None
    if args.json:
        return EXIT_OK, ({"file": args.file}, verdict.to_json())
    text = [
        f"morphism {source.name} -> {target.name} over {ring_char.describe()}:"
        f" {'valid' if verdict.valid else 'INVALID'}"
    ]
    text += [
        f"  [{f.relation}] root {f.root.vector.coords}: {f.detail}" for f in verdict.failures
    ]
    return EXIT_OK, text


def _cmd_rigidity(args) -> tuple[int, object]:
    datum = make_datum(args.type, args.n)
    ring_char = _parse_ring_spec(args.ring, args.p)
    verdict = frobenius_rigidity_verdict(datum, ring_char, p=args.p)
    if args.json:
        inputs = {"type": args.type, "n": args.n, "ring": args.ring, "p": args.p}
        return EXIT_OK, (inputs, verdict.to_json())
    text = [
        f"Frobenius of {datum.name} over {ring_char.describe()}: "
        f"{'lift possible' if verdict.lift_possible else 'no lift'}"
    ]
    if verdict.reason:
        text.append(f"reason: {verdict.reason}")
    if verdict.note:
        text.append(f"note: {verdict.note}")
    return EXIT_OK, text


_HANDLERS = {
    "roots": _cmd_roots,
    "h1": _cmd_h1,
    "bwb0": _cmd_bwb0,
    "grassmann-check": _cmd_grassmann_check,
    "isogeny-check": _cmd_isogeny_check,
    "rigidity": _cmd_rigidity,
}


def build_parser(add_help: bool = True) -> _Parser:
    """The top-level parser; ``parser.subcommands`` maps names to subparsers.

    A batch builds it with ``add_help=False``, so that a help request in a
    batch line is an unknown option, one error line, and the next line runs.
    """
    # No prefix matching at the top level: "--bat FILE" is an error, not --batch.
    parser = _Parser(
        prog="charpflag",
        description=__doc__.splitlines()[0],
        allow_abbrev=False,
        add_help=add_help,
    )
    parser.add_argument("--batch", metavar="FILE", help="evaluate one query per line of FILE")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    add_parser = functools.partial(sub.add_parser, add_help=add_help)

    p_roots = add_parser("roots", help="root datum summary")
    p_roots.add_argument("--type", required=True, help="GL | SL | Sp | SO_odd | SO_even | torus")
    p_roots.add_argument("--n", required=True, type=int, help="lattice rank")

    p_h1 = add_parser("h1", help="H^1 status of a line bundle weight on GL_N/B")
    p_h1.add_argument("--weight", required=True, help="comma-separated integer coordinates")
    p_h1.add_argument("--p", required=True, type=int, help="prime characteristic")
    p_h1.add_argument("--N", type=int, help="rank of the GL datum (default: weight length)")

    p_bwb = add_parser("bwb0", help="characteristic-zero cohomology oracle")
    p_bwb.add_argument("--weight", required=True, help="comma-separated integer coordinates")
    p_bwb.add_argument("--N", type=int, help="rank of the GL datum (default: weight length)")

    p_gc = add_parser("grassmann-check", help="non-liftability certificate for P(F*S)")
    p_gc.add_argument("--d", required=True, type=int, help="tautological bundle rank, 2 <= d <= N-2")
    p_gc.add_argument("--N", required=True, type=int, help="ambient dimension")
    p_gc.add_argument("--p", required=True, type=int, help="prime characteristic, p >= 5")

    p_iso = add_parser("isogeny-check", help="validate rigidified morphism data from JSON")
    p_iso.add_argument("--file", required=True, help="path to the morphism description")

    p_rig = add_parser("rigidity", help="Frobenius rigidity verdict")
    p_rig.add_argument("--type", required=True, help="GL | SL | Sp | SO_odd | SO_even | torus")
    p_rig.add_argument("--n", required=True, type=int, help="lattice rank")
    p_rig.add_argument("--ring", required=True, help="base ring characteristic: 0, p, or p^N")
    p_rig.add_argument("--p", required=True, type=int, help="residue prime")

    for sp in (p_roots, p_h1, p_bwb, p_gc, p_iso, p_rig):
        sp.add_argument("--json", action="store_true", help="emit a JSON report envelope")
    parser.subcommands = sub.choices  # name -> subparser, for _parse_args
    return parser


def _parse_args(parser: _Parser, argv: Sequence[str]) -> argparse.Namespace:
    """The namespace of one query, from a single parse.

    When argv[0] names a subcommand, that subcommand's parser reads the rest,
    as the top-level parser would hand it every later word; a leading "--"
    before a subcommand ends the top-level options and is dropped.
    Otherwise the top-level parser reads argv and must yield a subcommand.
    """
    if len(argv) > 1 and argv[0] == "--" and argv[1] in parser.subcommands:
        argv = argv[1:]
    subparser = parser.subcommands.get(argv[0]) if argv else None
    if subparser is not None:
        args = subparser.parse_args(argv[1:])
        args.command = argv[0]
    else:
        option = argv[0].split("=", 1)[0] if argv else ""
        if (
            option[:1] == "-"
            and option not in ("-", "--")
            and option not in parser._option_string_actions
            and not parser._negative_number_matcher.match(option)
        ):
            raise UsageError(f"unrecognized option {option!r}")
        args = parser.parse_args(argv)
        if args.batch is not None:  # main reads a leading --batch itself
            raise UsageError("--batch cannot be used inside a batch file")
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
    return args


def _run_single(parser: _Parser, argv: Sequence[str], compact_json: bool) -> int:
    args = _parse_args(parser, argv)
    code, output = _HANDLERS[args.command](args)
    if args.json:
        inputs, result = output
        envelope = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "version": __version__,
        }
        # The envelope is a tree built fresh for this query, so it cannot
        # hold a cycle, and the encoder skips its circular-reference check.
        if compact_json:
            print(json.dumps(envelope, sort_keys=True, separators=(",", ":"), check_circular=False))
        else:
            print(json.dumps(envelope, sort_keys=True, indent=2, check_circular=False))
    else:
        print(*output, sep="\n")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    batch = bool(argv) and argv[0].split("=", 1)[0] == "--batch"
    parser = build_parser(add_help=not batch)
    try:
        if batch:
            # "--batch FILE" or "--batch=FILE"
            batch_args = argv[0].split("=", 1)[1:] + argv[1:]
            if len(batch_args) != 1:
                raise UsageError("--batch takes exactly one file argument")
            try:
                with open(batch_args[0], "r", encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
            except (OSError, UnicodeDecodeError) as exc:
                raise UsageError(f"cannot read batch file: {exc}")
            worst = EXIT_OK
            for line in lines:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    code = _run_single(parser, _batch_words(line), compact_json=True)
                except (UsageError, CharpFlagError) as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    code = EXIT_USAGE
                if code == EXIT_USAGE or worst == EXIT_USAGE:
                    worst = EXIT_USAGE
                else:
                    worst = max(worst, code)
            return worst
        return _run_single(parser, argv, compact_json=False)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CharpFlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
