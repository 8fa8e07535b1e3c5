import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import charpflag
from charpflag import __version__, cli
from charpflag.cli import main
from charpflag.lattice import make_datum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# grassmann-check


def test_grassmann_check_totaro_case(capsys):
    code, payload = run_json(capsys, "grassmann-check", "--d", "2", "--N", "7", "--p", "5", "--json")
    assert code == 0
    assert payload["command"] == "grassmann-check"
    assert payload["version"] == __version__
    assert payload["inputs"] == {"d": 2, "N": 7, "p": 5}
    assert payload["result"]["verdict"] == "no_lift_where_p_nonzero"


def test_grassmann_check_usage_error_exit_1(capsys):
    code, out, err = run_cli(capsys, "grassmann-check", "--d", "1", "--N", "4", "--p", "5")
    assert code == 1
    assert "2 <= d <= N - 2" in err


def test_grassmann_check_rejects_small_primes(capsys):
    code, _, err = run_cli(capsys, "grassmann-check", "--d", "2", "--N", "7", "--p", "3")
    assert code == 1
    assert "p >= 5" in err


def test_json_output_is_byte_stable(capsys):
    argv = ("grassmann-check", "--d", "2", "--N", "6", "--p", "5", "--json")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


_ISOGENY_P2 = {  # the Frobenius data of GL(2) over Witt vectors of length two
    "source": {"type": "GL", "n": 2},
    "target": {"type": "GL", "n": 2},
    "h": [[5, 0], [0, 5]],
    "q": 5,
    "ring_char": {"kind": "prime_power", "p": 5, "n": 2},
}
_P2 = "characteristic 5^2 (p nonzero, nilpotent)"
# Text-mode stdout of one query per subcommand, byte for byte: a handler
# renders only the form that is printed, and these are its bytes.
_TEXT_PINS = [
    (
        "roots --type Sp --n 2",
        "datum: Sp(4)  (rank 2, 8 roots)\n"
        "simple roots: (1, -1) (0, 2)\n"
        "weyl vector: (2, 1)\n"
        "weyl group order: 8\n",
    ),
    (
        "h1 --weight -5,5,0 --p 5",
        "weight: (-5, 5, 0)  datum GL(3)  p = 5\n"
        "H1 status: nonzero\n"
        "largest weight: (0, 0, 0)\n",
    ),
    (
        "bwb0 --weight 1,3,0",
        "weight: (1, 3, 0)  datum GL(3)\ncohomology in degree 1, highest weight (2, 2, 0)\n",
    ),
    (
        "grassmann-check --d 3 --N 6 --p 5",
        "P(F*S) on Gr(3, 6) at p = 5\n"
        "rows: adjacent x2, diagonal x3, lower_far x1, upper_far x3\n"
        "condition i  (H^2(G, H^0) = 0):        holds\n"
        "condition ii (H^1 trivial G-module):   holds\n"
        "condition iii (H^1(G, k) = 0):         holds\n"
        "Frobenius rigidity: mod p^2 no lift, char 0 no lift\n"
        "verdict: no_lift_where_p_nonzero\n",
    ),
    (
        "isogeny-check --file {file}",
        f"morphism GL(2) -> GL(2) over {_P2}: INVALID\n"
        f"  [q_admissible] root (1, -1): x -> x^5 is not an additive endomorphism "
        f"over a ring of {_P2}\n"
        f"  [q_admissible] root (-1, 1): x -> x^5 is not an additive endomorphism "
        f"over a ring of {_P2}\n",
    ),
    (
        "rigidity --type GL --n 3 --ring p^2 --p 5",
        f"Frobenius of GL(3) over {_P2}: no lift\n"
        "reason: forced Frobenius data (h = 5*id, d = id, q == 5) is inadmissible over "
        f"a base of {_P2}: x -> x^5 is additive only where 5 = 0\n",
    ),
]


@pytest.mark.parametrize("argv,expected", _TEXT_PINS, ids=[a.split()[0] for a, _ in _TEXT_PINS])
def test_text_output_bytes_are_pinned(capsys, tmp_path, argv, expected):
    path = tmp_path / "frobenius.json"
    path.write_text(json.dumps(_ISOGENY_P2))
    code, out, err = run_cli(capsys, *argv.format(file=path).split())
    assert (code, out, err) == (0, expected, "")


def test_envelopes_encode_as_with_the_circular_reference_check(capsys, tmp_path, monkeypatch):
    # The envelope skips the encoder's circular-reference check; its text
    # must equal what the default encoder makes of the same envelope, in
    # the indented single-query form and the compact batch form.
    path = tmp_path / "frobenius.json"
    path.write_text(json.dumps(_ISOGENY_P2))
    lines = [argv.format(file=path) + " --json" for argv, _ in _TEXT_PINS]
    dumps, calls = json.dumps, []

    def recording_dumps(obj, **kwargs):
        calls.append((obj, kwargs))
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", recording_dumps)
    outputs = [run_cli(capsys, *line.split())[1] for line in lines]
    batch = tmp_path / "queries.txt"
    batch.write_text("".join(line + "\n" for line in lines))
    outputs += run_cli(capsys, "--batch", str(batch))[1].splitlines(keepends=True)
    assert len(calls) == len(outputs) == 2 * len(_TEXT_PINS)
    for (envelope, kwargs), out in zip(calls, outputs):
        assert kwargs.pop("check_circular") is False
        assert out == dumps(envelope, **kwargs) + "\n"


# ---------------------------------------------------------------------------
# h1 / bwb0


def test_h1_zero_weight(capsys):
    code, payload = run_json(capsys, "h1", "--weight", "0,0,0,0", "--p", "5", "--json")
    assert code == 0
    assert payload["result"] == {
        "status": "zero",
        "highest_weight": None,
        "undetermined_reason": None,
    }


def test_h1_trivial_module_case(capsys):
    code, payload = run_json(capsys, "h1", "--weight", "-5,5,0,0", "--p", "5", "--json")
    assert code == 0
    assert payload["result"]["status"] == "nonzero"
    assert payload["result"]["highest_weight"] == [0, 0, 0, 0]


def test_h1_undetermined_exit_2(capsys):
    code, out, _ = run_cli(capsys, "h1", "--weight", "0,2,0,0", "--p", "5")
    assert code == 2
    assert "undetermined" in out


def test_h1_weight_parsing_errors(capsys):
    code, _, err = run_cli(capsys, "h1", "--weight", "1,x,3", "--p", "5")
    assert code == 1
    assert "malformed weight" in err
    code, _, err = run_cli(capsys, "h1", "--weight", "1,2,3", "--N", "4", "--p", "5")
    assert code == 1


def test_bwb0(capsys):
    code, payload = run_json(capsys, "bwb0", "--weight", "4,2,1,0", "--json")
    assert code == 0
    assert payload["result"] == {"all_zero": False, "degree": 0, "highest_weight": [4, 2, 1, 0]}
    code, payload = run_json(capsys, "bwb0", "--weight", "-1,0,0", "--json")
    assert code == 0
    assert payload["result"]["all_zero"] is True


# ---------------------------------------------------------------------------
# roots


def test_roots_listing(capsys):
    code, payload = run_json(capsys, "roots", "--type", "GL", "--n", "4", "--json")
    assert code == 0
    result = payload["result"]
    assert result["root_count"] == 12
    assert result["simple_roots"] == [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]
    assert result["weyl_group_order"] == 24
    assert result["weyl_vector"] == [3, 2, 1, 0]


def test_roots_reports_the_weyl_group_order_at_every_rank(capsys):
    code, payload = run_json(capsys, "roots", "--type", "Sp", "--n", "8", "--json")
    assert code == 0
    assert payload["result"]["weyl_group_order"] == 10321920
    code, out, _ = run_cli(capsys, "roots", "--type", "GL", "--n", "64")
    assert code == 0
    assert f"weyl group order: {math.factorial(64)}" in out


def test_roots_rank_is_bounded_at_64(capsys):
    code, out, err = run_cli(capsys, "roots", "--type", "GL", "--n", "65", "--json")
    assert code == 1
    assert out == ""
    assert err == "usage error: roots --n 65 exceeds the bound 64\n"


def test_roots_unknown_family(capsys):
    code, _, err = run_cli(capsys, "roots", "--type", "E8", "--n", "8")
    assert code == 1


# ---------------------------------------------------------------------------
# rigidity


def test_rigidity_no_lift_over_char_zero(capsys):
    code, payload = run_json(
        capsys, "rigidity", "--type", "GL", "--n", "4", "--ring", "0", "--p", "5", "--json"
    )
    assert code == 0
    assert payload["result"]["verdict"] == "no_lift"


def test_rigidity_over_prime_power_spellings(capsys):
    for ring in ("p^2", "p2", "25"):
        code, payload = run_json(
            capsys, "rigidity", "--type", "Sp", "--n", "2", "--ring", ring, "--p", "5", "--json"
        )
        assert code == 0
        assert payload["result"]["verdict"] == "no_lift"


def test_rigidity_lift_over_prime_field(capsys):
    code, payload = run_json(
        capsys, "rigidity", "--type", "SO_odd", "--n", "3", "--ring", "p", "--p", "7", "--json"
    )
    assert code == 0
    assert payload["result"]["verdict"] == "lift_possible"


def test_rigidity_toral(capsys):
    code, payload = run_json(
        capsys, "rigidity", "--type", "torus", "--n", "3", "--ring", "0", "--p", "5", "--json"
    )
    assert code == 0
    assert payload["result"]["verdict"] == "lift_possible"
    assert "toral" in payload["result"]["note"]


@pytest.mark.parametrize(
    "ring,message",
    [
        ("0", "Frobenius multiplier 4 is not prime"),
        ("p", "ring characteristic 4 is not prime"),
        # The id predates the message's ring label; it stays, so the test keeps its name.
        pytest.param("p^2", "prime_power ring prime p = 4 is not prime", id="p^2-4 is not prime"),
    ],
)
def test_rigidity_rejects_a_composite_p(capsys, ring, message):
    code, out, err = run_cli(
        capsys, "rigidity", "--type", "GL", "--n", "3", "--ring", ring, "--p", "4", "--json"
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("p", ["4", "1", "-3"])
@pytest.mark.parametrize("family,n", [("torus", "3"), ("GL", "1"), ("GL", "3")])
def test_rigidity_rejects_a_non_prime_p_on_toral_data_too(capsys, family, n, p):
    code, out, err = run_cli(
        capsys, "rigidity", "--type", family, "--n", n, "--ring", "0", "--p", p
    )
    assert code == 1
    assert out == ""
    assert err == f"error: Frobenius multiplier {p} is not prime\n"


@pytest.mark.parametrize("ring", ["p^0", "p0"])
def test_rigidity_ring_exponent_zero_is_a_one_line_error(capsys, ring):
    code, out, err = run_cli(
        capsys, "rigidity", "--type", "GL", "--n", "3", "--ring", ring, "--p", "5"
    )
    assert code == 1
    assert out == ""
    assert err == "error: prime_power needs exponent >= 2, got 0\n"


M61 = str(2**61 - 1)  # a prime far above the trial-division bound


@pytest.mark.parametrize(
    "argv",
    [
        ["h1", "--weight", "0,-5,0", "--p", M61],
        ["grassmann-check", "--d", "2", "--N", "6", "--p", M61],
        ["rigidity", "--type", "GL", "--n", "3", "--ring", "0", "--p", M61],
        ["rigidity", "--type", "GL", "--n", "3", "--ring", M61, "--p", "5"],
    ],
    ids=["h1", "grassmann-check", "rigidity-p", "rigidity-ring"],
)
def test_oversized_integers_are_a_one_line_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {M61} exceeds the trial-division bound {2**31}\n"


HUGE = "9" * 5000  # past CPython's default limit of 4300 converted digits


@pytest.mark.parametrize("ring", [HUGE, "p^" + HUGE], ids=["characteristic", "exponent"])
def test_huge_ring_integers_are_a_one_line_error(capsys, ring):
    code, out, err = run_cli(
        capsys, "rigidity", "--type", "GL", "--n", "3", "--ring", ring, "--p", "5"
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(("usage error: ", "error: "))


def test_huge_isogeny_integer_is_a_one_line_error(capsys, tmp_path):
    # json.dumps cannot write such an integer either, so it is spliced in.
    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(_gl3_identity_morphism(q=0)).replace('"q": 0', '"q": ' + HUGE))
    code, out, err = run_cli(capsys, "isogeny-check", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(("usage error: ", "error: "))


def test_huge_integers_do_not_stop_a_batch(capsys, tmp_path):
    morphism = tmp_path / "morphism.json"
    morphism.write_text(json.dumps(_gl3_identity_morphism(q=0)).replace('"q": 0', '"q": ' + HUGE))
    batch = tmp_path / "queries.txt"
    batch.write_text(
        f"rigidity --type GL --n 3 --ring {HUGE} --p 5\n"
        f"rigidity --type GL --n 3 --ring p^{HUGE} --p 5\n"
        f"isogeny-check --file {morphism}\n"
        "h1 --weight 0,0,0,0 --p 5 --json\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 1
    assert err.count("\n") == 3 and "Traceback" not in err
    assert json.loads(out)["result"]["status"] == "zero"


DEEP = "[" * 100_000 + "]" * 100_000  # nested past the interpreter's recursion limit


def test_deeply_nested_isogeny_json_is_a_one_line_error(capsys, tmp_path):
    path = tmp_path / "morphism.json"
    path.write_text(DEEP)
    code, out, err = run_cli(capsys, "isogeny-check", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err == f"usage error: {path} nests its JSON too deeply to read\n"


def test_deeply_nested_json_does_not_stop_a_batch(capsys, tmp_path):
    morphism = tmp_path / "morphism.json"
    morphism.write_text(DEEP)
    batch = tmp_path / "queries.txt"
    batch.write_text(f"isogeny-check --file {morphism}\nh1 --weight 0,0,0,0 --p 5 --json\n")
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 1
    assert err == f"error: {morphism} nests its JSON too deeply to read\n"
    assert json.loads(out)["result"]["status"] == "zero"


@pytest.mark.parametrize("ring", ["00", "000"])
def test_every_digit_spelling_of_zero_is_characteristic_zero(capsys, ring):
    args = ("rigidity", "--type", "GL", "--n", "3", "--ring", ring, "--p", "5", "--json")
    code, payload = run_json(capsys, *args)
    assert code == 0
    assert payload["result"] == run_json(capsys, *args[:6], "0", *args[7:])[1]["result"]
    assert "characteristic 0" in payload["result"]["reason"]


def test_ring_characteristic_one_keeps_its_message(capsys):
    code, out, err = run_cli(
        capsys, "rigidity", "--type", "GL", "--n", "3", "--ring", "1", "--p", "5"
    )
    assert (code, out) == (1, "")
    assert err == "usage error: ring characteristic 1 must be 0 or a prime power\n"


def test_ring_characteristic_takes_only_decimal_digits(capsys):
    # A superscript is a digit to str.isdigit, but int rejects it.
    code, out, err = run_cli(
        capsys, "rigidity", "--type", "GL", "--n", "3", "--ring", "\u00b2", "--p", "5"
    )
    assert (code, out) == (1, "")
    assert err == "usage error: unrecognized ring characteristic '\u00b2'; use 0, p, or p^N\n"
    # An Arabic-Indic five is a decimal digit, which int reads as 5.
    args = ("rigidity", "--type", "GL", "--n", "3", "--ring", "\u0665", "--p", "5", "--json")
    code, payload = run_json(capsys, *args)
    assert code == 0
    assert payload["result"] == run_json(capsys, *args[:6], "5", *args[7:])[1]["result"]


def test_ring_zero_is_characteristic_zero(capsys):
    args = ("rigidity", "--type", "GL", "--n", "3", "--ring", "zero", "--p", "5", "--json")
    code, payload = run_json(capsys, *args)
    assert code == 0
    assert payload["result"] == run_json(capsys, *args[:6], "0", *args[7:])[1]["result"]


def test_ring_characteristic_must_be_a_prime_power(capsys):
    code, out, err = run_cli(
        capsys, "rigidity", "--type", "GL", "--n", "3", "--ring", "12", "--p", "5"
    )
    assert (code, out) == (1, "")
    assert err == "usage error: ring characteristic 12 is not a prime power\n"


def test_rigidity_ring_p_conflict(capsys):
    code, _, err = run_cli(
        capsys, "rigidity", "--type", "GL", "--n", "3", "--ring", "25", "--p", "7"
    )
    assert code == 1


# ---------------------------------------------------------------------------
# isogeny-check


def _write_morphism(tmp_path, payload):
    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_isogeny_check_frobenius_valid(capsys, tmp_path):
    path = _write_morphism(
        tmp_path,
        {
            "source": {"type": "GL", "n": 3},
            "target": {"type": "GL", "n": 3},
            "h": [[5, 0, 0], [0, 5, 0], [0, 0, 5]],
            "d_map": "identity",
            "q": 5,
            "ring_char": {"kind": "prime", "p": 5},
        },
    )
    code, payload = run_json(capsys, "isogeny-check", "--file", path, "--json")
    assert code == 0
    assert payload["result"]["valid"] is True


def test_isogeny_check_inadmissible_over_witt_vectors(capsys, tmp_path):
    path = _write_morphism(
        tmp_path,
        {
            "source": {"type": "GL", "n": 3},
            "target": {"type": "GL", "n": 3},
            "h": [[5, 0, 0], [0, 5, 0], [0, 0, 5]],
            "d_map": "identity",
            "q": 5,
            "ring_char": {"kind": "prime_power", "p": 5, "n": 2},
        },
    )
    code, payload = run_json(capsys, "isogeny-check", "--file", path, "--json")
    assert code == 0  # a definite negative verdict
    assert payload["result"]["valid"] is False
    assert len(payload["result"]["failures"]) == 6
    for failure in payload["result"]["failures"]:
        assert failure["relation"] == "q_admissible"


def test_isogeny_check_custom_rank_one_data(capsys, tmp_path):
    path = _write_morphism(
        tmp_path,
        {
            "source": {
                "rank": 1,
                "positive_roots": [{"vector": [2], "coroot": [1]}],
                "simple_indices": [0],
                "weyl_vector": [1],
                "name": "SL(2)-rk1",
            },
            "target": {
                "rank": 1,
                "positive_roots": [{"vector": [1], "coroot": [2]}],
                "simple_indices": [0],
                "name": "PGL(2)-rk1",
            },
            "h": [[2]],
            "d_map": "identity",
            "q": 1,
            "ring_char": {"kind": "zero"},
        },
    )
    code, payload = run_json(capsys, "isogeny-check", "--file", path, "--json")
    assert code == 0
    assert payload["result"]["valid"] is True


_CUSTOM_SL2 = {
    "rank": 1,
    "positive_roots": [{"vector": [2], "coroot": [1]}],
    "simple_indices": [0],
    "weyl_vector": [1],
}


def _gl3_identity_morphism(**overrides):
    payload = {
        "source": {"type": "GL", "n": 3},
        "target": {"type": "GL", "n": 3},
        "h": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "d_map": [0, 1, 2, 3, 4, 5],
        "q": 1,
        "ring_char": {"kind": "zero"},
    }
    payload.update(overrides)
    return payload


def test_isogeny_check_index_list_d_map_is_valid(capsys, tmp_path):
    path = _write_morphism(tmp_path, _gl3_identity_morphism(q=[1] * 6))
    code, payload = run_json(capsys, "isogeny-check", "--file", path, "--json")
    assert code == 0
    assert payload["result"]["valid"] is True


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"d_map": [0, 1]}, "list of 6 target-root indices"),
        ({"d_map": [0, 1, 2, 3, 4, -1]}, "d_map entry -1"),
        ({"d_map": [0, 1, 2, 3, 4, 4]}, "not a bijection"),
        ({"q": [1, 1]}, "list of 6 multipliers"),
        (
            {"source": dict(_CUSTOM_SL2, simple_indices=[0, 0])},
            "custom-source: simple root (2,) is repeated",
        ),
    ],
    ids=["short_d_map", "negative_index", "non_bijective_d_map", "short_q", "repeated_simple"],
)
def test_isogeny_check_rejects_bad_root_lists(capsys, tmp_path, overrides, message):
    path = _write_morphism(tmp_path, _gl3_identity_morphism(**overrides))
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1
    assert message in err


def test_isogeny_check_rejects_a_negative_simple_index(capsys, tmp_path):
    source = {
        "rank": 2,
        "positive_roots": [
            {"vector": [1, -1], "coroot": [1, -1]},
            {"vector": [2, 0], "coroot": [1, 0]},
        ],
        "simple_indices": [-1],
    }
    path = _write_morphism(tmp_path, {"source": source, "target": source, "h": [[1, 0], [0, 1]]})
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert code == 1
    assert err == "usage error: source simple_indices entry -1 is not a positive-root index in 0..1\n"


def test_isogeny_check_bounds_a_custom_rank(capsys, tmp_path):
    source = {"rank": 10_000_000, "positive_roots": [], "simple_indices": []}
    path = _write_morphism(tmp_path, {"source": source, "target": source, "h": [[1]]})
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.endswith(": custom-source rank 10000000 exceeds the bound 1024\n")


def test_isogeny_check_rejects_a_negative_custom_rank(capsys, tmp_path):
    source = {"rank": -1, "positive_roots": [], "simple_indices": []}
    path = _write_morphism(tmp_path, {"source": source, "target": source, "h": [[1]]})
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert (code, out) == (1, "")
    assert err == (
        f"usage error: invalid morphism data in {path}: custom-source requires n >= 0, got -1\n"
    )


def test_isogeny_check_reports_a_null_family_as_invalid_data(capsys, tmp_path):
    path = _write_morphism(tmp_path, _gl3_identity_morphism(source={"type": None, "n": 3}))
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert (code, out) == (1, "")
    assert err == (
        f"usage error: invalid morphism data in {path}: unknown datum family None; "
        "expected one of GL, SL, Sp, SO_odd, SO_even, Torus\n"
    )


@pytest.mark.parametrize(
    "roots,simple,what",
    [
        ([[1, -1], [1, 1]], [0], "positive root (1, 1) is not reached from the simple roots"),
        (
            [[1, -1, 0], [0, 1, -1], [1, 0, -1]],
            [0, 1, 2],
            "simple root (1, 0, -1) minus the positive root (1, -1, 0) is a positive root",
        ),
        # A base is linearly independent: at most rank simple roots.
        ([[1, 1], [1, -1], [-1, 1]], [0, 1, 2], "3 simple roots exceed the rank 2"),
    ],
    ids=["a1xa1_one_simple", "a2_decomposable", "more_simple_roots_than_rank"],
)
def test_isogeny_check_rejects_simple_roots_that_are_not_a_base(
    capsys, tmp_path, roots, simple, what
):
    source = {
        "rank": len(roots[0]),
        "positive_roots": [{"vector": r, "coroot": r} for r in roots],
        "simple_indices": simple,
    }
    h = [[int(i == j) for j in range(len(roots[0]))] for i in range(len(roots[0]))]
    path = _write_morphism(tmp_path, {"source": source, "target": source, "h": h})
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert what in err
    # Well-formed JSON that a typed datum check rejects is not "malformed".
    assert err.startswith(f"usage error: invalid morphism data in {path}: ")


def test_isogeny_check_reports_an_oversized_rank_as_invalid_data(capsys, tmp_path):
    path = _write_morphism(tmp_path, _gl3_identity_morphism(source={"type": "GL", "n": 2000}))
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert (code, out) == (1, "")
    assert err == (
        f"usage error: invalid morphism data in {path}: GL rank 2000 exceeds the bound 1024\n"
    )


@pytest.mark.parametrize("role", ("source", "target"))
def test_isogeny_check_bounds_the_datum_ranks(capsys, tmp_path, role):
    # Validation multiplies rank x rank matrices against every root, O(rank^4)
    # for GL(rank), so a rank past the dense-listing bound stops before any
    # root list is built.
    path = _write_morphism(tmp_path, _gl3_identity_morphism(**{role: {"type": "GL", "n": 65}}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == (
        f"usage error: invalid morphism data in {path}: "
        f"{role} rank 65 exceeds the isogeny-check bound 64\n"
    )
    assert make_datum("GL", 65)._root_lists is None


def test_grassmann_check_bounds_d(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "grassmann-check", "--d", "65", "--N", "128", "--p", "5")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == "error: certificate d = 65 exceeds the bound 64\n"


@pytest.mark.parametrize(
    "overrides,what",
    [
        (
            {"target": {"type": "GL", "n": 2}, "h": [[1, 0], [0, 1], [0, 0]], "d_map": "identity"},
            "d_map cannot be a bijection: 6 source roots, 2 target roots",
        ),
        (
            {"source": {"type": "GL", "n": 2}, "h": [[1, 0, 0], [0, 1, 0]], "d_map": "identity"},
            "d_map cannot be a bijection: 2 source roots, 6 target roots",
        ),
        (
            {"source": {"type": "GL", "n": 2}, "h": [[1, 0, 0], [0, 1, 0]], "d_map": [0, 3]},
            "d_map cannot be a bijection: 2 source roots, 6 target roots",
        ),
        (
            {"h": [[1, 0], [0, 1]]},
            "h must be a 3 x 3 integer matrix (source rank x target rank), got 2 rows",
        ),
        (
            {"source": dict(_CUSTOM_SL2, pairing_denominator=0), "target": _CUSTOM_SL2},
            "custom-source: pairing denominator must be >= 1, got 0",
        ),
    ],
    ids=["GL3-to-GL2", "GL2-to-GL3", "GL2-to-GL3-list", "h-shape", "pairing-denominator"],
)
def test_isogeny_check_reports_data_that_validation_rejects_as_invalid(
    capsys, tmp_path, overrides, what
):
    path = _write_morphism(tmp_path, _gl3_identity_morphism(**overrides))
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert (code, out) == (1, "")
    assert err == f"usage error: invalid morphism data in {path}: {what}\n"


def test_isogeny_check_reports_a_malformed_custom_datum(capsys, tmp_path):
    source = {key: value for key, value in _CUSTOM_SL2.items() if key != "positive_roots"}
    path = _write_morphism(tmp_path, _gl3_identity_morphism(source=source))
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert (code, out) == (1, "")
    assert err == "usage error: malformed source datum description: 'positive_roots'\n"


def test_isogeny_check_zero_q_is_a_definite_negative_verdict(capsys, tmp_path):
    path = _write_morphism(tmp_path, _gl3_identity_morphism(q=0))
    code, payload = run_json(capsys, "isogeny-check", "--file", path, "--json")
    assert code == 0
    assert payload["result"]["valid"] is False
    failures = payload["result"]["failures"]
    assert len(failures) == 6
    assert {f["relation"] for f in failures} == {"q_positive"}


def test_isogeny_check_keeps_malformed_for_missing_keys(capsys, tmp_path):
    payload = _gl3_identity_morphism()
    del payload["h"]
    path = _write_morphism(tmp_path, payload)
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert (code, out) == (1, "")
    assert err == f"usage error: malformed morphism description in {path}: 'h'\n"


@pytest.mark.parametrize(
    "ring,message",
    [
        ({"kind": "zero", "p": 5}, "ring kind zero takes no prime, got p = 5"),
        ({"kind": "prime", "p": 5, "n": 3}, "ring kind prime takes no exponent, got n = 3"),
        ({"kind": "frob"}, "ring kind must be zero, prime or prime_power, got 'frob'"),
    ],
    ids=["zero-with-p", "prime-with-n", "unknown-kind"],
)
def test_isogeny_check_rejects_a_ring_field_its_kind_ignores(capsys, tmp_path, ring, message):
    # A field that the ring's kind ignores is an error, not dropped.
    path = _write_morphism(tmp_path, _gl3_identity_morphism(ring_char=ring))
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert (code, out) == (1, "")
    assert err == f"usage error: invalid morphism data in {path}: {message}\n"


def test_isogeny_check_keeps_malformed_for_a_ring_without_a_kind(capsys, tmp_path):
    path = _write_morphism(tmp_path, _gl3_identity_morphism(ring_char={"p": 5}))
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert (code, out) == (1, "")
    assert err == f"usage error: malformed morphism description in {path}: 'kind'\n"


def test_isogeny_check_oversized_ring_prime_is_a_one_line_error(capsys, tmp_path):
    path = _write_morphism(
        tmp_path, _gl3_identity_morphism(ring_char={"kind": "prime", "p": int(M61)})
    )
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "exceeds the trial-division bound" in err


def test_isogeny_check_oversized_q_is_inadmissible(capsys, tmp_path):
    path = _write_morphism(tmp_path, _gl3_identity_morphism(q=int(M61)))
    code, payload = run_json(capsys, "isogeny-check", "--file", path, "--json")
    assert code == 0
    assert payload["result"]["valid"] is False
    assert "q_admissible" in {f["relation"] for f in payload["result"]["failures"]}


@pytest.mark.parametrize(
    "overrides,what",
    [
        ({"source": {"type": "GL", "n": 2.7}}, "source n"),
        ({"h": [[5.9, 0, 0], [0, 5.2, 0], [0, 0, 5]]}, "h entry"),
        ({"q": [1, 1, 1, 1, 1, 1.0]}, "q entry"),
        ({"ring_char": {"kind": "prime", "p": 5.5}}, "ring_char p"),
        ({"ring_char": {"kind": "prime_power", "p": 5, "n": 2.0}}, "ring_char n"),
        ({"source": dict(_CUSTOM_SL2, rank=1.0)}, "source rank"),
        (
            {"source": dict(_CUSTOM_SL2, positive_roots=[{"vector": [2.0], "coroot": [1]}])},
            "source root vector entry",
        ),
        (
            {"target": dict(_CUSTOM_SL2, positive_roots=[{"vector": [2], "coroot": [True]}])},
            "target coroot entry",
        ),
        ({"source": dict(_CUSTOM_SL2, weyl_vector=[1.5])}, "source weyl_vector entry"),
        ({"source": dict(_CUSTOM_SL2, pairing_denominator=1.0)}, "source pairing_denominator"),
    ],
    ids=["n", "h", "q", "p", "exponent", "rank", "vector", "coroot", "weyl", "denominator"],
)
def test_isogeny_check_rejects_non_integer_numbers(capsys, tmp_path, overrides, what):
    path = _write_morphism(tmp_path, _gl3_identity_morphism(**overrides))
    code, out, err = run_cli(capsys, "isogeny-check", "--file", path)
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage error: {what} must be an integer, got ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["grassmann-check", "--d", "2", "--N", "1000000", "--p", "5"],
        ["h1", "--weight", ",".join(["0"] * 1025), "--p", "5"],
        ["bwb0", "--weight", ",".join(["0"] * 1025)],
        ["rigidity", "--type", "SO_even", "--n", "1000000", "--ring", "0", "--p", "5"],
        ["roots", "--type", "Sp", "--n", "65"],
    ],
    ids=["grassmann-check", "h1", "bwb0", "rigidity", "roots"],
)
def test_ranks_are_bounded(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "exceeds the bound" in err


def test_invalid_custom_datum_fails_cleanly_under_optimize(tmp_path):
    # <alpha, alpha^vee> = 1: not a root datum.  The check must survive
    # ``python -O``, which strips assert statements.
    path = _write_morphism(
        tmp_path,
        {
            "source": {
                "rank": 1,
                "positive_roots": [{"vector": [1], "coroot": [1]}],
                "simple_indices": [0],
            },
            "target": {"type": "GL", "n": 2},
            "h": [[1, 0]],
            "ring_char": {"kind": "zero"},
        },
    )
    src = os.path.dirname(os.path.dirname(charpflag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "charpflag", "isogeny-check", "--file", path],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "<alpha, alpha^vee> != 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_isogeny_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "isogeny-check", "--file", "/nonexistent.json")
    assert code == 1
    assert "cannot read" in err


def test_isogeny_check_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "isogeny-check", "--file", str(path))
    assert code == 1


@pytest.mark.parametrize("command", ["--batch", "isogeny-check --file"])
def test_a_file_that_is_not_utf8_is_a_one_line_error(capsys, tmp_path, command):
    path = tmp_path / "input.txt"
    path.write_bytes(b"h1 --weight 0,0,0,0 --p 5\n\xff\n")
    code, out, err = run_cli(capsys, *command.split(), str(path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("usage error: cannot read ")
    assert "Traceback" not in err and "integer" not in err


# ---------------------------------------------------------------------------
# batch mode and usage


def test_batch_mode_preserves_order_and_exit_code(capsys, tmp_path):
    batch = tmp_path / "queries.txt"
    batch.write_text(
        "\n".join(
            [
                "h1 --weight 0,0,0,0 --p 5 --json",
                "# a comment line",
                "grassmann-check --d 2 --N 6 --p 5 --json",
                "h1 --weight 0,2,0,0 --p 5 --json",
            ]
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 2  # one undetermined line
    lines = [json.loads(line) for line in out.splitlines()]
    assert [entry["command"] for entry in lines] == ["h1", "grassmann-check", "h1"]
    assert lines[0]["result"]["status"] == "zero"
    assert lines[2]["result"]["status"] == "undetermined"


def test_batch_usage_error_dominates(capsys, tmp_path):
    batch = tmp_path / "queries.txt"
    batch.write_text(
        "h1 --weight 0,0,0,0 --p 5 --json\ngrassmann-check --d 1 --N 4 --p 5\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 1
    assert "2 <= d" in err


def test_batch_line_error_does_not_stop_later_lines(capsys, tmp_path):
    batch = tmp_path / "queries.txt"
    batch.write_text(
        "rigidity --type GL --n 3 --ring p^0 --p 5\nh1 --weight 0,0,0,0 --p 5 --json\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 1
    assert err == "error: prime_power needs exponent >= 2, got 0\n"
    assert json.loads(out)["result"]["status"] == "zero"


def test_batch_accepts_the_equals_form(capsys, tmp_path):
    batch = tmp_path / "queries.txt"
    batch.write_text("h1 --weight 0,2,0,0 --p 5 --json\n", encoding="utf-8")
    spaced = run_cli(capsys, "--batch", str(batch))
    assert run_cli(capsys, f"--batch={batch}") == spaced
    assert spaced[0] == 2 and spaced[2] == ""
    code, _, err = run_cli(capsys, f"--batch={batch}", "extra")
    assert code == 1
    assert "exactly one file argument" in err


def test_no_subcommand_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "subcommand" in err


def test_unknown_flag_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "h1", "--weight", "1,0", "--p", "5", "--frobnicate")
    assert code == 1


def test_batch_option_is_not_abbreviated(capsys, tmp_path):
    batch = tmp_path / "queries.txt"
    batch.write_text("h1 --weight 0,0,0,0 --p 5\n", encoding="utf-8")
    for argv in (["--bat", str(batch)], [f"--bat={batch}"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("usage error: ")
        assert "subcommand is required" not in err
        assert err == "usage error: unrecognized option '--bat'\n"


def test_unknown_leading_option_is_named(capsys, tmp_path):
    assert run_cli(capsys, "--frob") == (1, "", "usage error: unrecognized option '--frob'\n")
    batch = tmp_path / "queries.txt"
    batch.write_text("--frob=1 h1 --weight 0,0 --p 5\nh1 --weight 0,0 --p 5\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert (code, err) == (1, "error: unrecognized option '--frob'\n")
    assert out.startswith("weight: (0, 0)")
    for argv in (["-x", "FILE"], ["-x=1", "h1"], ["-hx"]):
        assert run_cli(capsys, *argv) == (
            1,
            "",
            f"usage error: unrecognized option {argv[0].split('=')[0]!r}\n",
        )
    # A leading negative number, "-" and "--" are not options: argparse names them.
    for word in ("-5", "-", "--"):
        code, out, err = run_cli(capsys, word, "FILE")
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: argument command: invalid choice: {word!r}")


def test_a_leading_double_dash_before_a_subcommand_is_dropped(capsys, tmp_path):
    query = ["h1", "--weight", "0,0", "--p", "5"]
    expected = run_cli(capsys, *query)
    assert expected[0] == 0
    assert run_cli(capsys, "--", *query) == expected
    batch = tmp_path / "queries.txt"
    batch.write_text("-- h1 --weight 0,0 --p 5\n--\n-- bogus\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert (code, out) == (1, expected[1])
    assert err.splitlines() == [
        "error: unrecognized arguments: --",
        "error: argument command: invalid choice: '--' (choose from 'roots', 'h1', 'bwb0', "
        "'grassmann-check', 'isogeny-check', 'rigidity')",
    ]
    # "--" before anything but a subcommand keeps its messages.
    assert run_cli(capsys, "--") == (1, "", "usage error: unrecognized arguments: --\n")
    for rest in (["bogus"], ["--batch", "x"]):
        code, out, err = run_cli(capsys, "--", *rest)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: argument command: invalid choice: '--'")


def test_help_still_prints_usage(capsys):
    for argv in (["-h"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: charpflag")


def test_subcommand_options_still_take_prefixes(capsys):
    code, payload = run_json(capsys, "h1", "--weig", "0,0,0,0", "--p", "5", "--js")
    assert code == 0
    assert payload["result"]["status"] == "zero"


def test_nested_batch_line_is_an_error_and_the_next_line_runs(capsys, tmp_path):
    batch = tmp_path / "queries.txt"
    batch.write_text(
        "--batch x roots --type GL --n 2 --json\n"
        "--batch=x roots --type GL --n 2 --json\n"
        "h1 --weight 0,0 --p 5 --json\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 1
    assert err == "error: --batch cannot be used inside a batch file\n" * 2
    assert [json.loads(line)["command"] for line in out.splitlines()] == ["h1"]


def test_unclosed_quote_is_an_error_line_and_the_next_line_runs(capsys, tmp_path):
    batch = tmp_path / "queries.txt"
    batch.write_text(
        'h1 --weight "1,2 --p 5\nh1 --weight 0,0 --p 5 --json\nh1 --p 5 --weight 0\\\n',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 1
    assert err == (
        "error: cannot split batch line: No closing quotation\n"
        "error: cannot split batch line: No escaped character\n"
    )
    assert json.loads(out)["result"]["status"] == "zero"


def test_help_in_a_batch_line_is_an_error_and_the_next_line_runs(capsys, tmp_path):
    batch = tmp_path / "queries.txt"
    batch.write_text(
        "h1 --weight 0,0 --p 5\nh1 -h\nh1 --weight 0,2,0,0 --p 5\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 1
    assert err == "error: the following arguments are required: --weight, --p\n"
    assert out.startswith("weight: (0, 0)") and "weight: (0, 2, 0, 0)" in out
    assert "usage:" not in out
    batch.write_text(
        "h1 --weight 0,0 --p 5 -h\n"
        "h1 --weight 0,0 --p 5 --help\n"
        "h1 --weight 0,0 --p 5 --he\n"
        "-h\n"
        "--help\n"
        "h1 --weight 0,0 --p 5 --json\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 1
    assert err.splitlines() == [
        "error: unrecognized arguments: -h",
        "error: unrecognized arguments: --help",
        "error: unrecognized arguments: --he",
        "error: unrecognized option '-h'",
        "error: unrecognized option '--help'",
    ]
    assert json.loads(out)["result"]["status"] == "zero"


# ---------------------------------------------------------------------------
# batch tokenization and the one-parse path


@seed(20181028)
@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet="ab1,-= '\"\\#\t\n\r\xa0\x1f\u3000\x0b\x00", max_size=24))
def test_split_line_matches_shlex(line):
    try:
        expected = shlex.split(line)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            cli._split_line(line)
    else:
        assert cli._split_line(line) == expected


ONE_PARSE_CORPUS = [
    ["h1", "--weight", "1,2,3", "--p", "5"],
    ["h1", "--weight", "1,2,3", "--p", "5", "--json"],
    ["h1", "--weight", "-5,5,0", "--p", "5", "--N", "3"],
    ["h1", "--weig", "0,0", "--p", "5", "--js"],
    ["h1", "--weight=1,2", "--p=5", "--json"],
    ["h1", "--weight", "1,2", "--weight", "3,4", "--p", "5"],
    ["h1", "--json", "--json", "--weight", "0", "--p", "5"],
    ["h1", "--p", "5"],
    ["h1"],
    ["h1", "--weight"],
    ["h1", "--weight", "1,2", "--p", "5", "--N"],
    ["h1", "--weight", "1,2", "--p", "five"],
    ["h1", "--weight", "1,2", "--p", "-3"],
    ["h1", "--weight", "1,2", "--p", "5", "--frob"],
    ["h1", "--weight", "1,2", "--p", "5", "extra", "words"],
    ["h1", "--weight", "1,2", "--p", "5", "--"],
    ["h1", "--", "--weight", "1,2", "--p", "5"],
    ["h1", "--weight", "1,2", "--p", "5", "--batch", "x"],
    ["roots", "--type", "GL", "--n", "3"],
    ["roots", "--type", "GL"],
    ["roots", "--type", "GL", "--n", "3.5"],
    ["bwb0", "--weight", "4,2,1,0", "--N", "4", "--json"],
    ["grassmann-check", "--d", "2", "--N", "7", "--p", "5", "--json"],
    ["grassmann-check", "--d", "2", "--N", "7"],
    ["isogeny-check", "--file", "morphism.json"],
    ["isogeny-check", "--fil=morphism.json", "--json"],
    ["isogeny-check"],
    ["rigidity", "--type", "GL", "--n", "4", "--ring", "p^2", "--p", "5", "--p", "7"],
    ["rigidity", "--type=SL", "--n=3", "--ring=0", "--p=5", "--json"],
    ["rigidity", "--type", "GL", "--n", "4", "--ring", "p^2"],
]


def _parsed_or_error(parse, argv):
    try:
        namespace = vars(parse(argv))
    except cli.UsageError as exc:
        return f"UsageError: {exc}"
    namespace.pop("batch", None)
    return namespace


@pytest.mark.parametrize("argv", ONE_PARSE_CORPUS, ids=" ".join)
def test_subcommand_parse_matches_the_top_level_parse(argv):
    parser = cli.build_parser()
    direct = _parsed_or_error(lambda a: cli._parse_args(parser, a), argv)
    assert direct == _parsed_or_error(parser.parse_args, argv)


def test_quoted_and_escaped_batch_lines_print_the_same_bytes(capsys, tmp_path):
    plain = [
        "h1 --weight 1,2,3 --p 5 --json",
        "h1 --weight -5,5,0 --p 5 --json",
        "h1 --weight 0,2,0,0 --p 5 --json",
        "roots --type GL --n 2",
    ]
    quoted = [
        'h1 --weight "1,2,3" --p 5 --json',
        "h1 --weight '-5,5,0' --p 5 --json",
        "h1 --weight 0\\,2\\,0\\,0 --p 5\t--json",
        "roots '--type' GL --n \"2\"",
    ]
    outputs = []
    for lines in (plain, quoted):
        batch = tmp_path / "queries.txt"
        batch.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs.append(run_cli(capsys, "--batch", str(batch)))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 2 and outputs[0][2] == ""
    assert outputs[0][1].count("\n") == 7  # three envelopes, four roots lines


# ---------------------------------------------------------------------------
# the exact-option pass of _Parser.parse_args

# Option values of every kind argparse treats specially: dash-led words,
# "--", non-ASCII digits, underscores, signs, leading zeros, blanks.
EXACT_PASS_VALUES = [
    "5", "-5", "-", "--", "-x", "\u0663", "1_0", "+5", "07", "", "5 ", "1,2", "-5,5,0", "GL", "p^2",
]
_SUBPARSERS = cli.build_parser().subcommands


def _exact_pass_argv(parser):
    """Option words of ``parser`` in any order, each with or without a value.

    Every required option is there with a value (on half the lines all but
    one), so that the exact pass accepts a share of the lines.
    """
    value = st.sampled_from(EXACT_PASS_VALUES)
    required = [action.option_strings[0] for action in parser._actions if action.required]
    options = sorted(parser._option_string_actions)

    def argv(values, drop_one, extra, rng):
        pairs = [(name, v, True) for name, v in zip(required, values)][drop_one:] + extra
        rng.shuffle(pairs)
        return [word for name, v, valued in pairs for word in (name, v)[: 1 + valued]]

    return st.builds(
        argv,
        st.tuples(*[value for _ in required]),
        st.booleans(),
        st.lists(st.tuples(st.sampled_from(options), value, st.booleans()), max_size=3),
        st.randoms(use_true_random=False),
    )


@pytest.mark.parametrize("command", sorted(_SUBPARSERS))
@seed(20181028)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_exact_pass_builds_the_namespace_argparse_builds(command, data):
    sub = _SUBPARSERS[command]
    argv = data.draw(_exact_pass_argv(sub))
    exact = sub._parse_exact(argv)
    if exact is not None:
        assert vars(exact) == vars(argparse.ArgumentParser.parse_args(sub, argv))


def test_exact_pass_never_takes_the_top_level_parser():
    parser = cli.build_parser()
    for argv in (["h1", "--weight", "0", "--p", "5"], ["--batch", "x"], []):
        assert parser._parse_exact(argv) is None


def test_every_benchmark_line_shape_takes_the_exact_pass(capsys, tmp_path, monkeypatch):
    morphism = _write_morphism(tmp_path, _gl3_identity_morphism())
    lines = [
        "h1 --weight 1,2,3 --p 5",
        "h1 --weight -5,5,0,0 --p 5 --json",
        "h1 --weight 0,0,0 --p 7 --N 3 --json",
        "bwb0 --weight 4,2,1,0",
        "bwb0 --weight -3,7,0 --json",
        "roots --type GL --n 3",
        "roots --type SO_odd --n 2 --json",
        "rigidity --type Sp --n 2 --ring p^2 --p 5",
        "rigidity --type torus --n 2 --ring 0 --p 3 --json",
        "grassmann-check --d 2 --N 6 --p 5",
        "grassmann-check --d 2 --N 6 --p 7 --json",
        f"isogeny-check --file {morphism}",
        f"isogeny-check --file {morphism} --json",
    ]
    batch = tmp_path / "queries.txt"
    batch.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = run_cli(capsys, "--batch", str(batch))
    assert expected[2] == "" and expected[1].count("{") >= 6

    def general_parse(self, args=None, namespace=None):
        raise AssertionError(f"argparse parsed {args!r}")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", general_parse)
    assert run_cli(capsys, "--batch", str(batch)) == expected
    # The fallback still runs through argparse: this line is not exact.
    with pytest.raises(AssertionError, match="argparse parsed"):
        main(["h1", "--weig", "0", "--p", "5"])
