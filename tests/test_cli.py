import json
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from k3mukai.cli import MAX_GRID_POINTS, main
from k3mukai.segre_verlinde import SegreParams, VerlindeParams, segre_number, verlinde_number
from k3mukai.lattice import (
    hilbert_scheme_vector,
    k3_lattice,
    mukai_vector_to_json,
    point_class,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out else None, err


def test_segre_command(capsys):
    code, doc, _ = run_json(
        capsys, "segre", "--rho", "1", "--s", "1", "--c2", "3", "--c1sq", "0", "--n", "2"
    )
    assert code == 0
    assert doc == {"value": "3"}


def test_segre_rational_s(capsys):
    code, doc, _ = run_json(
        capsys, "segre", "--rho", "2", "--s", "1/2", "--c2", "1", "--c1sq", "0", "--n", "1"
    )
    assert code == 0
    assert "/" in doc["value"] or doc["value"].lstrip("-").isdigit()


def test_verlinde_command(capsys):
    code, doc, _ = run_json(
        capsys, "verlinde", "--rho", "1", "--r", "0", "--chiL", "3", "--n", "2"
    )
    assert code == 0
    assert doc == {"value": "6"}


def test_check_sv_command(capsys):
    code, doc, _ = run_json(capsys, "check-sv", "--rho", "2", "--r", "1", "--order", "12")
    assert code == 0
    assert doc["g_identity"] is True
    assert doc["f_identity"] is True
    assert doc["first_discrepant_order"] is None


def test_check_sv_at_a_huge_order(capsys):
    code, out, _ = run_cli(capsys, "check-sv", "--rho", "3", "--r", "2", "--order", "1000000")
    assert code == 0
    assert out == ('{"f_identity": true, "first_discrepant_order": null, "g_identity": true, '
                   '"order": 1000000, "r": 2, "rho": 3}\n')


@pytest.mark.parametrize("argv", [
    ("check-sv", "--rho", "1", "--r", "0", "--order", "0"),
    ("check-sv", "--rho", "1", "--r", "0", "--order", "-1"),
    ("sweep", "check-sv", "--rho", "1", "--r", "0", "--order", "0"),
])
def test_check_sv_bad_order_is_input_error(capsys, argv):
    assert run_cli(capsys, *argv) == (2, "", "error: order must be at least 1\n")


def test_check_sv_failure_maps_to_exit_one(capsys, monkeypatch):
    import k3mukai.cli as cli
    from k3mukai.segre_verlinde import CorrespondenceReport

    def fake_check(rho, r, order):
        return CorrespondenceReport(rho, r, order, True, False, 3)

    monkeypatch.setattr(cli, "check_correspondence", fake_check)
    code, doc, _ = run_json(capsys, "check-sv", "--rho", "2", "--r", "1")
    assert code == 1
    assert doc["f_identity"] is False
    assert doc["first_discrepant_order"] == 3


def test_reduce_command(capsys):
    code, doc, _ = run_json(
        capsys,
        "reduce", "--rho", "2", "--n", "3", "--alpha", "2,4,5,3", "--Lsq", "6", "--u", "1",
    )
    assert code == 0
    assert doc["beta"] == {"rank": "1", "c1sq": "4", "c1L": "5", "v2": "6"}
    assert doc["u_prime"] == "2"
    assert doc["warnings"] == []


def test_reduce_from_input_file(capsys, tmp_path):
    payload = {
        "rho": 3,
        "n": 2,
        "alpha": {"rank": "2", "c1sq": "4", "c1L": "0", "v2": "1"},
        "Lsq": "0",
        "u": "1/2",
    }
    path = tmp_path / "moduli.json"
    path.write_text(json.dumps(payload))
    code, doc, _ = run_json(capsys, "reduce", "--input", str(path))
    assert code == 0
    assert doc["beta"]["rank"] == "2/3"
    assert doc["u_prime"] == "3/2"
    assert doc["warnings"]


def test_dim2_command(capsys):
    code, doc, _ = run_json(
        capsys, "dim2", "--rho", "2", "--alpha", "2,0,0,0", "--Lsq", "0", "--u", "0"
    )
    assert code == 0
    assert doc == {"value": "1"}


def test_fingerprint_command(capsys, tmp_path):
    v = hilbert_scheme_vector(k3_lattice(), 5)
    p = point_class(k3_lattice())
    payload = {"v": mukai_vector_to_json(v), "xs": [mukai_vector_to_json(p)]}
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps(payload))
    code, doc, _ = run_json(capsys, "fingerprint", "--input", str(path))
    assert code == 0
    assert doc["fingerprint"] == [["8", "-1"], ["-1", "0"]]


def test_span_reduce_command(capsys, tmp_path):
    space = k3_lattice()
    v = hilbert_scheme_vector(space, 3)
    isotropic = {"rank": "0", "c1": ["1"] + ["0"] * 21, "v2": "0", "space": "k3"}
    payload = {"v": mukai_vector_to_json(v), "xs": [isotropic]}
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps(payload))
    code, doc, _ = run_json(capsys, "span-reduce", "--input", str(path))
    assert code == 0
    assert doc["fingerprint"] == [["4", "0"], ["0", "0"]]
    assert doc["gram_rank"] == doc["span_dim"] == 1
    assert all(coord == "0" for coord in doc["ys"][0]["c1"])


def test_sweep_check_sv(capsys):
    code, doc, _ = run_json(
        capsys, "sweep", "check-sv", "--rho", "1:2", "--r", "-1:1", "--order", "8"
    )
    assert code == 0
    assert doc["total"] == 6
    assert doc["all_ok"] is True
    assert doc["failures"] == []


def test_sweep_cross_check(capsys):
    code, doc, _ = run_json(
        capsys, "sweep", "cross-check", "--rho", "1:2", "--s", "1:2",
        "--c2", "-1:1", "--c1sq", "-2:2:2",
    )
    assert code == 0
    assert doc["total"] == 2 * 2 * 3 * 3
    assert doc["all_ok"] is True


def test_sweep_starts_no_process(capsys, monkeypatch):
    import concurrent.futures
    import os
    import threading

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep must run in the calling process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, doc, _ = run_json(capsys, "sweep", "check-sv", "--rho", "1:4", "--r", "-3:3",
                            "--order", "12")
    assert (code, doc["total"], doc["all_ok"]) == (0, 28, True)


def test_sweep_empty_grid(capsys):
    code, doc, _ = run_json(capsys, "sweep", "check-sv", "--rho", "1:0", "--r", "0:3")
    assert code == 0
    assert doc == {
        "all_ok": True, "command": "check-sv", "failures": [], "points": [], "total": 0,
    }


def _failing_report(rho, r, order):
    from k3mukai.segre_verlinde import CorrespondenceReport

    return CorrespondenceReport(rho, r, order, True, False, 3)


@pytest.mark.parametrize("target, name, grid, bad, failing, verdict", [
    ("check-sv", "check_correspondence", ["--rho", "1:2", "--r", "-1:1", "--order", "8"],
     {"rho": 2, "r": 0, "order": 8}, _failing_report,
     {"g_identity": True, "f_identity": False, "first_discrepant_order": 3}),
    ("cross-check", "segre_cross_check",
     ["--rho", "1:2", "--s", "1:2", "--c2", "-1:1", "--c1sq", "0"],
     {"rho": 2, "s": 1, "c2": 0, "c1sq": 0}, lambda *point: False, {}),
], ids=["check-sv", "cross-check"])
def test_sweep_failure_maps_to_exit_one(capsys, monkeypatch, target, name, grid, bad,
                                        failing, verdict):
    import k3mukai.cli as cli

    code, passing, _ = run_json(capsys, "sweep", target, *grid)
    assert (code, passing["all_ok"]) == (0, True)
    real, bad_point = getattr(cli, name), tuple(bad.values())
    monkeypatch.setattr(
        cli, name, lambda *point: (failing if point == bad_point else real)(*point))
    code, doc, _ = run_json(capsys, "sweep", target, *grid)
    failure = {**bad, **verdict, "ok": False}
    assert code == 1
    assert (doc["all_ok"], doc["failures"]) == (False, [failure])
    assert doc["total"] == passing["total"]
    # the same points in the same order, with only the bad one changed
    at_bad = [{key: point[key] for key in bad} == bad for point in passing["points"]]
    assert at_bad.count(True) == 1
    assert doc["points"] == [failure if hit else point
                             for hit, point in zip(at_bad, passing["points"])]


def test_usage_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "segre", "--rho", "1")
    assert code == 2
    assert out == ""
    assert err


def test_invalid_value_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "segre", "--rho", "0", "--s", "1", "--c2", "1", "--c1sq", "0", "--n", "1"
    )
    assert code == 2
    assert "error:" in err


def test_missing_input_file_exit_code(capsys, tmp_path):
    code, out, err = run_cli(capsys, "fingerprint", "--input", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def _input_error(capsys, tmp_path, command, payload):
    _input_text_error(capsys, tmp_path, command, json.dumps(payload))


def _input_text_error(capsys, tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, key, opener, closer", [
    ("fingerprint", "v", "[", "]"),
    ("span-reduce", "v", "[", "]"),
    ("reduce", "alpha", '{"a": ', "}"),
    ("dim2", "alpha", '{"a": ', "}"),
], ids=["fingerprint", "span-reduce", "reduce", "dim2"])
def test_deeply_nested_input_is_input_error(capsys, tmp_path, command, key, opener, closer):
    # json.load recurses once per level and raises RecursionError
    text = f'{{"{key}": ' + opener * 100_000 + "0" + closer * 100_000 + "}"
    _input_text_error(capsys, tmp_path, command, text)


def test_reduce_input_zero_denominator_is_input_error(capsys, tmp_path):
    payload = {
        "rho": 3,
        "n": 2,
        "alpha": {"rank": "1/0", "c1sq": "4", "c1L": "0", "v2": "1"},
        "Lsq": "0",
        "u": "0",
    }
    _input_error(capsys, tmp_path, "reduce", payload)


def test_fingerprint_input_top_level_list_is_input_error(capsys, tmp_path):
    _input_error(capsys, tmp_path, "fingerprint", [1, 2, 3])


def test_fingerprint_input_scalar_c1_is_input_error(capsys, tmp_path):
    v = {"rank": "1", "c1": 5, "v2": "0", "space": "k3"}
    _input_error(capsys, tmp_path, "fingerprint", {"v": v, "xs": []})


def _moduli_payload(**changes):
    payload = {
        "rho": 2, "n": 2, "alpha": {"rank": "1", "c1sq": "4", "c1L": "0", "v2": "1"},
        "Lsq": "0", "u": "0",
    }
    payload.update(changes)
    return payload


def _vector_payload(rank="1"):
    return {"rank": rank, "c1": ["0"] * 22, "v2": "-2", "space": "k3"}


def test_reduce_input_float_rho_is_input_error(capsys, tmp_path):
    # int(2.7) would silently run as rho = 2
    _input_error(capsys, tmp_path, "reduce", _moduli_payload(rho=2.7))


def test_reduce_input_rational_string_rho_is_input_error(capsys, tmp_path):
    _input_error(capsys, tmp_path, "reduce", _moduli_payload(rho="5/2"))


def test_fingerprint_input_float_rank_is_input_error(capsys, tmp_path):
    # Fraction(0.1) would print 3602879701896397/18014398509481984
    _input_error(capsys, tmp_path, "fingerprint", {"v": _vector_payload(rank=0.1), "xs": []})


def test_fingerprint_input_bool_rank_is_input_error(capsys, tmp_path):
    # True would be read as 1
    _input_error(capsys, tmp_path, "fingerprint", {"v": _vector_payload(rank=True), "xs": []})


def test_fingerprint_input_xs_object_is_input_error(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"v": _vector_payload(), "xs": {"a": 1}}))
    code, out, err = run_cli(capsys, "fingerprint", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: xs must be a list of Mukai vector objects\n"


@pytest.mark.parametrize("command", ["fingerprint", "span-reduce"])
@pytest.mark.parametrize("space", [
    {"gram": "1"}, {"gram": ["1"]}, {"gram": {"1": 0}}, {"gram": 1}, {"gram": [["1"], 1]},
    {}, [["1"]], "U",
], ids=["text", "list-of-text", "object", "number", "mixed-rows", "no-gram", "list", "name"])
def test_vector_input_malformed_gram_is_input_error(capsys, tmp_path, command, space):
    # the first three once loaded as [[1]], and fingerprint printed [["2"]]
    path = tmp_path / "input.json"
    v = {"rank": "1", "c1": ["0"], "v2": "-1", "space": space}
    path.write_text(json.dumps({"v": v, "xs": []}))
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == 'error: space must be "k3" or an object whose gram is a list of lists\n'


@pytest.mark.parametrize("command", ["fingerprint", "span-reduce"])
@pytest.mark.parametrize("key", ["v", "rank", "v2", "space"])
def test_vector_input_missing_key_is_named(capsys, tmp_path, command, key):
    doc = {"v": _vector_payload(), "xs": [_vector_payload()]}
    if key == "v":
        del doc["v"]
        expected = "error: the input is missing the key 'v'\n"
    else:
        del doc["xs"][0][key]
        expected = f"error: a Mukai vector is missing the key '{key}'\n"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, command, "--input", str(path)) == (2, "", expected)


@pytest.mark.parametrize("command", ["reduce", "dim2"])
@pytest.mark.parametrize("key", ["rho", "n", "alpha", "Lsq", "u", "rank", "c1sq", "c1L", "v2"])
def test_moduli_input_missing_key_is_named(capsys, tmp_path, command, key):
    # these once printed the bare key, as in "error: 'rho'"
    doc = _moduli_payload()
    if key in doc:
        del doc[key]
        expected = f"error: the input is missing the key '{key}'\n"
    else:
        del doc["alpha"][key]
        expected = f"error: alpha is missing the key '{key}'\n"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, command, "--input", str(path)) == (2, "", expected)


@pytest.mark.parametrize("command", ["reduce", "dim2"])
@pytest.mark.parametrize("alpha", [[1], "1", 1, None], ids=["list", "text", "number", "null"])
def test_moduli_input_alpha_not_an_object_is_input_error(capsys, tmp_path, command, alpha):
    # a list once printed "error: list indices must be integers or slices, not str"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_moduli_payload(alpha=alpha)))
    expected = "error: alpha must be a JSON object\n"
    assert run_cli(capsys, command, "--input", str(path)) == (2, "", expected)


def test_exponent_strings_are_input_errors(capsys, tmp_path):
    # Fraction("1e999999999") would build a billion-digit integer first
    big, tiny = "1e999999999", "1e-999999999"
    _input_error(capsys, tmp_path, "fingerprint", {"v": _vector_payload(rank=big), "xs": []})
    _input_error(capsys, tmp_path, "reduce", _moduli_payload(u=tiny))
    for argv in (["reduce", "--rho", "2", "--alpha", f"1,0,0,{big}"],
                 ["reduce", "--rho", "2", "--alpha", "1,0,0,1", "--u", tiny],
                 ["segre", "--rho", "1", "--s", big, "--c2", "3", "--c1sq", "0", "--n", "2"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


def test_json_integers_and_rational_strings_are_accepted(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_moduli_payload(rho="2", n=2, Lsq=3, u="-1/2")))
    code, doc, _ = run_json(capsys, "reduce", "--input", str(path))
    assert code == 0 and doc["u_prime"] == "-1"
    path.write_text(json.dumps({"v": _vector_payload(rank=2), "xs": [_vector_payload("1/3")]}))
    code, doc, _ = run_json(capsys, "fingerprint", "--input", str(path))
    assert code == 0 and doc["fingerprint"] == [["8", "14/3"], ["14/3", "4/3"]]


def test_argument_errors_are_one_line(capsys):
    code, out, err = run_cli(capsys, "sweep", "check-sv", "--rho", "1:2:3:4")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("grid", [
    "0:10000000000", "-1" + "0" * 40 + ":0", "1:3,0:99999", "0:10000000000:2",
])
def test_huge_grid_is_refused_before_expansion(capsys, grid):
    # sized from the endpoints: expanding 0:10000000000 would exhaust memory
    code, out, err = run_cli(capsys, "sweep", "check-sv", f"--rho={grid}", "--r=")
    assert (code, out) == (2, "")
    assert err == f"error: argument --rho: a grid may have at most {MAX_GRID_POINTS} points\n"


def test_huge_sweep_product_is_refused(capsys):
    code, out, err = run_cli(capsys, "sweep", "cross-check", "--rho", "1:100", "--s", "1:100",
                             "--c2", "1:100", "--c1sq", "0")
    assert (code, out) == (2, "")
    assert err == f"error: a sweep may have at most {MAX_GRID_POINTS} points\n"


def test_grid_at_the_cap_is_accepted(capsys):
    grid = f"1:{MAX_GRID_POINTS}"
    code, doc, _ = run_json(capsys, "sweep", "check-sv", f"--rho={grid}", "--r=")
    assert (code, doc["total"]) == (0, 0)


def test_lone_double_dash_value_is_input_error(capsys):
    # Python 3.11's argparse turns "--alpha=--" into an empty list
    code, out, err = run_cli(capsys, "reduce", "--rho", "2", "--alpha=--")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # a typo for --s, a grid the target never reads, a missing grid, a
    # flag only check-sv reads, and value flags next to --input
    ["sweep", "cross-check", "--rho", "1:4", "--r", "0:3", "--c2", "0", "--c1sq", "0"],
    ["sweep", "check-sv", "--rho", "1:2", "--s", "0:3"],
    ["sweep", "cross-check", "--rho", "1:4", "--c2", "0", "--c1sq", "0"],
    ["sweep", "cross-check", "--rho", "1:2", "--s", "1", "--c2", "0", "--c1sq", "0",
     "--order", "5"],
    ["reduce", "--input", "MODULI", "--u", "7", "--rho", "5"],
    ["dim2", "--input", "MODULI", "--Lsq", "0"],
], ids=["typo-r-for-s", "check-sv-with-s", "missing-s", "cross-check-order",
        "reduce-input-and-flags", "dim2-input-and-flag"])
def test_no_flag_is_silently_ignored(capsys, tmp_path, argv):
    # each exited 0 once: a sweep over an empty product or a reduction that
    # dropped the flags; the file alone is accepted
    moduli = tmp_path / "moduli.json"
    moduli.write_text(json.dumps(_moduli_payload(n=1)))
    argv = [str(moduli) if a == "MODULI" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    if "--input" in argv:
        assert run_cli(capsys, *argv[:3])[0] == 0


def test_numbers_have_no_order_flag(capsys):
    # removed flags are usage errors; sweeps have no --jobs either
    for argv in (
        ["segre", "--rho", "1", "--s", "1", "--c2", "3", "--c1sq", "0", "--n", "2",
         "--order", "6"],
        ["verlinde", "--rho", "1", "--r", "0", "--chiL", "3", "--n", "2", "--order", "6"],
        ["sweep", "check-sv", "--rho", "1:2", "--r", "0", "--jobs", "2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--rho", "--r", "--s", "--c2", "--c1sq", "--order"])
def test_a_grid_flag_before_the_sweep_target_is_named(capsys, flag):
    # argparse took the flag's value for the target: "invalid choice: '1'"
    for argv in (["sweep", flag, "1", "check-sv", "--rho", "1", "--r", "0"],
                 ["sweep", f"{flag}=1", "cross-check", "--rho", "1", "--s", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: argument {flag}: it goes after the sweep target"
                       " (check-sv or cross-check)\n")


def _plain_doc(out):
    pairs = (line.split("=", 1) for line in out.splitlines())
    return {key: json.loads(value) for key, value in pairs}


def test_exact_output_past_the_int_digit_cap(capsys, tmp_path):
    # Python caps int-to-decimal conversion at 4300 digits by default; the
    # output lifts it for its own values only, and input parsing keeps it
    cap = sys.get_int_max_str_digits()
    big = "7" * 3000  # accepted input whose pairing with itself has 6001 digits
    vectors = tmp_path / "vectors.json"
    vectors.write_text(json.dumps({"v": {**_vector_payload(big), "v2": big}, "xs": []}))
    cases = [
        (["segre", "--rho", "2", "--s", "3", "--c2", "2", "--c1sq", "4", "--n", "6000"],
         lambda doc: doc["value"], lambda: segre_number(SegreParams(2, 3, 2, 4, 6000))),
        (["verlinde", "--rho", "1", "--r", "30", "--chiL", "5", "--n", "3000"],
         lambda doc: doc["value"], lambda: verlinde_number(VerlindeParams(1, 30, 5, 3000))),
        (["fingerprint", "--input", str(vectors)],
         lambda doc: doc["fingerprint"][0][0], lambda: -2 * int(big) ** 2),
    ]
    for argv, read, value in cases:
        for fmt, parse in (("json", json.loads), ("plain", _plain_doc)):
            code, out, err = run_cli(capsys, "--format", fmt, *argv)
            assert (code, err) == (0, ""), argv
            assert sys.get_int_max_str_digits() == cap
            text = read(parse(out))
            assert len(text) > 4300, argv
            sys.set_int_max_str_digits(0)
            try:
                assert Fraction(text) == value(), argv
            finally:
                sys.set_int_max_str_digits(cap)
    digits = "1" * 4301
    as_number, as_string = tmp_path / "number.json", tmp_path / "string.json"
    as_number.write_text(json.dumps(_moduli_payload(Lsq="L")).replace('"L"', digits))
    as_string.write_text(json.dumps(_moduli_payload(Lsq=digits)))
    for argv in (["segre", "--rho", "1", "--s", "1", "--c2", digits, "--c1sq", "0", "--n", "1"],
                 ["segre", "--rho", "1", "--s", digits, "--c2", "0", "--c1sq", "0", "--n", "1"],
                 ["reduce", "--input", str(as_number)], ["reduce", "--input", str(as_string)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


def test_output_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "check-sv", "--rho", "3", "--r", "2", "--order", "10")
    _, second, _ = run_cli(capsys, "check-sv", "--rho", "3", "--r", "2", "--order", "10")
    assert first == second


def test_plain_format(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "plain",
        "segre", "--rho", "1", "--s", "1", "--c2", "3", "--c1sq", "0", "--n", "2",
    )
    assert code == 0
    assert out == 'value="3"\n'


def test_module_entry_point_matches_main(capsys):
    import os
    import subprocess
    import sys

    def run_module(*argv):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        ran = subprocess.run([sys.executable, "-m", "k3mukai", *argv],
                             capture_output=True, env=env, check=False)
        return ran.returncode, ran.stdout, ran.stderr.decode()

    argv = ["segre", "--rho", "2", "--s", "1/2", "--c2", "1", "--c1sq", "2", "--n", "3"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert run_module(*argv) == (0, out.encode(), "")
    code, out, err = run_module("segre", "--rho", "1", "--s", "1/0", "--c2", "3",
                                "--c1sq", "0", "--n", "2")
    assert (code, out) == (2, b"")
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_a_failed_write_is_one_error_line(capsys, monkeypatch):
    import sys

    def broken_pipe(text):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys.stdout, "write", broken_pipe)
    code = main(["check-sv", "--rho", "3", "--r", "2"])
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: [Errno 32] Broken pipe\n"


def _every_command_argv(tmp_path):
    """Successes of every command, in both formats, with input errors between them."""
    moduli = tmp_path / "moduli.json"
    moduli.write_text(json.dumps(_moduli_payload()))
    space = k3_lattice()
    vectors = tmp_path / "vectors.json"
    vectors.write_text(json.dumps({
        "v": mukai_vector_to_json(hilbert_scheme_vector(space, 3)),
        "xs": [mukai_vector_to_json(point_class(space))],
    }))
    return [
        ["segre", "--rho", "2", "--s", "1/2", "--c2", "1", "--c1sq", "2", "--n", "3"],
        ["segre", "--rho", "1"],
        ["--format", "plain", "verlinde", "--rho", "2", "--r", "1", "--chiL", "3", "--n", "2"],
        ["reduce", "--rho", "2", "--alpha=--"],
        ["check-sv", "--rho", "3", "--r", "2"],
        ["no-such-command"],
        ["reduce", "--rho", "2", "--n", "3", "--alpha", "2,4,5,3", "--Lsq", "6", "--u", "1"],
        ["segre", "--rho", "1", "--s", "1/0", "--c2", "3", "--c1sq", "0", "--n", "2"],
        ["--format", "plain", "reduce", "--input", str(moduli)],
        ["check-sv", "--rho", "1", "--r", "0", "--order", "0"],
        ["dim2", "--rho", "2", "--alpha", "2,0,0,0"],
        ["fingerprint", "--input", str(vectors)],
        ["--format", "plain", "span-reduce", "--input", str(vectors)],
        ["sweep", "check-sv", "--rho", "1:2", "--r", "-1:1", "--order", "8"],
        ["sweep", "check-sv", "--rho", "1:3"],
        ["--format", "plain", "sweep", "cross-check", "--rho", "1:2", "--s", "1,2",
         "--c2", "0", "--c1sq", "-2:2:2"],
        ["segre", "--help"],
    ]


def test_warm_parser_matches_a_fresh_parser(capsys, tmp_path):
    from k3mukai.cli import build_parser

    argvs = _every_command_argv(tmp_path)
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert {code for code, _, _ in fresh} == {0, 2}
    for _ in range(3):
        assert [run_cli(capsys, *argv) for argv in argvs] == fresh


def test_main_builds_no_parser_after_the_first_call(capsys, tmp_path, monkeypatch):
    import argparse

    argvs = _every_command_argv(tmp_path)
    expected = [run_cli(capsys, *argv) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("the parser must be built once per process")

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", refuse)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", refuse)
    assert [run_cli(capsys, *argv) for argv in argvs] == expected


# -- the README's examples ------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def readme_commands() -> list[str]:
    """Every `k3mukai ...` line inside a fenced block of README.md."""
    commands, fenced = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("k3mukai "):
            commands.append(line)
    return commands


def test_readme_has_cli_examples():
    assert len(readme_commands()) >= 9


@pytest.mark.parametrize("command", readme_commands())
def test_readme_cli_example_runs(capsys, monkeypatch, command):
    monkeypatch.chdir(ROOT)  # example inputs are named relative to the root
    code, out, err = run_cli(capsys, *shlex.split(command)[1:])
    assert (code, err) == (0, "")
    json.loads(out)
