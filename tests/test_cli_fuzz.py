"""Fuzzing of the CLI input boundary.

Whatever the argument text or JSON document, `main` must exit 0 or 2 (never
1, which means "verification failed", and never with a traceback) and write
at most one line to standard error.  Sweeps here run with an empty second
grid, so they evaluate no point.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from k3mukai.cli import main

FUZZ = settings(max_examples=60, deadline=None)

# short raw text keeps grid ranges like "0:9999" small
raw_text = st.text(alphabet="0123456789-+:,/. eajx\n", max_size=6)
small_int = st.integers(min_value=-20, max_value=20)
denominator = st.integers(min_value=-3, max_value=5)
fraction_text = st.builds(lambda p, q: f"{p}/{q}", small_int, denominator)
# exponents of any size must be refused before Fraction expands them
exponent_text = st.builds(lambda p, e: f"{p}e{e}", small_int,
                          st.integers(min_value=-10**9, max_value=10**9))
rational_text = st.one_of(small_int.map(str), fraction_text, exponent_text, raw_text)
grid_piece = st.one_of(
    small_int.map(str),
    st.builds(lambda a, b: f"{a}:{b}", small_int, small_int),
    st.builds(lambda a, b, c: f"{a}:{b}:{c}", small_int, small_int, small_int),
    raw_text,
)
json_scalar = st.one_of(
    st.none(), st.booleans(), small_int, st.floats(allow_nan=True), rational_text,
)
json_value = st.recursive(
    json_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["rank", "c1", "v2", "space", "gram", "a"]), inner,
                        max_size=3),
    ),
    max_leaves=8,
)
# mostly well-formed, so that valid documents reach the computation too
number = st.one_of(small_int, fraction_text, small_int, fraction_text, json_scalar, json_value)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = err.getvalue()
    assert code in (0, 2), (argv, code, text)
    assert text == "" or (text.count("\n") == 1 and text.endswith("\n")), (argv, text)
    if code == 0:
        json.loads(out.getvalue())
    return code


def run_with_input(tmp_path_factory, command, doc):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc))
    return run([command, "--input", str(path)])


@FUZZ
@given(st.one_of(raw_text, st.lists(grid_piece, max_size=4).map(",".join)))
def test_fuzz_parse_grid(text):
    run(["sweep", "check-sv", f"--rho={text}", "--r="])


@FUZZ
@given(st.one_of(raw_text, st.lists(rational_text, min_size=3, max_size=5).map(",".join)))
def test_fuzz_parse_alpha(text):
    run(["reduce", "--rho", "2", "--n", "3", f"--alpha={text}"])
    run(["dim2", "--rho", "1", f"--alpha={text}"])


def vector_doc():
    entries = st.sampled_from([0, 0, 0, 1, -1, "1/2", "-2"])
    c1 = st.one_of(st.lists(entries, min_size=22, max_size=22),
                   st.lists(entries, min_size=22, max_size=22), json_value)
    gram = st.one_of(
        st.just({"gram": [["0", "1"], ["1", "0"]]}),
        st.fixed_dictionaries({"gram": st.lists(st.lists(number, max_size=2), max_size=2)}),
        json_value,
    )
    vector = st.fixed_dictionaries({
        "rank": number, "c1": c1, "v2": number, "space": st.one_of(st.just("k3"), gram),
    })
    return st.one_of(vector, vector, json_value)


@FUZZ
@given(st.sampled_from(["fingerprint", "span-reduce"]),
       st.one_of(st.fixed_dictionaries({
           "v": vector_doc(), "xs": st.one_of(st.lists(vector_doc(), max_size=2), json_value),
       }), json_value))
def test_fuzz_vector_json_loader(tmp_path_factory, command, doc):
    run_with_input(tmp_path_factory, command, doc)


@FUZZ
@given(st.sampled_from(["reduce", "dim2"]),
       st.one_of(st.fixed_dictionaries({
           "rho": number, "n": number, "Lsq": number, "u": number,
           "alpha": st.one_of(
               st.fixed_dictionaries({"rank": number, "c1sq": number, "c1L": number,
                                      "v2": number}),
               json_value),
       }), json_value))
def test_fuzz_moduli_json_loader(tmp_path_factory, command, doc):
    run_with_input(tmp_path_factory, command, doc)
