"""The CLI's exit-code contract under generated inputs.

Whatever the matrix file, state string or flag value, ``bosonsim`` exits 0,
2 or 3, lets no exception escape, prints nothing on stderr when it succeeds
and exactly one ``error:`` line when it fails.  Argparse's own usage errors
are not part of the contract, so every generated flag is one argparse accepts
(``--flag=value`` keeps values such as ``-inf`` from reading as options).
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from bosonsim.cli import main
from bosonsim.transforms import matrix_to_jsonable, random_haar_unitary

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

UNITARIES = {
    1: [np.eye(1)],
    2: [np.array([[1, 1], [1, -1]]) / np.sqrt(2)],
    3: [np.eye(3)[[2, 0, 1]], random_haar_unitary(3, seed=4)],
}

# huge integers, first in double range, then past it
HUGE = st.one_of(st.integers(10**300, 10**308), st.integers(2 * 10**308, 10**320))
# JSON number tokens and the literals Python's json accepts where a number goes
NUMBER = st.one_of(
    st.integers(-2, 2).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    HUGE.map(str),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "true", "false", "null", '"1"', "[]"]),
)
# occupations of 10-30 are valid but cost up to minutes of Glynn steps, so the
# generated photon numbers stay small or go past the size guard
OCCUPATION = st.one_of(st.integers(0, 3), st.integers(31, 40), HUGE)
TOLS = st.one_of(st.floats().map(repr), st.sampled_from(["1e-10", "1e-400", "1e400"]))
# basis photon numbers up to 30 000: in two modes half of them past 10 000, where
# building the basis once took seconds to minutes; in three modes n > 1412 exceeds
# the default cap, and the 29 161 to 10^6 states in between are left out for their cost
BASIS_N = {1: st.integers(0, 30_000),
           2: st.one_of(st.integers(0, 300), st.integers(10_000, 30_000)),
           3: st.one_of(st.integers(0, 240), st.integers(1413, 30_000))}
CAPS = st.one_of(st.integers(-3, 100), st.integers(10**6, 10**30))
# counts of 2^44 and more ask for over 128 TiB and fail at once; those between
# would really be allocated
COUNTS = st.one_of(st.integers(-3, 300), st.integers(10**15, 10**30))
SEEDS = st.one_of(st.integers(-3, 2**64), st.integers(2**64, 10**40))
FLAGS = {
    "permanent": ["--naive"],
    "amplitude": ["--fermion"],
    "distribution": ["--fermion", "--format=csv"],
    "expect": ["--fermion"],
}


def _matrix_text(d, rows):
    return f'{{"d": {d}, "matrix": [{", ".join("[" + ", ".join(r) + "]" for r in rows)}]}}'


@st.composite
def matrix_texts(draw, d):
    # unitaries weigh triple: only they reach the commands' own input checks
    kind = draw(st.sampled_from(["unitary"] * 3 + ["square", "loose", "text", "deep"]))
    if kind == "unitary":
        return json.dumps(matrix_to_jsonable(draw(st.sampled_from(UNITARIES[d]))))
    if kind == "square":  # the right shape, any entries
        pair = st.tuples(NUMBER, NUMBER).map(lambda p: f"[{p[0]}, {p[1]}]")
        return _matrix_text(d, [[draw(pair) for _ in range(d)] for _ in range(d)])
    if kind == "loose":  # wrong d, ragged rows, entries of any length
        entry = NUMBER | st.lists(NUMBER, max_size=3).map(lambda xs: f"[{', '.join(xs)}]")
        rows = draw(st.lists(st.lists(entry, max_size=3), max_size=3))
        return _matrix_text(draw(NUMBER | st.integers(0, 4).map(str)), rows)
    if kind == "text":
        return draw(st.text(max_size=30))
    return draw(st.sampled_from(["[", '{"d": '])) * draw(st.sampled_from([2, 10**3, 10**5]))


def states(d):
    return st.one_of(
        st.lists(OCCUPATION, min_size=d, max_size=d).map(lambda xs: ",".join(map(str, xs))),
        st.lists(st.integers(0, 3), max_size=4).map(lambda xs: f"|{','.join(map(str, xs))}⟩"),
        st.text(alphabet=",|<>⟩ x-.", max_size=8),
    )


@st.composite
def invocations(draw):
    """A matrix file's text and an argv naming it as MATRIX (basis names none); the state
    lists mostly fit d."""
    d = draw(st.integers(1, 3))
    command = draw(st.sampled_from(
        ["permanent", "amplitude", "distribution", "expect", "sample", "check", "basis"]
    ))
    if command == "basis":
        return "", ["basis", f"--d={d}", f"--n={draw(BASIS_N[d])}"]
    argv = [command, "MATRIX"] + [flag for flag in FLAGS.get(command, []) if draw(st.booleans())]
    if command in ("amplitude", "distribution", "expect", "sample"):
        argv.append(f"--in={draw(states(d))}")
    if command == "amplitude":
        argv.append(f"--out={draw(states(d))}")
    if command == "sample":
        argv += [f"--count={draw(COUNTS)}", f"--seed={draw(SEEDS)}"]
    if command != "permanent" and draw(st.booleans()):
        argv.append(f"--tol={draw(TOLS)}")
    if command in ("distribution", "sample") and draw(st.booleans()):
        argv.append(f"--cap={draw(CAPS)}")
    return draw(matrix_texts(d)), argv


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(case=invocations())
def test_exit_code_contract(case):
    text, argv = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        argv = [str(path) if a == "MATRIX" else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
    assert code in (0, 2, 3)
    assert not [str(w.message) for w in caught]
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
