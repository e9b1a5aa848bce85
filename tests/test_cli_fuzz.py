"""Property test of the command line over generated configs and arguments.

Every run of ``finpow.cli.main`` must end with exit code 0, 2 or 3 and no
escaping exception; a successful run prints JSON (``approx``) or a CSV table
with the header's column count on every row, and a run that exits 3 prints
nothing on stdout.
"""

import contextlib
import csv
import io
import json
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from finpow.cli import main

SPECIAL_FLOATS = [
    0.0, -0.0, 1e-320, -1.0, 1e308, -1e308,
    float("nan"), float("inf"), float("-inf"), 330.5, 441.5, 4000000.5, 9999999.5,
]


def mostly(valid, special):
    """``valid`` seven draws in eight, else ``special``."""
    return st.tuples(st.integers(0, 7), valid, special).map(lambda t: t[2] if t[0] == 0 else t[1])


# JSON integer literals beyond a float (400 digits) and beyond a machine
# integer (10**30)
HUGE_INTEGERS = [10**400, -(10**400), 10**30, -(10**30)]


specials = st.sampled_from(SPECIAL_FLOATS)
huge = st.sampled_from(HUGE_INTEGERS)
reals = mostly(st.floats(-3.0, 3.0), specials)
positives = mostly(st.floats(0.05, 6.0), specials)
tols = mostly(st.sampled_from([1e-2, 1e-6, 1e-12, 1e-40]), specials)
indices = mostly(st.integers(-6, 6), st.sampled_from([10**9, -(10**30)]))
sizes = mostly(
    st.integers(1, 16).map(lambda k: 2 * k + 1), st.sampled_from([1, 34, 2051, 20001, 10**30, -3])
).map(str)
window_tokens = mostly(
    st.one_of(
        st.integers(0, 24).map(str),
        st.tuples(st.integers(0, 24), st.integers(0, 24)).map(lambda pq: f"{pq[0]}:{pq[1]}"),
    ),
    st.sampled_from(["1025", "20000", "10000000000", "-1", "3:-2", "x", ""]),
)

lattice_configs = st.fixed_dictionaries(
    {"kind": st.just("lattice"), "a": mostly(positives, huge), "b": mostly(positives, huge)},
    optional={"boundary": st.sampled_from([{"kind": "periodic"}, {"kind": "zero"}])},
)


@st.composite
def banded_configs(draw):
    """Real banded stencils, mostly with their exact spectral envelope."""
    half = draw(st.integers(0, 2))
    couplings = [draw(mostly(st.floats(-1.0, 1.0), st.one_of(specials, huge))) for _ in range(half)]
    spread = 2.0 * sum(abs(b) for b in couplings if isinstance(b, float))  # no huge integer
    if draw(st.integers(0, 7)) == 0:
        # an envelope whose c/w underflows: drawn one by one, such a pair
        # comes up about once in 10,000 draws
        c = draw(st.sampled_from([1e-320, 1e-300]))
        norm_bound = draw(st.sampled_from([1e300, 1e308]))
    else:
        c = draw(mostly(st.floats(0.0, 2.0), specials))
        norm_bound = draw(mostly(st.just(c + 2.0 * spread), specials))
    offsets = list(range(-half, half + 1))
    stencil = [couplings[abs(o) - 1] if o else c + spread for o in offsets]
    far = draw(mostly(st.none(), huge.map(abs)))
    if far is not None and half:
        offsets[0], offsets[-1] = -far, far
    return {
        "kind": "banded",
        "offsets": offsets,
        "stencil": stencil,
        "envelope": {"c": c, "norm_bound": norm_bound, "d": draw(st.sampled_from([0.0, 0.5]))},
    }


malformed_configs = st.sampled_from([
    "{not json",
    "[]",
    '{"kind": "banded", "offsets": [0], "stencil": [1.0]}',
    '{"kind": "banded", "offsets": [0.5], "stencil": [1.0], "envelope": {"c": 1, "norm_bound": 2}}',
    '{"kind": "banded", "offsets": [-1, 1], "stencil": [1.0, 2.0], "envelope": {"c": 1, "norm_bound": 2}}',
    '{"kind": "lattice", "a": "1", "b": 1}',
    '{"kind": "lattice", "a": 1, "b": 1, "boundary": {"kind": "corners", "entries": [[0, 0, 1, 0]]}}',
    '{"kind": "cube"}',
])

config_texts = mostly(
    st.one_of(lattice_configs.map(json.dumps), banded_configs().map(json.dumps)),
    malformed_configs,
)

rhs_lines = st.lists(
    st.one_of(
        st.tuples(indices, reals, reals).map(lambda t: f"{t[0]},{t[1]!r},{t[2]!r}"),
        st.sampled_from(["# comment", "", "0,1.0", "x,1,0"]),
    ),
    max_size=4,
)
max_dims = st.sampled_from(["9", "33", "65", "-1"])


@st.composite
def command_lines(draw):
    """``(argv, config text, rhs text)``; ``argv`` names files as ``@config`` and ``@rhs``."""
    command = draw(st.sampled_from(["approx", "table", "solve", "example"]))
    if command == "example":
        argv = ["example", "--a", repr(draw(positives)), "--b", repr(draw(positives)),
                "--alpha", repr(draw(reals)),
                "--sizes", ",".join(draw(st.lists(sizes, min_size=1, max_size=3)))]
        return argv, None, None
    config = draw(config_texts)
    if command == "approx":
        argv = ["approx", "@config", "--alpha", repr(draw(reals)), "--m", str(draw(indices)),
                "--n", str(draw(indices)), "--tol", repr(draw(tols)), "--max-dim", draw(max_dims)]
    elif command == "table":
        argv = ["table", "@config", "--alpha", repr(draw(reals)), "--m", str(draw(indices)),
                "--n", str(draw(indices)),
                "--windows", ",".join(draw(st.lists(window_tokens, min_size=1, max_size=3)))]
    else:
        outs = draw(st.lists(indices, min_size=1, max_size=3))
        argv = ["solve", "@config", "--rhs", "@rhs", "--out", ",".join(map(str, outs)),
                "--tol", repr(draw(tols)), "--max-dim", draw(max_dims)]
        return argv, config, "\n".join(draw(rhs_lines)) + "\n"
    return argv, config, None


def run_main(argv, config, rhs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"@config": os.path.join(tmp, "config.json"), "@rhs": os.path.join(tmp, "rhs.txt")}
        for key, text in (("@config", config), ("@rhs", rhs)):
            if text is not None:
                with open(paths[key], "w", encoding="utf-8") as handle:
                    handle.write(text)
        argv = [paths.get(token, token) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue()


def assert_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows
    for row in rows[1:]:
        assert len(row) == len(rows[0])
        for field in row:
            float(field)


LATTICE_B_OVERFLOW = '{"kind": "lattice", "a": 1.0, "b": 1e308}'
C0_BANDED_W1 = (
    '{"kind": "banded", "offsets": [-1, 0, 1], "stencil": [-0.25, 0.5, -0.25],'
    ' "envelope": {"c": 0.0, "norm_bound": 1.0}}'
)
C0_BANDED_W_HALF = (
    '{"kind": "banded", "offsets": [-1, 0, 1], "stencil": [-0.125, 0.25, -0.125],'
    ' "envelope": {"c": 0.0, "norm_bound": 0.5}}'
)

# c/w rounds to 0: the terms of a negative power do not decay
UNDERFLOWING_BANDED = (
    '{"kind": "banded", "offsets": [0], "stencil": [1.0],'
    ' "envelope": {"c": 1e-320, "norm_bound": 1e308}}'
)

# symbol in [0.9993, 0.9997]: a sound envelope whose large powers need few terms
TIGHT_BANDED = (
    '{"kind": "banded", "offsets": [-1, 0, 1], "stencil": [-1e-4, 0.9995, -1e-4],'
    ' "envelope": {"c": 0.999, "norm_bound": 1.0}}'
)


@given(command_lines())
@settings(max_examples=1000, deadline=5000, derandomize=True)
# a + 4b overflows the lattice envelope
@example((["approx", "@config", "--alpha", "0.5", "--m", "0", "--n", "0", "--tol", "1e-6",
           "--max-dim", "65"], LATTICE_B_OVERFLOW, None))
@example((["table", "@config", "--alpha", "0.5", "--m", "0", "--n", "0", "--windows", "4"],
          LATTICE_B_OVERFLOW, None))
@example((["solve", "@config", "--rhs", "@rhs", "--out", "0", "--tol", "1e-6", "--max-dim", "65"],
          LATTICE_B_OVERFLOW, "0,1.0,0.0\n"))
@example((["example", "--a", "1", "--b", "1e308", "--alpha", "0.5", "--sizes", "5"], None, None))
# an overflowing alpha is rejected without O(alpha) work
@example((["approx", "@config", "--alpha", "9999999.5", "--m", "0", "--n", "0", "--tol", "1e-6",
           "--max-dim", "65"], C0_BANDED_W1, None))
@example((["table", "@config", "--alpha", "9999999.5", "--m", "0", "--n", "0", "--windows", "4"],
          C0_BANDED_W_HALF, None))
# windows above the dimension limit are rejected before any truncation
@example((["table", "@config", "--alpha", "0.5", "--m", "0", "--n", "0",
           "--windows", ",".join(["1025"] * 8)], LATTICE_B_OVERFLOW.replace("1e308", "1.0"), None))
# the series guard fails after the quadrature passed: nothing may be printed
@example((["example", "--a", "1", "--b", "1", "--alpha", "330.5", "--sizes", "5"], None, None))
# integer literals too large for a float or a machine integer
@example((["approx", "@config", "--alpha", "0.5", "--m", "0", "--n", "0", "--tol", "1e-6",
           "--max-dim", "65"], '{"kind": "lattice", "a": 1%s, "b": 1}' % ("0" * 400), None))
@example((["solve", "@config", "--rhs", "@rhs", "--out", "0", "--tol", "1e-6", "--max-dim", "65"],
          C0_BANDED_W1.replace("[-1, 0, 1]", f"[{-(10**30)}, 0, {10**30}]"), "0,1.0,0.0\n"))
@example((["table", "@config", "--alpha", "0.5", "--m", "0", "--n", "0", "--windows", "4"],
          C0_BANDED_W1.replace("0.5,", f"{10**400},"), None))
# the carries of floor(alpha) overflow: exit 3 before any sweep
@example((["approx", "@config", "--alpha", "100000.5", "--m", "0", "--n", "0", "--tol", "1e-6"],
          TIGHT_BANDED, None))
# c/w underflows with alpha < 0: exit 3, where (c/w)**alpha divided by zero
@example((["approx", "@config", "--alpha", "-0.5", "--m", "0", "--n", "0", "--tol", "1e-6",
           "--max-dim", "65"], UNDERFLOWING_BANDED, None))
@example((["table", "@config", "--alpha", "-0.5", "--m", "0", "--n", "0", "--windows", "4"],
          UNDERFLOWING_BANDED, None))
@example((["solve", "@config", "--rhs", "@rhs", "--out", "0", "--tol", "1e-6", "--max-dim", "65"],
          UNDERFLOWING_BANDED, "0,1.0,0.0\n"))
@example((["example", "--a", "1e-300", "--b", "1e300", "--alpha", "-0.5", "--sizes", "5"],
          None, None))
def test_cli_exits_cleanly(case):
    argv, config, rhs = case
    code, out = run_main(argv, config, rhs)
    assert code in (0, 2, 3)
    if code == 0:
        if argv[0] == "approx":
            json.loads(out)
        else:
            assert_csv(out)
    elif code == 2:
        assert out == "" or json.loads(out)
    else:
        assert out == ""
