"""Property test of the CLI exit codes: generated state files and argv.

Every command must end in one of its documented exit codes, never in an
uncaught exception or a traceback on stderr.  The examples are derandomized,
so the suite stays deterministic.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotosense.cli import main
from rotosense.oqr import spin2_family, spin32_ghz, spin3_oqr_family

DOCUMENTED = {
    "qfi": {0, 1},
    "certify": {0, 1, 2, 3},
    "search": {0, 1, 4, 5},
    "catalog": {0, 1},
    "reproduce": {0, 1},
}
FUZZ = settings(derandomize=True, deadline=None, max_examples=120,
                suppress_health_check=[HealthCheck.too_slow])

# values that are not what a field expects
junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3),
    st.lists(st.integers(-1, 1), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
special = st.sampled_from([math.nan, math.inf, -math.inf, 0.0])
# at most one flaw per state file, so that most files get past the loader
FLAWS = (None, None, None, None, "size", "unnormalized", "not finite", "bad field", "missing field", "text")


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


# states certify grades 0 (QCRB-grade) and 2 (fidelity-grade only)
GRADED = (
    {"two_j": 4, "kind": "mixed-matrix", "matrix": [_pairs(row) for row in spin2_family(0.7).matrix]},
    {"two_j": 6, "kind": "mixed-matrix", "matrix": [_pairs(row) for row in spin3_oqr_family(0.2).matrix]},
    {"two_j": 3, "kind": "pure", "amplitudes": _pairs(spin32_ghz().amplitudes)},
)


@st.composite
def vectors(draw, d, flaw):
    """d amplitudes as normalized [re, im] pairs, with the flaw if it is one of a vector."""
    size = d + draw(st.sampled_from([-1, 1])) if flaw == "size" else d
    values = [complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))) for _ in range(max(size, 0))]
    norm = math.sqrt(sum(abs(z) ** 2 for z in values))
    if flaw != "unnormalized" and norm > 0:
        values = [z / norm for z in values]
    pairs = [[z.real, z.imag] for z in values]
    if pairs and flaw == "not finite":
        pairs[draw(st.integers(0, len(pairs) - 1))][draw(st.integers(0, 1))] = draw(special)
    return pairs


@st.composite
def state_texts(draw):
    """The text of a state file: well formed, or with one flaw."""
    flaw = draw(st.sampled_from(FLAWS))
    if flaw == "text":
        return draw(st.sampled_from(["", "{", "null", "[]", "5", '"two_j"', "{}"]))
    two_j = draw(st.integers(0, 5))
    d = two_j + 1
    kind = draw(st.sampled_from(["pure", "mixed-eigen", "mixed-matrix", "graded"]))
    payload = {"two_j": two_j, "kind": kind}
    if kind == "graded":
        payload = dict(draw(st.sampled_from(GRADED)))
    elif kind == "pure":
        payload["amplitudes"] = draw(vectors(d, flaw))
    elif kind == "mixed-eigen":
        count = draw(st.integers(1, 3))
        # a flawed vector or a weight off the simplex
        payload["states"] = [draw(vectors(d, flaw if i == 0 else None)) for i in range(count)]
        weights = [draw(st.floats(0.01, 1)) for _ in range(count)]
        if flaw != "unnormalized":
            weights = [w / sum(weights) for w in weights]
        if flaw == "not finite":
            weights[-1] = draw(special)
        payload["weights"] = weights
    else:
        # a Hermitian matrix with unit trace, PSD unless the flaw says otherwise; the trace of the Gram
        # matrix sums the squared entries, so one of them must not vanish or underflow to divide by it
        nonzero = lambda rows: any(x * x + y * y for row in rows for x, y in row)
        rows = draw(st.lists(vectors(d, None), min_size=1, max_size=d).filter(nonzero))
        m = [[complex(*a) for a in r] for r in rows]
        g = [[sum(v[i].conjugate() * v[j] for v in m) for j in range(d)] for i in range(d)]
        scale = 1.0 if flaw == "unnormalized" else sum(g[i][i].real for i in range(d))
        if flaw == "not finite":
            g[0][0] = draw(special)
        payload["matrix"] = [[[(z / scale).real, (z / scale).imag] for z in row] for row in g][: d - (flaw == "size")]
    if flaw in ("bad field", "missing field"):
        key = draw(st.sampled_from(sorted(payload)))
        if flaw == "missing field":
            del payload[key]
        else:
            payload[key] = draw(junk)
    return json.dumps(payload)


def run_main(argv, workdir):
    """main(argv) run in workdir, so that any relative path it writes lands there."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


qfi_options = st.lists(st.sampled_from(["--averaged-inverse", "--axis=0,0,1", "--axis=1,1,0",
                                        "--axis=0,0,0", "--axis=x", "--bogus"]), max_size=2)
certify_options = st.lists(st.sampled_from(["--bogus", "extra.json"]), max_size=1).filter(lambda o: not o or o[0])


@FUZZ
@given(text=state_texts(), command=st.sampled_from(["qfi", "certify"]), data=st.data())
def test_state_commands_exit_with_documented_codes(text, command, data):
    options = data.draw(qfi_options if command == "qfi" else certify_options)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_text(text)
        argv = [command, str(path)] + options
        code, err = run_main(argv, tmp)
    assert code in DOCUMENTED[command], (argv, text)
    assert "Traceback" not in err


@st.composite
def search_argvs(draw):
    """search argv with j <= 2 and at most 2 restarts; at most one field invalid or an unwritable --out."""
    flaw = draw(st.sampled_from((None, None, None, None, "j", "k", "t", "seed", "restarts", "out")))
    j = draw(st.sampled_from(["0", "0.3", "-1", "2/3", "x", "nan", "inf", ""] if flaw == "j"
                             else ["1/2", "1", "3/2", "2", "1.5", "2.0"]))
    k = draw(st.integers(-1, 5) if flaw == "k" else st.integers(1, 2))
    t = draw(st.integers(-1, 5) if flaw == "t" else st.integers(1, 2))
    seed = draw(st.integers(-3, -1) if flaw == "seed" else st.integers(0, 2**40))
    restarts = draw(st.integers(-1, 0) if flaw == "restarts" else st.integers(1, 2))
    argv = ["search", "--j", j, "--k", str(k), "--t", str(t), "--seed", str(seed), "--restarts", str(restarts)]
    if flaw == "out":
        argv += ["--out", str(Path("missing-dir") / "frame.json")]
    return argv


@FUZZ
@given(argv=search_argvs())
def test_search_exits_with_documented_codes(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_main(argv, tmp)
    assert code in DOCUMENTED["search"], argv
    assert "Traceback" not in err


@st.composite
def catalog_argvs(draw):
    """catalog argv: --list, --get with or without --out, or a mangled form."""
    name = draw(st.sampled_from(["(2,2,1)", "(7/2,2,2)", "(5,2,2)", "nope", ""]))
    out = draw(st.sampled_from(["entry.json", str(Path("missing-dir") / "entry.json")]))
    forms = [[], ["--list"], ["--get", name], ["--get", name, "--out", out], ["--list", "--get", name]]
    args = draw(st.sampled_from(forms))
    if draw(st.booleans()) and args:  # mangle: drop an argument or put text in its place
        i = draw(st.integers(0, len(args) - 1))
        args[i:i + 1] = [] if draw(st.booleans()) else [draw(st.text(max_size=4))]
    return ["catalog"] + args


@FUZZ
@given(argv=catalog_argvs())
def test_catalog_exits_with_documented_codes(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_main(argv, tmp)
    assert code in DOCUMENTED["catalog"], argv
    assert "Traceback" not in err


@st.composite
def reproduce_argvs(draw):
    """reproduce argv for every target, j <= 3/2 and -1..2 restarts; at most one junk field or an --out under a file."""
    flaw = draw(st.sampled_from((None, None, None, "max-j", "seed", "out")))
    target = draw(st.sampled_from(["fig1", "kmax", "negativity", "tables"]))
    max_j = draw(st.sampled_from(["0", "-1", "2/3", "x", "nan", ""] if flaw == "max-j" else ["1/2", "1", "3/2", "1.5"]))
    seed = draw(st.sampled_from(["-3", "x", "1.5", ""]) if flaw == "seed" else st.integers(0, 2**40).map(str))
    out = draw(st.sampled_from([str(Path("file") / "out"), "file"]) if flaw == "out" else st.just("out"))
    return ["reproduce", "--target", target, "--out", out, "--max-j", max_j,
            "--restarts", str(draw(st.integers(-1, 2))), "--seed", seed]


@settings(FUZZ, max_examples=60)
@given(argv=reproduce_argvs())
def test_reproduce_exits_with_documented_codes(argv):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "file").write_text("a regular file, not a directory")
        code, err = run_main(argv, tmp)
    assert code in DOCUMENTED["reproduce"], argv
    assert "Traceback" not in err
