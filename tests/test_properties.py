"""Property tests of the input contract: every parser returns or raises ValueError,
and the CLI answers every input file with exit code 0, 1 or 2 and at most one
line on stderr.

The strategies follow each format's grammar (rows of the right shape) but
draw unbounded integers and floats that include inf and nan, so they reach
the overflow and non-finite corners that hand-written cases miss.
"""

import contextlib
import io
import math
from dataclasses import fields

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qkdpost.channels import parse_channel_spec  # noqa: E402
from qkdpost.cli import main, read_bits  # noqa: E402
from qkdpost.hashing import HashDescriptor  # noqa: E402
from qkdpost.reconciliation import read_alist, syndrome  # noqa: E402
from qkdpost.simulate import ProtocolConfig, parse_config  # noqa: E402
from qkdpost.tomography import TallyTable  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# unbounded integers, plus a band around the int64 limit
INTS = st.one_of(st.integers(), st.integers(2**62, 2**64))
FLOATS = st.one_of(st.sampled_from(["inf", "-inf", "nan"]), st.floats().map(repr))
NUMBERS = st.one_of(INTS.map(str), FLOATS)
JUNK = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One file the examples overwrite in turn."""
    return tmp_path_factory.mktemp("properties") / "input"


def returns_or_value_error(parse, arg):
    try:
        return parse(arg)
    except ValueError:
        return None


def spec_text():
    pairs = st.tuples(st.sampled_from(["p", "theta", "qi", "qz", "qx", "qy"]), NUMBERS)
    return st.tuples(
        st.sampled_from(["amplitude_damping", "rotation", "pauli", "explicit", "bogus"]),
        st.lists(pairs.map("=".join), max_size=5),
        st.lists(NUMBERS, max_size=13),
    ).map(lambda t: " ".join([f"kind={t[0]}", *t[1], *t[2]]))


@PROPERTY
@given(st.one_of(spec_text(), JUNK))
def test_channel_spec_parses_or_raises_value_error(text):
    returns_or_value_error(parse_channel_spec, text)


TALLY_ROW = st.tuples(
    st.sampled_from(["z", "x", "y", "q"]),
    st.sampled_from(["z", "x", "y", "q"]),
    st.one_of(st.integers(0, 1), INTS),
    st.one_of(st.integers(0, 1), INTS),
    st.one_of(INTS, FLOATS),
).map(lambda row: ",".join(map(str, row)))


@PROPERTY
@given(st.lists(st.one_of(TALLY_ROW, JUNK), max_size=12))
def test_tally_parses_or_raises_value_error(scratch, rows):
    scratch.write_text("a,b,x,y,count\n" + "\n".join(rows) + "\n", encoding="utf-8")
    tally = returns_or_value_error(TallyTable.from_csv, scratch)
    if tally is not None:
        assert (tally.counts >= 0).all()


SIZES = st.one_of(st.integers(-1, 8), st.integers(9, 10**4))
INT_LINE = st.lists(st.one_of(st.integers(-1, 12), INTS), max_size=12).map(
    lambda v: " ".join(map(str, v))
)


def small_alist(n, m, valid=False):
    """A well-formed alist head (m row weights on line 4) and n column lines:
    distinct check indices in 1..m if ``valid``, else indices in 0..m+1
    that may repeat."""
    index = st.integers(1, m) if valid else st.integers(0, m + 1)
    column = st.lists(index, unique=valid, max_size=4).map(lambda v: " ".join(map(str, v)))
    return st.lists(column, min_size=n, max_size=n).map(
        lambda cols: f"{n} {m}\n4 4\n{'1 ' * n}\n{'1 ' * m}\n" + "\n".join(cols)
    )


SMALL_SIZES = st.tuples(st.integers(1, 8), st.integers(1, 8))
ALIST_TEXT = st.one_of(
    st.tuples(SIZES, SIZES, st.lists(INT_LINE, max_size=24)).map(
        lambda t: f"{t[0]} {t[1]}\n" + "\n".join(t[2])
    ),
    SMALL_SIZES.flatmap(lambda nm: small_alist(*nm)),
)


@PROPERTY
@given(ALIST_TEXT)
def test_alist_parses_or_raises_value_error(scratch, text):
    scratch.write_text(text + "\n", encoding="utf-8")
    matrix = returns_or_value_error(read_alist, scratch)
    if matrix is not None:
        x = np.ones(matrix.n, np.uint8)
        assert np.array_equal(syndrome(matrix, x), matrix.to_dense() @ x % 2)


BIT_LINE = st.one_of(
    st.text("01", max_size=40),
    st.tuples(NUMBERS, st.text("0123456789abcdefg", max_size=12)).map(
        lambda t: f"hex {t[0]} {t[1]}"
    ),
    JUNK,
)


@PROPERTY
@given(st.lists(BIT_LINE, max_size=4))
def test_bits_parse_or_raise_value_error(scratch, lines):
    scratch.write_text("\n".join(lines) + "\n", encoding="utf-8")
    bits = returns_or_value_error(read_bits, scratch)
    if bits is not None:
        assert set(bits.tolist()) <= {0, 1}


HASH_FIELD = st.tuples(
    st.sampled_from(["n", "l", "seed", "gen"]),
    st.one_of(NUMBERS, st.just("-"), st.text("0123456789abcdef", max_size=16)),
).map("=".join)


@PROPERTY
@given(st.lists(st.one_of(HASH_FIELD, JUNK), max_size=6))
def test_hash_descriptor_parses_or_raises_value_error(tokens):
    returns_or_value_error(HashDescriptor.deserialize, " ".join(["toeplitz", *tokens]))


CONFIG_VALUES = {
    "protocol": st.sampled_from(["bb84", "sixstate", "bogus"]),
    "direction": st.sampled_from(["direct", "reverse", "mismatched", "sideways"]),
    "channel": spec_text(),
}
for field_ in fields(ProtocolConfig):
    if field_.name not in CONFIG_VALUES:
        CONFIG_VALUES[field_.name] = FLOATS if field_.type == "float" else INTS.map(str)
CONFIG_LINE = st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
    lambda key: CONFIG_VALUES[key].map(lambda value: f"{key} = {value}")
)


@PROPERTY
@given(st.lists(st.one_of(CONFIG_LINE, JUNK), max_size=4))
def test_config_parses_or_raises_value_error_with_finite_floats(lines):
    config = returns_or_value_error(parse_config, "\n".join(lines))
    if config is not None:
        for f in fields(config):
            if f.type == "float":
                assert math.isfinite(getattr(config, f.name)), f.name
            if f.name.startswith("seed_"):
                assert getattr(config, f.name) >= 0, f.name


# ---------------------------------------------------------------------------
# the CLI on the same files: exit code 0, 1 or 2, stderr one line at most
# ---------------------------------------------------------------------------

CLI_PROPERTY = settings(PROPERTY, max_examples=50)


def assert_exit_contract(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2), (code, err.getvalue())
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue(), err.getvalue()


def full_tally(bases):
    """Every basis pair and bit pair once, so most tallies reach the estimators."""
    cells = [f"{a},{b},{x},{y}" for a in bases for b in bases for x in (0, 1) for y in (0, 1)]
    return st.lists(st.integers(0, 10**4), min_size=len(cells), max_size=len(cells)).map(
        lambda counts: [f"{cell},{count}" for cell, count in zip(cells, counts)]
    )


FULL_TALLY = st.sampled_from(["zx", "zxy"]).flatmap(full_tally)


@CLI_PROPERTY
@given(st.one_of(FULL_TALLY, st.lists(st.one_of(TALLY_ROW, JUNK), max_size=12)))
def test_cli_estimate_keeps_exit_contract(scratch, rows):
    scratch.write_text("a,b,x,y,count\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert_exit_contract(["estimate", "--tally", scratch])


# specs of in-range parameters, completely positive or not
RANGED_SPEC = st.one_of(
    st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12).map(
        lambda v: "kind=explicit " + " ".join(map(repr, v))
    ),
    st.floats(0.0, 1.0).map(lambda p: f"kind=amplitude_damping p={p!r}"),
    st.floats(-7.0, 7.0).map(lambda t: f"kind=rotation theta={t!r}"),
)
SPEC = st.one_of(RANGED_SPEC, spec_text(), JUNK)


@CLI_PROPERTY
@given(SPEC, st.booleans())
def test_cli_bound_keeps_exit_contract(scratch, text, exact):
    scratch.write_text(text + "\n", encoding="utf-8")
    assert_exit_contract(["bound", "--channel", scratch] + (["--exact"] if exact else []))


def bits_of_length(k):
    return st.one_of(
        st.text("01", min_size=k, max_size=k), st.lists(BIT_LINE, max_size=3).map("\n".join)
    )


# a small alist with syndrome and observed files mostly of its own m and n
DECODE_FILES = st.one_of(
    st.tuples(SMALL_SIZES, st.booleans()).flatmap(
        lambda t: st.tuples(
            small_alist(*t[0], valid=t[1]), bits_of_length(t[0][1]), bits_of_length(t[0][0])
        )
    ),
    st.tuples(ALIST_TEXT, bits_of_length(4), bits_of_length(8)),
)


@CLI_PROPERTY
@given(DECODE_FILES, SPEC)
def test_cli_decode_keeps_exit_contract(scratch, files, spec):
    paths = []
    for name, text in zip(("alist", "syndrome", "observed", "spec"), (*files, spec)):
        paths.append(scratch.parent / name)
        paths[-1].write_text(text + "\n", encoding="utf-8")
    alist, syn, observed, channel = paths
    assert_exit_contract(
        ["decode", "--matrix", alist, "--syndrome", syn, "--observed", observed,
         "--channel", channel]
    )
