"""Property tests of the input contract: every parser returns or raises ValueError,
the CLI answers every input file with exit code 0, 1 or 2 and at most one
line on stderr, and a protocol run returns a key or a clean abort.

The strategies follow each format's grammar (rows of the right shape) but
draw unbounded integers and floats that include inf and nan, so they reach
the overflow and non-finite corners that hand-written cases miss.
"""

import contextlib
import io
import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qkdpost.channels import (  # noqa: E402
    PauliProbs,
    format_channel_spec,
    make_amplitude_damping,
    make_pauli,
    make_rotation,
    parse_channel_spec,
)
from qkdpost.cli import main, read_bits  # noqa: E402
from qkdpost.reconciliation import read_alist, syndrome  # noqa: E402
from qkdpost.simulate import ProtocolConfig, parse_config, run_protocol  # noqa: E402
from qkdpost.tomography import EstimationError, ProjectionError, TallyTable  # noqa: E402

from conftest import to_dense  # noqa: E402

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


def valid_spec_text():
    """Specs of each kind with its own keys, in any order, and in-range values."""

    def finite(lo, hi):
        return st.floats(lo, hi, allow_nan=False, allow_infinity=False)

    def spec(kind, keys, values):
        return values.flatmap(
            lambda v: st.permutations([f"{k}={x!r}" for k, x in zip(keys, v)])
        ).map(lambda tokens: " ".join([f"kind={kind}", *tokens]))

    pauli_q = st.lists(finite(0, 1), min_size=4, max_size=4).filter(lambda q: sum(q) > 0)
    return st.one_of(
        spec("amplitude_damping", ["p"], st.tuples(finite(0, 1))),
        spec("rotation", ["theta"], st.tuples(finite(-10, 10))),
        spec("pauli", ["qi", "qz", "qx", "qy"], pauli_q.map(lambda q: [v / sum(q) for v in q])),
        st.lists(finite(-2, 2), min_size=12, max_size=12).map(
            lambda v: " ".join(["kind=explicit", *map(repr, v)])
        ),
    )


@PROPERTY
@given(st.one_of(spec_text(), valid_spec_text(), JUNK))
def test_channel_spec_parses_or_raises_value_error(text):
    channel = returns_or_value_error(parse_channel_spec, text)
    if channel is not None:
        again = parse_channel_spec(format_channel_spec(channel))
        assert np.array_equal(again.r, channel.r) and np.array_equal(again.t, channel.t)


@PROPERTY
@given(valid_spec_text())
def test_in_range_channel_specs_parse(text):
    parse_channel_spec(text)


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
        assert np.array_equal(syndrome(matrix, x), to_dense(matrix) @ x % 2)


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


# ---------------------------------------------------------------------------
# protocol runs: a key whose length the ledger states, or an abort without one
# ---------------------------------------------------------------------------

ABORTS = ("nonpositive_rate", "syndrome_rate_full", "decode_failure", "zero_key_length")


def weighted(usual, wide):
    """Mostly ``usual`` values, which reach a key, and one draw in four from
    ``wide``, which reaches the aborts."""
    return st.one_of(usual, usual, usual, wide)


def finite_floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def split_error(error, z_share, x_share):
    """Pauli weights with I at 1 - ``error`` and the rest split Z first, then X, then Y."""
    rest = error * (1.0 - z_share)
    return PauliProbs(1.0 - error, error * z_share, rest * x_share, rest * (1.0 - x_share))


RUN_CHANNEL = st.one_of(
    weighted(finite_floats(0.0, 0.1), finite_floats(0.0, 1.0)).map(make_amplitude_damping),
    weighted(finite_floats(-0.2, 0.2), finite_floats(-math.pi, math.pi)).map(make_rotation),
    st.tuples(
        weighted(finite_floats(0.0, 0.05), finite_floats(0.0, 1.0)),
        finite_floats(0.0, 1.0),
        finite_floats(0.0, 1.0),
    ).map(lambda t: make_pauli(split_error(*t))),
)
RUN_CONFIG = st.builds(
    ProtocolConfig,
    protocol=st.sampled_from(["bb84", "sixstate"]),
    channel=RUN_CHANNEL,
    direction=st.sampled_from(["direct", "reverse", "mismatched"]),
    n_signals=weighted(st.integers(2_000, 20_000), st.integers(1_000, 2_000)),
    estimation_fraction=weighted(finite_floats(0.2, 0.6), finite_floats(0.001, 0.999)),
    margin=weighted(finite_floats(0.02, 0.2), finite_floats(0.001, 1.0)),
    epsilon=weighted(finite_floats(0.0, 0.02), finite_floats(0.0, 1.0)),
    seed_channel=st.integers(0, 10**6),
    seed_code=st.integers(0, 10**6),
    seed_hash=st.integers(0, 10**6),
)


def run_outcome(config):
    """The abort reason of a run, or the name of the estimation error it raised."""
    try:
        report = run_protocol(config)
    except (EstimationError, ProjectionError) as exc:
        return type(exc).__name__
    assert report.abort_reason in ("none", *ABORTS), report.abort_reason
    if report.abort_reason != "none":
        assert report.key_length == 0 and not report.keys_equal
        assert report.empirical_key_rate == 0.0
        return report.abort_reason
    assert report.decode_success
    m = round(report.syndrome_rate * report.n_key)
    budget = report.n_key * report.decided_ambiguity - m - report.n_key * config.epsilon
    assert report.key_length == math.floor(budget) > 0
    return "none"


def test_run_ends_with_a_stated_key_or_a_clean_abort():
    # keys_equal is not asserted: success does not yet imply equal keys
    # (test_cli.py::test_successful_run_has_equal_keys)
    outcomes = Counter()

    @PROPERTY
    @given(RUN_CONFIG)
    def check(config):
        outcomes[run_outcome(config)] += 1

    check()
    # the draws reach a key often and every abort at least once
    assert 4 * outcomes["none"] >= sum(outcomes.values()), outcomes
    assert all(outcomes[reason] for reason in ABORTS), outcomes
