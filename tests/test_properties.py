"""Property tests of the input contract: every parser returns or raises ValueError.

The strategies follow each format's grammar (rows of the right shape) but
draw unbounded integers and floats that include inf and nan, so they reach
the overflow and non-finite corners that hand-written cases miss.
"""

import math
from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qkdpost.channels import parse_channel_spec  # noqa: E402
from qkdpost.cli import read_bits  # noqa: E402
from qkdpost.hashing import HashDescriptor  # noqa: E402
from qkdpost.reconciliation import read_alist  # noqa: E402
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


@PROPERTY
@given(SIZES, SIZES, st.lists(INT_LINE, max_size=24))
def test_alist_parses_or_raises_value_error(scratch, n, m, body):
    scratch.write_text(f"{n} {m}\n" + "\n".join(body) + "\n", encoding="utf-8")
    returns_or_value_error(read_alist, scratch)


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
