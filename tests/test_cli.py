import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from qkdpost import cli
from qkdpost.channels import Basis, joint_distribution, make_amplitude_damping, make_rotation
from qkdpost.cli import main, read_bits, write_bits
from qkdpost.entropy import JointDistribution, binary_entropy, cond_entropy
from qkdpost.reconciliation import (
    ParityCheckMatrix,
    _group_count,
    gen_parity_check,
    sp_decode,
    syndrome,
)
from qkdpost.tomography import (
    BB84_BASES,
    SIXSTATE_BASES,
    estimate_rates_sixstate,
    sample_tally,
)

from conftest import exact_tally, write_alist, write_tally

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_examples_parse():
    """Every `qkdpost ...` line of README's CLI block parses with today's
    flags, and together they show every subcommand; nothing is run."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", text, re.M | re.S).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    assert commands and all(c.startswith("qkdpost ") for c in commands)
    parser = cli.build_parser()
    shown = {parser.parse_args(shlex.split(c)[1:]).func.__name__ for c in commands}
    assert shown == {name for name in dir(cli) if name.startswith("_cmd_")}


def test_rates_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "rates",
            "--channel-family",
            "amplitude_damping",
            "--from",
            "0",
            "--to",
            "1",
            "--steps",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1].startswith("param,")
    assert len(lines) == 7


def test_rates_stdout_when_no_out(capsys):
    assert main(["rates", "--channel-family", "rotation", "--from", "0.1", "--to", "1", "--steps", "3"]) == 0
    assert "param," in capsys.readouterr().out


def test_bound_command(tmp_path, capsys):
    spec = tmp_path / "rot.ch"
    spec.write_text("kind=rotation theta=0.9\n")
    assert main(["bound", "--channel", str(spec), "--exact"]) == 0
    out = capsys.readouterr().out
    assert "bound_direct=1.0" in out
    assert "worst_case_direct=" in out


def _printed(out):
    """``key=value`` lines of command output as a dict of strings."""
    return dict(line.split("=", 1) for line in out.splitlines() if line.count("=") == 1)


def _bb84_closed_form(r_zz, r_xx):
    return 1.0 - binary_entropy((1.0 - r_xx) / 2) - binary_entropy((1.0 - r_zz) / 2)


def _sixstate_closed_form(r_zz, r_xx, r_yy):
    q = np.array(
        [1 + r_zz + r_xx + r_yy, 1 + r_zz - r_xx - r_yy, 1 - r_zz + r_xx - r_yy, 1 - r_zz - r_xx + r_yy]
    )
    q = np.clip(q, 0.0, None)
    q = q[q > 0] / q.sum()
    return 1.0 + float((q * np.log2(q)).sum())


def test_estimate_command(tmp_path, capsys):
    # the baselines printed are the closed forms of the estimated channel's
    # matched contraction factors
    tally = sample_tally(make_amplitude_damping(0.2), SIXSTATE_BASES, 3000, np.random.default_rng(7))
    path = tmp_path / "tally.csv"
    write_tally(tally, path)
    assert main(["estimate", "--tally", str(path)]) == 0
    out = capsys.readouterr().out
    assert "direct: ambiguity=" in out
    printed = _printed(out)
    r_zz, r_xx, r_yy = np.diag(estimate_rates_sixstate(tally).channel.r)
    assert float(printed["conventional_bb84"]) == pytest.approx(
        _bb84_closed_form(r_zz, r_xx), abs=1e-12
    )
    assert float(printed["conventional_sixstate"]) == pytest.approx(
        _sixstate_closed_form(r_zz, r_xx, r_yy), abs=1e-12
    )


def test_estimate_bb84_prints_the_closed_form_of_its_omega(tmp_path, capsys):
    tally = sample_tally(make_rotation(0.7), BB84_BASES, 3000, np.random.default_rng(8))
    path = tmp_path / "tally.csv"
    write_tally(tally, path)
    assert main(["estimate", "--tally", str(path)]) == 0
    printed = _printed(capsys.readouterr().out)
    r_zz, _, _, r_xx, _, _ = (float(v) for v in printed["omega"].split())
    assert float(printed["conventional_bb84"]) == pytest.approx(
        _bb84_closed_form(r_zz, r_xx), abs=1e-12
    )
    assert "conventional_sixstate" not in printed


def test_estimate_bb84_from_sixstate_tally(tmp_path, capsys):
    tally = exact_tally(make_rotation(0.7), SIXSTATE_BASES)
    path = tmp_path / "tally.csv"
    write_tally(tally, path)
    assert main(["estimate", "--tally", str(path), "--protocol", "bb84"]) == 0
    assert "mismatched:" in capsys.readouterr().out


def test_simulate_command_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "protocol=sixstate\n"
        "direction=direct\n"
        "channel=kind=amplitude_damping p=0.2\n"
        "n_signals=20000\n"
        "margin=0.1\n"
        "epsilon=0.01\n"
        "seed_channel=1\nseed_code=2\nseed_hash=3\n"
    )
    out1 = tmp_path / "a.report"
    out2 = tmp_path / "b.report"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"decode_success=true" in out1.read_bytes()


def test_simulate_seed_override_changes_report(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "protocol=bb84\nchannel=kind=rotation theta=0.5\nn_signals=12000\n"
        "seed_channel=1\nseed_code=2\nseed_hash=3\n"
    )
    a = tmp_path / "a.report"
    b = tmp_path / "b.report"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--seed-channel", "99", "--out", str(b)]) == 0
    assert a.read_text() != b.read_text()


def test_decode_command(tmp_path, capsys):
    joint = JointDistribution(joint_distribution(make_amplitude_damping(0.3), Basis.Z, Basis.Z))
    code = gen_parity_check(1200, 740, seed=21)
    rng = np.random.default_rng(5)
    flat = rng.choice(4, size=1200, p=joint.table.ravel())
    x, y = (flat // 2).astype(np.uint8), (flat % 2).astype(np.uint8)

    mpath = tmp_path / "code.alist"
    write_alist(code, mpath)
    spath = tmp_path / "syn.bits"
    write_bits(spath, syndrome(code, x))
    opath = tmp_path / "obs.bits"
    write_bits(opath, y)
    cpath = tmp_path / "damp.ch"
    cpath.write_text("kind=amplitude_damping p=0.3\n")
    out = tmp_path / "decoded.bits"

    rc = main(
        [
            "decode",
            "--matrix",
            str(mpath),
            "--syndrome",
            str(spath),
            "--observed",
            str(opath),
            "--channel",
            str(cpath),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "converged=true" in capsys.readouterr().out
    assert np.array_equal(read_bits(out), x)
    argv = ["decode", "--matrix", str(mpath), "--syndrome", str(spath), "--observed", str(opath)]
    assert main(argv + ["--channel", str(cpath)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "".join(str(int(b)) for b in x)


def test_decode_command_on_a_shuffled_code_in_check_groups(tmp_path, capsys):
    """An alist code with its checks and columns in no particular order, large
    enough for the decoder to split its checks into groups: the command
    decodes exactly as the library does."""
    n = 12_000
    joint = JointDistribution(joint_distribution(make_amplitude_damping(0.1), Basis.Z, Basis.Z))
    m = int(np.ceil(n * (cond_entropy(joint) + 0.1)))
    base = gen_parity_check(n, m, seed=23)
    rng = np.random.default_rng(6)
    # shuffled checks and columns leave no staircase in place
    rows = rng.permutation(m)[np.repeat(np.arange(m), base.row_weights())]
    cols = rng.permutation(n)[base.chk_vars]
    order = np.lexsort((cols, rows))
    code = ParityCheckMatrix(n, m, np.searchsorted(rows[order], np.arange(m + 1)), cols[order])
    assert _group_count(code.num_edges) >= 2
    flat = rng.choice(4, size=n, p=joint.table.ravel())
    x, y = (flat // 2).astype(np.uint8), (flat % 2).astype(np.uint8)
    want = sp_decode(code, syndrome(code, x), joint, y)
    assert want.converged and np.array_equal(want.bits, x)

    mpath, spath, opath = tmp_path / "code.alist", tmp_path / "syn.bits", tmp_path / "obs.bits"
    cpath, out = tmp_path / "damp.ch", tmp_path / "decoded.bits"
    write_alist(code, mpath)
    write_bits(spath, syndrome(code, x))
    write_bits(opath, y)
    cpath.write_text("kind=amplitude_damping p=0.1\n")
    argv = ["decode", "--matrix", str(mpath), "--syndrome", str(spath), "--observed", str(opath)]
    assert main(argv + ["--channel", str(cpath), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == ["converged=true", f"iterations={want.iterations}"]
    assert np.array_equal(read_bits(out), want.bits)


def test_bit_file_formats(tmp_path):
    path = tmp_path / "bits.txt"
    write_bits(path, np.array([1, 0, 1, 1], np.uint8))
    assert read_bits(path).tolist() == [1, 0, 1, 1]
    hexpath = tmp_path / "hex.txt"
    hexpath.write_text("hex 4 b0\n")
    assert read_bits(hexpath).tolist() == [1, 0, 1, 1]


def test_bit_file_round_trip_keeps_the_ascii_form(tmp_path):
    bits = np.random.default_rng(3).integers(0, 2, 100_000).astype(np.uint8)
    path = tmp_path / "bits.txt"
    write_bits(path, bits)
    assert path.read_text() == "".join(str(int(b)) for b in bits) + "\n"
    back = read_bits(path)
    assert back.dtype == np.uint8 and np.array_equal(back, bits)


def test_clean_protocol_abort_still_exits_zero(tmp_path):
    cfg = tmp_path / "abort.cfg"
    # rotation at theta=1.2: H(X|Y) ~ 0.90, so margin 0.1 pushes the syndrome
    # rate to the edge and the run aborts (either before or at decoding)
    cfg.write_text(
        "protocol=bb84\nchannel=kind=rotation theta=1.2\nn_signals=12000\n"
        "margin=0.1\nseed_channel=1\nseed_code=2\nseed_hash=3\n"
    )
    out = tmp_path / "abort.report"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    body = out.read_text()
    assert "abort_reason=none" not in body
    assert "key_length=0" in body


def test_simulate_builds_a_code_with_m_equal_to_the_column_weight(tmp_path, capsys):
    # a noiseless six-state run at margin 0.05 needs m = 3 checks at n = 52,
    # equal to the column weight
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "protocol=sixstate\nchannel=kind=rotation theta=0\nn_signals=1000\nmargin=0.05\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert "keys_equal=true" in capsys.readouterr().out


# a short run whose estimation sample sees no error in the key basis pair, so
# the syndrome rate is about the margin alone
SPARSE_SYNDROME_CONFIG = (
    "protocol={protocol}\nchannel=kind=rotation theta=0.2\nn_signals=2000\n"
    "estimation_fraction=0.05\nmargin=0.01\nseed_channel={seed}\n"
)


def _report_fields(text):
    return dict(line.split("=", 1) for line in text.splitlines() if not line.startswith("#"))


def test_simulate_floors_the_check_count_at_the_column_weight(tmp_path, capsys):
    # ceil(n_key * rate) = 2 checks here, below the column weight 3: the run
    # builds a code with 3 checks and discloses all three
    cfg = tmp_path / "sparse.cfg"
    cfg.write_text(SPARSE_SYNDROME_CONFIG.format(protocol="sixstate", seed=5))
    assert main(["simulate", "--config", str(cfg)]) == 0
    report = _report_fields(capsys.readouterr().out)
    assert float(report["syndrome_rate"]) == 3 / int(report["n_key"])


@pytest.mark.xfail(
    strict=True,
    reason="success does not yet imply equal keys: no error verification after decoding",
)
@pytest.mark.parametrize("protocol, seed", [("bb84", 0), ("sixstate", 5)])
def test_successful_run_has_equal_keys(tmp_path, capsys, protocol, seed):
    # the decoder meets the syndrome with a wrong word: 5 checks on 490 key
    # bits for bb84, the 3 floored checks on 197 for sixstate
    cfg = tmp_path / "sparse.cfg"
    cfg.write_text(SPARSE_SYNDROME_CONFIG.format(protocol=protocol, seed=seed))
    assert main(["simulate", "--config", str(cfg)]) == 0
    report = _report_fields(capsys.readouterr().out)
    assert report["abort_reason"] != "none" or report["keys_equal"] == "true"


def test_an_empty_estimation_sample_is_a_numerical_failure(tmp_path, capsys):
    # exit 2 like a sample that leaves only one tally cell empty
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "protocol=bb84\nchannel=kind=amplitude_damping p=0.1\nn_signals=1000\n"
        "estimation_fraction=0.0001\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


def test_decode_names_an_observed_file_of_the_wrong_length(tmp_path, capsys):
    mpath, spath, opath, cpath = (tmp_path / f for f in ("code.alist", "syn", "obs", "ch"))
    write_alist(gen_parity_check(12, 6, seed=1), mpath)
    write_bits(spath, np.zeros(6, np.uint8))
    write_bits(opath, np.zeros(8, np.uint8))
    cpath.write_text("kind=amplitude_damping p=0.1\n")
    argv = ["decode", "--matrix", str(mpath), "--syndrome", str(spath), "--observed", str(opath)]
    assert main(argv + ["--channel", str(cpath)]) == 1
    assert capsys.readouterr().err == f"error: {opath} holds 8 bits, the matrix has n=12\n"


def test_usage_error_exit_code():
    assert main(["rates", "--channel-family", "amplitude_damping"]) == 1
    assert main(["bogus-command"]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rates", "--channel-family", "rotation", "--from", "0", "--to", "1", "--step", "3"],
         "the following arguments are required: --steps"),
        (["simulate", "--config", "run.cfg", "--seed-co", "5"],
         "unrecognized arguments: --seed-co 5"),
    ],
    ids=["rates-step", "simulate-seed-co"],
)
def test_abbreviated_flags_are_usage_errors(capsys, argv, message):
    # argparse would read --step as --steps and --seed-co as --seed-code by
    # default; the one error line is followed by a usage line
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == f"error: {message}" and err.count("error: ") == 1


def test_negative_security_parameter_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("protocol=sixstate\nchannel=kind=rotation theta=0.3\nepsilon=-0.1\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: epsilon") and err.count("\n") == 1


def test_numerical_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "a,b,x,y,count\n"
        "z,z,0,0,10\nz,z,0,1,0\nz,z,1,0,0\nz,z,1,1,0\n"  # x=1 cell empty
        "z,x,0,0,5\nz,x,0,1,5\nz,x,1,0,5\nz,x,1,1,5\n"
        "x,z,0,0,5\nx,z,0,1,5\nx,z,1,0,5\nx,z,1,1,5\n"
        "x,x,0,0,5\nx,x,0,1,5\nx,x,1,0,5\nx,x,1,1,5\n"
    )
    assert main(["estimate", "--tally", str(bad), "--protocol", "bb84"]) == 2


def _truncated_alist(path):
    write_alist(gen_parity_check(12, 6, seed=1), path)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:9]))


def _alist_declaring_a_million_rows(path):
    # line 4 still lists the 6 row weights of the written code
    write_alist(gen_parity_check(12, 6, seed=1), path)
    path.write_text(path.read_text().replace("12 6\n", "12 1000000\n", 1))


VALID_ALIST = "<valid alist>"


@pytest.mark.parametrize(
    "argv, body, message",
    [
        (["bound", "--channel"], "kind=amplitude_damping\n", "missing p="),
        (["bound", "--channel"], "kind=rotation theta=nan\n", "'nan' is not finite"),
        (["bound", "--channel"], "kind=explicit 1 0 0 0 1 0 0 0 inf 0 0 0\n",
         "'inf' is not finite"),
        (["bound", "--channel"], "kind=explicit 2 0 0 0 1 0 0 0 1 0 0 0\n",
         "omega admits no completely positive completion"),
        (["bound", "--channel"], "kind=amplitude_damping p=0.2 kind=rotation theta=0.3\n",
         "amplitude_damping channel spec: unexpected token 'kind=rotation'"),
        (["bound", "--channel"], "kind=rotation theta=0.5 p=0.9\n",
         "rotation channel spec: unexpected token 'p=0.9'"),
        (["bound", "--channel"], "kind=amplitude_damping p=0.2 theta=1.0 0.7\n",
         "amplitude_damping channel spec: unexpected token 'theta=1.0'"),
        (["bound", "--channel"], "kind=rotation theta=0.5 0.7\n",
         "rotation channel spec: unexpected token '0.7'"),
        (["bound", "--channel"], "kind=explicit 1 0 0 0 1 0 0 0 1 0 0 0 theta=3\n",
         "explicit channel spec: unexpected token 'theta=3'"),
        (["estimate", "--tally"], "a,b,x,y,count\nz,z,2,0,5\n", "tally line 2: bits"),
        (["estimate", "--tally"], "a,b,x,y,count\nz,z,0,0,5,1\n", "tally line 2: expected 5"),
        (["estimate", "--tally"], "a,b,x,y,count\nz,z,0,0,-5\n", "tally line 2: count -5"),
        (["estimate", "--tally"], f"a,b,x,y,count\nz,z,0,0,{2**63}\n",
         "tally line 2: counts total 2^63"),
        (["estimate", "--tally"], f"a,b,x,y,count\nz,z,0,0,{2**63 - 1}\nz,z,1,1,{2**63 - 1}\n",
         "tally line 3: counts total 2^63"),
        (["decode", "--syndrome", "s", "--observed", "o", "--channel", "c", "--matrix"],
         _truncated_alist, "before column 6 of 12"),
        (["decode", "--syndrome", "s", "--observed", "o", "--channel", "c", "--matrix"],
         _alist_declaring_a_million_rows, "alist line 4: expected m=1000000 row weights, got 6"),
        (["decode", "--syndrome", "s", "--observed", "o", "--channel", "c", "--matrix"],
         "3 2\n2 2\n2 1 1\n2 2\n1 1\n2\n2\n", "alist line 5: check index 1 repeated"),
        (["decode", "--syndrome", "s", "--observed", "o", "--channel", "c", "--matrix"],
         "2 1\n2 2\n2 1\n2\n-3 1\n1\n1 2\n", "alist line 5: negative check index -3"),
        (["decode", "--matrix", VALID_ALIST, "--observed", "o", "--channel", "c", "--syndrome"],
         "# syndrome\nhex 8\n", "line 2: expected 'hex <nbits> <digits>'"),
        (["decode", "--matrix", VALID_ALIST, "--observed", "o", "--channel", "c", "--syndrome"],
         "hex 16 ab\n", "line 1: expected 'hex <nbits> <digits>' (bit count 16 not in 0..8)"),
        (["decode", "--matrix", VALID_ALIST, "--observed", "o", "--channel", "c", "--syndrome"],
         "hex -2 ab\n", "line 1: expected 'hex <nbits> <digits>' (bit count -2 not in 0..8)"),
        (["decode", "--matrix", VALID_ALIST, "--observed", "o", "--channel", "c", "--syndrome"],
         "11011\n", "input holds 5 bits, the matrix has m=6"),
        (["simulate", "--config"], "protocol=bb84\nn_signals=abc\n",
         "config line 2, key 'n_signals'"),
        (["simulate", "--config"], "protocol=bb84\nmargin=inf\n",
         "margin must be inside (0, 1], got inf"),
        (["simulate", "--config"], "protocol=bb84\nepsilon=inf\n",
         "epsilon must be inside [0, 1], got inf"),
        (["simulate", "--config"],
         "protocol=bb84\nn_signals=20000\nchannel=kind=amplitude_damping p=0.05\nmargin=1e308\n",
         "margin must be inside (0, 1], got 1e+308"),
        (["simulate", "--config"],
         "protocol=bb84\nn_signals=20000\nchannel=kind=amplitude_damping p=0.05\nepsilon=1e308\n",
         "epsilon must be inside [0, 1], got 1e+308"),
        (["simulate", "--config"], "protocol=bb84\nseed_code=-1\n",
         "seed_code must be nonnegative, got -1"),
        (["simulate", "--config"],
         "protocol=bb84\nchannel=kind=explicit 2 0 0 0 1 0 0 0 1 0 0 0\nn_signals=20000\n",
         "channel is not completely positive"),
        (["simulate", "--config"], "protocol=bb84\nchannel=kind=rotation theta=0.3 p=0.2\n",
         "config line 2, key 'channel': rotation channel spec: unexpected token 'p=0.2'"),
        (["simulate", "--config"], "protocol=bb84\nmargin = 0.1\n# again\nMargin=0.9\n",
         "config line 4: key 'margin' repeats line 2"),
        (["estimate", "--protocol", "sixstate", "--tally"],
         "a,b,x,y,count\nz,z,0,0,5\nz,x,0,1,5\nx,z,1,0,5\nx,x,1,1,5\n",
         "six-state estimation needs tallies in all three bases"),
        (["rates", "--channel-family", "rotation", "--from", "0", "--to", "nan", "--steps", "3",
          "--out"], "", "sweep range 0.0..nan is not finite"),
        # sizes numpy refuses before it touches memory (10^15 elements)
        (["simulate", "--config"], "protocol=bb84\nn_signals=1000000000000000\n",
         "Unable to allocate"),
        (["rates", "--channel-family", "rotation", "--from", "0", "--to", "1",
          "--steps", "1000000000000000", "--out"], "", "Unable to allocate"),
    ],
    ids=["spec-without-p", "spec-nan", "spec-inf", "spec-not-physical", "spec-repeated-kind",
         "spec-other-kinds-key", "spec-extra-key-and-number", "spec-number-after-named-kind",
         "spec-key-after-explicit", "tally-bit-2",
         "tally-six-fields", "tally-negative-count", "tally-count-overflow", "tally-total-overflow",
         "truncated-alist", "alist-row-weights", "alist-repeated-check", "alist-negative-check",
         "hex-two-fields", "hex-more-bits-than-digits",
         "hex-negative-bits", "syndrome-wrong-length", "config-int", "config-margin-inf",
         "config-epsilon-inf", "config-margin-huge", "config-epsilon-huge", "config-seed-negative", "config-channel-not-physical",
         "config-channel-extra-key", "config-repeated-key", "sixstate-tally-without-y", "rates-nan",
         "config-n-signals-huge", "rates-steps-huge"],
)
def test_malformed_input_is_a_one_line_usage_error(tmp_path, capsys, argv, body, message):
    path = tmp_path / "input"
    if callable(body):
        body(path)
    else:
        path.write_text(body)
    if VALID_ALIST in argv:
        alist = tmp_path / "code.alist"
        write_alist(gen_parity_check(12, 6, seed=1), alist)
        argv = [str(alist) if a == VALID_ALIST else a for a in argv]
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_missing_file_exit_code():
    assert main(["estimate", "--tally", "/nonexistent/tally.csv"]) == 1
