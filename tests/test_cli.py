import numpy as np
import pytest

from qkdpost.channels import Basis, joint_distribution, make_amplitude_damping, make_rotation
from qkdpost.cli import main, read_bits, write_bits
from qkdpost.entropy import JointDistribution
from qkdpost.reconciliation import gen_parity_check, syndrome, write_alist
from qkdpost.tomography import SIXSTATE_BASES, exact_tally


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


def test_estimate_command(tmp_path, capsys):
    tally = exact_tally(make_amplitude_damping(0.2), SIXSTATE_BASES)
    path = tmp_path / "tally.csv"
    tally.to_csv(path)
    assert main(["estimate", "--tally", str(path)]) == 0
    out = capsys.readouterr().out
    assert "direct: ambiguity=" in out
    assert "conventional_sixstate=" in out


def test_estimate_bb84_from_sixstate_tally(tmp_path, capsys):
    tally = exact_tally(make_rotation(0.7), SIXSTATE_BASES)
    path = tmp_path / "tally.csv"
    tally.to_csv(path)
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
    code = gen_parity_check(1200, 740, 3, seed=21)
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


def test_bit_file_formats(tmp_path):
    path = tmp_path / "bits.txt"
    write_bits(path, np.array([1, 0, 1, 1], np.uint8))
    assert read_bits(path).tolist() == [1, 0, 1, 1]
    hexpath = tmp_path / "hex.txt"
    hexpath.write_text("hex 4 b0\n")
    assert read_bits(hexpath).tolist() == [1, 0, 1, 1]


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


def test_usage_error_exit_code():
    assert main(["rates", "--channel-family", "amplitude_damping"]) == 1
    assert main(["bogus-command"]) == 1


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
    write_alist(gen_parity_check(12, 6, 3, seed=1), path)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:9]))


VALID_ALIST = "<valid alist>"


@pytest.mark.parametrize(
    "argv, body, message",
    [
        (["bound", "--channel"], "kind=amplitude_damping\n", "missing p="),
        (["estimate", "--tally"], "a,b,x,y,count\nz,z,2,0,5\n", "tally line 2: bits"),
        (["estimate", "--tally"], "a,b,x,y,count\nz,z,0,0,5,1\n", "tally line 2: expected 5"),
        (["decode", "--syndrome", "s", "--observed", "o", "--channel", "c", "--matrix"], None,
         "before column 6 of 12"),
        (["decode", "--matrix", VALID_ALIST, "--observed", "o", "--channel", "c", "--syndrome"],
         "# syndrome\nhex 8\n", "line 2: expected 'hex <nbits> <digits>'"),
        (["simulate", "--config"], "protocol=bb84\nn_signals=abc\n",
         "config line 2, key 'n_signals'"),
    ],
    ids=["spec-without-p", "tally-bit-2", "tally-six-fields", "truncated-alist", "hex-two-fields",
         "config-int"],
)
def test_malformed_input_is_a_one_line_usage_error(tmp_path, capsys, argv, body, message):
    path = tmp_path / "input"
    if body is None:
        _truncated_alist(path)
    else:
        path.write_text(body)
    if VALID_ALIST in argv:
        alist = tmp_path / "code.alist"
        write_alist(gen_parity_check(12, 6, 3, seed=1), alist)
        argv = [str(alist) if a == VALID_ALIST else a for a in argv]
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_missing_file_exit_code():
    assert main(["estimate", "--tally", "/nonexistent/tally.csv"]) == 1
