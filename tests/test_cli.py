import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nsq
from nsq.cli import UsageError, build_parser, main
from nsq.rgf import from_json_dict, rgf_rational
from nsq.semigroup import GeneratorList


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_process(*argv):
    """(exit code, stderr) of `python -m nsq.cli` in a fresh interpreter,
    where an uncaught exception would print a traceback."""
    src = str(Path(nsq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "nsq.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stderr


class TestBasicCommands:
    def test_quotient_minimal_text(self, capsys):
        code, out, _ = run(capsys, "quotient", "minimal", "--gens", "5,6", "--p", "3")
        assert code == 0
        assert out.strip() == "2 5"

    @pytest.mark.parametrize("argv, answer", [
        (("frobenius", "--gens", "3,5", "--p", "1000000000"), "NONE"),
        (("minimal", "--gens", "3,5", "--p", "200000000"), "1"),
    ])
    def test_quotient_at_large_p(self, capsys, argv, answer):
        # read off Ap(<A>, m): no cells of <A> up to p are charged
        code, out, err = run(capsys, "quotient", *argv)
        assert (code, out, err) == (0, answer + "\n", "")

    def test_frobenius(self, capsys):
        code, out, _ = run(capsys, "frobenius", "--gens", "3,5")
        assert code == 0 and out.strip() == "7"

    def test_frobenius_none_json(self, capsys):
        code, out, _ = run(capsys, "frobenius", "--gens", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"frobenius": None}

    def test_membership(self, capsys):
        code, out, _ = run(capsys, "membership", "--gens", "3,5", "--bound", "10")
        assert code == 0 and out.strip() == "0 3 5 6 8 9 10"

    def test_apery_and_gaps(self, capsys):
        code, out, _ = run(capsys, "apery", "--gens", "3,5", "--m", "3")
        assert code == 0 and out.strip() == "0 10 5"
        code, out, _ = run(capsys, "gaps", "--gens", "3,5")
        assert code == 0 and out.strip() == "1 2 4 7"

    def test_denumerant(self, capsys):
        code, out, _ = run(capsys, "denumerant", "--gens", "3,5", "--n", "15")
        assert code == 0 and out.strip() == "2"

    def test_tp_rows(self, capsys):
        code, out, _ = run(capsys, "tp", "--gens", "4,11", "--p", "3")
        assert code == 0
        assert out.splitlines() == ["(1,1) -> 5", "(2,2) -> 10"]


class TestRgfCommands:
    def test_rational_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "rgf", "rational", "--gens", "3,5",
                           "--p", "2", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["num"] == {"0": 1, "4": 1}
        assert d["den"] == [3, 5]
        assert from_json_dict(d) == rgf_rational(GeneratorList.of(3, 5), 2)

    def test_rational_text(self, capsys):
        code, out, _ = run(capsys, "rgf", "rational", "--gens", "3,5", "--p", "2")
        assert code == 0
        assert out.strip() == "(1 + x^4)/((1-x^3)*(1-x^5))"

    def test_verify_passes(self, capsys):
        code, _, err = run(capsys, "rgf", "rational", "--gens", "4,11,14",
                           "--p", "3", "--verify")
        assert code == 0 and err == ""

    def test_verify_catches_a_wrong_closed_form(self, capsys, monkeypatch):
        import nsq.rgf

        right = nsq.rgf.rgf_rational

        def wrong(A, p, cap):
            r = right(A, p, cap=cap)
            return r._replace(numerator=r.numerator[:-1] + (r.numerator[-1] + 1,))

        monkeypatch.setattr(nsq.rgf, "rgf_rational", wrong)
        code, out, err = run(capsys, "rgf", "rational", "--gens", "4,11,14",
                             "--p", "3", "--verify")
        assert (code, out) == (4, "")
        assert err == "verify: closed form disagrees with series\n"

    def test_verify_horizon_over_cap(self, capsys):
        # the closed form is cheap, but its verify horizon is 971,305,289
        code, _, err = run(capsys, "rgf", "rational", "--gens", "997,991,983",
                           "--p", "2", "--verify")
        assert code == 3 and "cap" in err


class TestCtCommand:
    def test_expr(self, capsys):
        code, out, _ = run(capsys, "ct", "--expr",
                           "1/((1 - x*L^-2)*(1 - L^3))")
        assert code == 0
        assert "CT = (1)/(1 - x^3)" in out

    def test_gens_path_matches_series(self, capsys):
        code, out, _ = run(capsys, "ct", "--gens", "3,5", "--p", "2", "--verify")
        assert code == 0
        assert "(1 + x^4)" in out

    def test_non_coprime_fallback(self, capsys):
        code, out, err = run(capsys, "ct", "--gens", "4,8,11", "--p", "3")
        assert code == 0
        assert "CT path unavailable; series path used" in err
        assert out.strip()

    @pytest.mark.parametrize("expr, shown", [
        ("0/((1 - L))", "0/((1 - L))"),
        ("0*x*L^2/((1-2*x*L))", "0/((1 - 2*x*L))"),
    ])
    def test_zero_numerator(self, capsys, expr, shown):
        code, out, err = run(capsys, "ct", "--expr", expr)
        assert (code, out, err) == (0, f"{shown}\nCT = (0)/(1)\n", "")

    @pytest.mark.parametrize("expr, shown", [
        ("1/((1 - 0*L)*(1 - L))", "1/((1 - L))"),
        ("1/((1 - 0*L))", "1/(1)"),
    ])
    def test_zero_coefficient_factor_is_dropped(self, capsys, expr, shown):
        code, out, err = run(capsys, "ct", "--expr", expr)
        assert (code, out, err) == (0, f"{shown}\nCT = (1)/(1)\n", "")


    def test_verify_catches_a_wrong_closed_form(self, capsys, monkeypatch):
        import nsq.rgf

        right = nsq.rgf._closed_form

        def wrong(A, p, cap):
            r = right(A, p, cap)
            return r._replace(numerator=(r.numerator[0] + 1,) + r.numerator[1:])

        monkeypatch.setattr(nsq.rgf, "_closed_form", wrong)
        code, out, err = run(capsys, "ct", "--gens", "3,5", "--p", "2",
                             "--verify")
        assert (code, out) == (4, "")
        assert err == "verify: CT path disagrees with series path\n"

    def test_verify_catches_a_wrong_ct_answer(self, capsys, monkeypatch):
        import nsq.ctengine
        from nsq.exactalg import RationalFunction

        right = nsq.ctengine.ct_rgf_rational
        monkeypatch.setattr(
            nsq.ctengine, "ct_rgf_rational",
            lambda A, p, cap: right(A, p, cap) + RationalFunction.monomial(1, 1))
        code, out, err = run(capsys, "ct", "--gens", "3,5", "--p", "2",
                             "--verify")
        assert (code, out) == (4, "")
        assert err == "verify: CT path disagrees with series path\n"

    def test_verify_builds_no_frobenius_sieve(self):
        # the F(A) sieve of 100751377 cells would exceed the default cap;
        # the check reads only the closed form's numerator and factors
        src = str(Path(nsq.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "nsq.cli", "ct", "--gens",
                "10007,10009,10037", "--p", "2"]
        env = {**os.environ, "PYTHONPATH": src}
        plain, checked = (
            subprocess.run(argv + extra, capture_output=True, text=True,
                           env=env, timeout=60) for extra in ([], ["--verify"]))
        assert (checked.returncode, checked.stderr) == (0, "")
        assert checked.stdout == plain.stdout and plain.returncode == 0

    def test_remainder_is_charged_before_it_is_built(self):
        # the remainder fills every L-exponent from -4000 up, with x-degrees
        # growing along the way: 177 MiB before this charge
        expr = "x*L^-4000/((1 - x*L)*(1 - x^2*L^3))"
        start = time.perf_counter()
        code, err = run_process("ct", "--expr", expr, "--sieve-cap", "1000")
        assert time.perf_counter() - start < 1
        assert (code, err) == (3, "cap exceeded: partial fraction remainder "
                                  "of 26714688 cells exceeds cap 1000\n")

    def test_large_exit_normalisation(self):
        # the result's Euclid gcd has degree 97 between degrees 318 and
        # 371; atom-wise cancellation needs no Euclid at all
        src = str(Path(nsq.__file__).resolve().parents[1])
        expr = "1/((1 - 3*x*L^40)*(1 - 5*x^2*L^-37)*(1 - 7*x^3*L^23))"
        proc = subprocess.run(
            [sys.executable, "-m", "nsq.cli", "ct", "--expr", expr,
             "--format", "json"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        ct = json.loads(proc.stdout)["ct"]
        assert (max(map(int, ct["num"])), max(map(int, ct["den"]))) == (221, 274)


class TestVerifyCommand:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--gens", "5,6", "--p", "3")
        assert code == 0
        assert "result: pass" in out


class TestExitCodes:
    def test_usage(self, capsys):
        assert run(capsys, "denumerant", "--gens", "3,5")[0] == 1
        assert run(capsys, "frobenius", "--gens", "3,a")[0] == 1

    def test_domain(self, capsys):
        code, _, err = run(capsys, "frobenius", "--gens", "4,6")
        assert code == 2 and err

    def test_cap(self, capsys):
        code, _, err = run(capsys, "frobenius", "--gens", "101,103",
                           "--sieve-cap", "100")
        assert code == 3 and "cap" in err

    @pytest.mark.parametrize("argv, cells, cap", [
        (("apery", "--gens", "3,5", "--m", "200000000"), 200000009, 100000000),
        (("apery", "--gens", "3,5", "--m", "1000", "--sieve-cap", "500"),
         1009, 500),
        (("quotient", "membership", "--gens", "3,5", "--p", "2", "--bound",
          "100000000"), 200000001, 100000000),
        (("quotient", "membership", "--gens", "3,5", "--p", "3", "--bound",
          "40", "--sieve-cap", "100"), 121, 100),
    ])
    def test_cap_on_ranges_read_off_the_table(self, capsys, argv, cells, cap):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"cap exceeded: sieve of {cells} cells exceeds cap {cap}\n"

    def test_verify_honours_tp_cap(self, capsys):
        argv = ("--gens", "5,7,11,13", "--p", "5", "--tp-cap", "10")
        for cmd in (("tp",), ("quotient", "gens"), ("verify",)):
            code, out, err = run(capsys, *cmd, *argv)
            assert (code, out) == (3, ""), cmd
            assert err.startswith("cap exceeded: ") and "tuples" in err

    def test_table1_honours_tp_cap(self, capsys):
        argv = ("quotient", "table1", "--gens", "2,3,5", "--p", "3")
        assert run(capsys, *argv) == (0, "1 2 3 4 5\n", "")
        assert run(capsys, *argv, "--tp-cap", "0") == (
            3, "", "cap exceeded: 9 tuples exceed cap 0\n")

    @pytest.mark.parametrize("argv, flag", [
        (("membership", "--gens", "3,5", "--bound", "10"), "--tp-cap"),
        (("frobenius", "--gens", "3,5"), "--tp-cap"),
        (("gaps", "--gens", "3,5"), "--tp-cap"),
        (("minimal-gens", "--gens", "3,5"), "--tp-cap"),
        (("apery", "--gens", "3,5", "--m", "3"), "--tp-cap"),
        (("denumerant", "--gens", "3,5", "--n", "15"), "--tp-cap"),
        (("rgf", "series", "--gens", "3,5", "--p", "2"), "--tp-cap"),
        (("ct", "--gens", "3,5", "--p", "2"), "--tp-cap"),
        (("ct", "--expr", "1/((1 - x*L))"), "--tp-cap"),
        (("tp", "--gens", "4,11", "--p", "3"), "--sieve-cap"),
    ])
    def test_a_cap_the_command_does_not_charge_is_a_usage_error(
            self, capsys, argv, flag):
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv, flag, "0") == (
            1, "", f"usage error: unrecognized arguments: {flag} 0\n")

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("NSQ_SIEVE_CAP", "100")
        assert run(capsys, "frobenius", "--gens", "101,103")[0] == 3

    def test_zero_caps_are_honoured(self, capsys):
        assert run(capsys, "frobenius", "--gens", "3,5", "--sieve-cap", "0")[0] == 3
        assert run(capsys, "tp", "--gens", "4,11", "--p", "3", "--tp-cap", "0")[0] == 3

    def test_negative_cap_is_usage_error(self, capsys):
        assert run(capsys, "frobenius", "--gens", "3,5", "--sieve-cap", "-1")[0] == 1
        assert run(capsys, "tp", "--gens", "4,11", "--p", "3", "--tp-cap", "-1")[0] == 1

    @pytest.mark.parametrize("argv", [
        ("membership", "--gens", "3,5", "--bound", "-1"),
        ("denumerant", "--gens", "3,5", "--trunc", "-1"),
        ("ct", "--expr", "1/((1-1))"),
    ])
    def test_bad_input_exits_without_traceback(self, argv):
        code, err = run_process(*argv)
        assert code in (1, 2)
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("rgf", "rational", "--gens", "3,5", "--p", "2"),
        ("rgf", "gens", "--gens", "3,5", "--p", "2"),
        ("rgf", "frobenius", "--gens", "3,5", "--p", "2"),
        ("ct", "--gens", "4,8,11", "--p", "3"),
        ("ct", "--gens", "3,5", "--p", "2", "--verify"),
    ])
    def test_zero_sieve_cap_covers_rgf(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--sieve-cap", "0")
        assert code == 3 and "cap" in err

    def test_ct_expr_honours_sieve_cap(self):
        start = time.perf_counter()
        code, err = run_process("ct", "--expr", "1/((1 - L^2000)*(1 - x*L))",
                                "--sieve-cap", "100000")
        assert time.perf_counter() - start < 1  # the rings are never built
        assert code == 3 and "Traceback" not in err
        assert err == ("cap exceeded: residue rings of 4004001 cells "
                       "exceed cap 100000\n")

    def test_ct_expr_charges_the_normal_form(self):
        start = time.perf_counter()
        code, err = run_process("ct", "--expr", "1/((1-x^4000000))",
                                "--sieve-cap", "10")
        assert time.perf_counter() - start < 1  # no dense list is built
        assert code == 3 and "Traceback" not in err
        assert err == ("cap exceeded: normal form of 4000001 coefficients "
                       "exceeds cap 10\n")

    def test_closed_stdout_is_not_an_error(self):
        # about 1.4 MB of output, more than any pipe buffer holds, so a
        # write fails once the reader has gone
        src = str(Path(nsq.__file__).resolve().parents[1])
        with subprocess.Popen(
                [sys.executable, "-m", "nsq.cli", "membership", "--gens",
                 "300,301", "--bound", "200000"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src}) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_internal_value_error_is_internal(self, capsys, monkeypatch):
        import nsq.semigroup

        def broken(A, cap):
            raise ValueError("membership at 9 exceeds uncertified bound 5")

        monkeypatch.setattr(nsq.semigroup, "frobenius", broken)
        code, out, err = run(capsys, "frobenius", "--gens", "3,5")
        assert (code, out) == (4, "")
        assert err.startswith("internal error: ValueError(")

    @pytest.mark.parametrize("argv, message", [
        (("frobenius", "--gens", "3,,5"), "cannot parse generator list '3,,5'"),
        (("quotient", "gens", "--gens", "3,0", "--p", "2"),
         "cannot parse generator list '3,0'"),
        # --p is checked before the gcd(A) = 1 check of the library
        (("rgf", "rational", "--gens", "2,4", "--p", "0"),
         "p must be a positive integer"),
        (("ct", "--gens", "3,5", "--p", "-1"), "p must be a positive integer"),
        (("ct", "--expr", "1/((1 - x*L^-2)"), "unexpected end of expression"),
        (("ct", "--expr", "1/((1 - y))"), "bad token at ' y))'"),
    ])
    def test_user_input_is_usage_error(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"usage error: {message}\n")

    def test_malformed_env_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NSQ_TP_CAP", "ten")
        code, out, err = run(capsys, "tp", "--gens", "4,11", "--p", "3")
        assert (code, out) == (1, "")
        assert err == ("usage error: invalid literal for int() with base 10: "
                       "'ten'\n")

    def test_unexpected_exception_is_internal(self, capsys, monkeypatch):
        import nsq.semigroup

        def broken(A, cap):
            raise IndexError("boom\nsecond line")

        monkeypatch.setattr(nsq.semigroup, "frobenius", broken)
        code, out, err = run(capsys, "frobenius", "--gens", "3,5")
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and "IndexError" in err


def test_frobenius_loads_only_the_semigroup_layer():
    src = str(Path(nsq.__file__).resolve().parents[1])
    code = ("import sys; from nsq.cli import main; "
            "main(['frobenius', '--gens', '3,5']); print(*sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[0] == "7"
    loaded = set(out[1].split())
    assert {m for m in loaded if m.split(".")[0] == "nsq"} == {
        "nsq", "nsq.cli", "nsq.errors", "nsq.semigroup"}
    assert "fractions" not in loaded and "json" not in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


@pytest.mark.parametrize("argv", [
    ("denumerant", "--gens", "3,5", "--n", "15"),
    ("rgf", "series", "--gens", "3,5", "--p", "2"),
    ("rgf", "frobenius", "--gens", "3,5", "--p", "2"),
    ("rgf", "rational", "--gens", "4,11,14", "--p", "3", "--verify"),
])
def test_series_commands_load_no_kernel(argv):
    src = str(Path(nsq.__file__).resolve().parents[1])
    code = ("import sys; from nsq.cli import main; "
            "code = main(sys.argv[1:]); print(code, *sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, *loaded = proc.stdout.splitlines()[-1].split()
    assert status == "0"
    assert not {"nsq.exactalg", "fractions", "dataclasses"} & set(loaded)


def test_lazy_exports():
    for name in nsq.__all__:
        assert getattr(nsq, name) is not None
    assert set(nsq.__all__) <= set(dir(nsq))
    assert nsq.semigroup.frobenius is nsq.frobenius
    with pytest.raises(AttributeError):
        nsq.no_such_name
    with pytest.raises(ImportError):
        from nsq import no_such_name  # noqa: F401


# in-process fuzzing over every subcommand: small generators keep each
# example cheap; malformed values are mixed in on purpose
_GENS = st.lists(st.integers(1, 9), min_size=1, max_size=3).map(
    lambda g: ",".join(map(str, g)))
_SMALL = st.integers(-1, 40).map(str)
_MONOMIAL = st.builds("{}*x^{}*L^{}".format, st.integers(-2, 2),
                      st.integers(0, 3), st.integers(-3, 3))
_EXPR = st.builds(
    lambda num, facs, cut: (f"{num}/(" + "*".join(
        f"(1 - {m})" for m in facs) + ")")[:cut],
    _MONOMIAL, st.lists(_MONOMIAL, min_size=1, max_size=3),
    st.one_of(st.none(), st.integers(0, 20)))
_OPTIONS = {
    "--gens": _GENS, "--p": st.sampled_from("0123"), "--bound": _SMALL,
    "--m": _SMALL, "--n": _SMALL, "--trunc": _SMALL, "--expr": _EXPR,
    "--sieve-cap": st.integers(-1, 300).map(str),
    "--tp-cap": st.integers(-1, 30).map(str),
}
# each command's own flags, its cap flags included: a cap flag that the
# command does not charge is a usage error
_SIEVE, _TP, _BOTH = ("--sieve-cap",), ("--tp-cap",), ("--sieve-cap", "--tp-cap")
_COMMANDS = {
    "membership": ("--bound", *_SIEVE), "frobenius": _SIEVE, "gaps": _SIEVE,
    "minimal-gens": _SIEVE, "apery": ("--m", *_SIEVE),
    "denumerant": ("--n", "--trunc", *_SIEVE),
    "quotient": ("--p", "--bound", *_BOTH), "tp": ("--p", *_TP),
    "rgf": ("--p", "--trunc", "--verify", *_SIEVE),
    "ct": ("--p", "--expr", "--verify", *_SIEVE), "verify": ("--p", *_BOTH),
}
_ACTIONS = {"quotient": ("gens", "minimal", "membership", "frobenius",
                         "table1"),
            "rgf": ("series", "rational", "frobenius", "gens")}


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [cmd]
    if cmd in _ACTIONS:
        argv.append(draw(st.sampled_from(_ACTIONS[cmd])))
    for flag in ("--gens", *_COMMANDS[cmd], "--format"):
        if not draw(st.sampled_from(range(8))):  # drop a flag now and then
            continue
        if flag == "--verify":
            argv.append(flag)
        elif flag == "--format":
            argv += [flag, draw(st.sampled_from(["text", "json"]))]
        else:
            argv += [flag, draw(_OPTIONS[flag])]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5)
    if code == 0 and "json" in argv:
        json.loads(out.getvalue())


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_cli_fuzz_never_internal(argv):
    # every malformed input is refused at the boundary with exit 1, 2 or 3
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code != 4, err.getvalue()


def _full_parser_says(argv):
    """(stdout, usage-error message) of the full `nsq` parser on argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            build_parser().parse_args(argv)
        except UsageError as exc:
            return out.getvalue(), str(exc)
        except SystemExit:
            pass
    return out.getvalue(), None


@pytest.mark.parametrize("cmd", sorted(_COMMANDS))
def test_subcommand_parser_reads_as_the_full_parser(capsys, cmd):
    help_text, _ = _full_parser_says([cmd, "--help"])
    assert help_text.startswith(f"usage: nsq {cmd} ")
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (help_text, "")

    # --gens is required except on ct, whose --gens without a value fails
    argv = [cmd, *_ACTIONS.get(cmd, ())[:1]] + (["--gens"] if cmd == "ct" else [])
    _, message = _full_parser_says(argv)
    assert "--gens" in message
    assert run(capsys, *argv) == (1, "", f"usage error: {message}\n")
