"""CLI surface: subcommands, formats, determinism, file output."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from ar1lab import families as fam
from ar1lab import montecarlo as mc
from ar1lab.cli import build_parser, main
from ar1lab.errors import InvariantError
from ar1lab.exact.polynomial import Polynomial
from ar1lab.exact.rational import parse_rational
from ar1lab.persistence import persistence_exact


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_poly_json(capsys):
    rc, out = run_cli(capsys, ["poly", "--family", "J", "--nmax", "3", "--format", "json"])
    assert rc == 0
    records = json.loads(out)
    assert records[2] == {"family": "J", "n": 3, "coefficients": ["2", "1"]}


def _polynomial(strings) -> Polynomial:
    return Polynomial(parse_rational(c) for c in strings)


def test_poly_default_csv_reads_back_as_the_family(capsys):
    rc, out = run_cli(capsys, ["poly", "--nmax", "5"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["family"], int(r["n"])) for r in rows] == [("J", n) for n in range(1, 6)]
    for n, row in enumerate(rows, start=1):
        assert _polynomial(json.loads(row["coefficients"])) == fam.mallows_riordan(n)


@pytest.mark.parametrize("family, poly", [("Jt", fam.j_tilde), ("Jh", fam.j_hat)])
def test_poly_inverse_families_read_back(capsys, family, poly):
    rc, out = run_cli(capsys, ["poly", "--family", family, "--nmax", "6", "--format", "json"])
    assert rc == 0
    records = json.loads(out)
    assert [(r["family"], r["n"]) for r in records] == [(family, n) for n in range(1, 7)]
    for r in records:
        assert _polynomial(r["coefficients"]) == poly(r["n"])


def test_persist_json_reads_back_as_exact_rationals(capsys):
    rc, out = run_cli(capsys, ["persist", "--nmax", "4", "--theta", "4/5", "--theta", "-2", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 10
    for row in rows:
        p = parse_rational(row["p_exact"])
        assert p == persistence_exact(row["n"], parse_rational(row["theta"]))
        assert row["p_float"] == repr(float(p))
    assert rows[3]["region_tag"] == "fibonacci-window"
    assert rows[3]["p_exact"] == "4181/15360"
    assert rows[9]["region_tag"] == "inverse-negative"


def test_rates_json_carries_the_csv_values(capsys):
    argv = ["rates", "--theta", "-1", "--theta", "4"]
    rc, out = run_cli(capsys, argv)
    assert rc == 0
    rc, js = run_cli(capsys, argv + ["--format", "json"])
    assert rc == 0
    records = json.loads(js)
    for row, rec in zip(csv.DictReader(io.StringIO(out)), records, strict=True):
        assert rec["residuals"] == json.loads(row.pop("residuals"))
        assert {k: "" if v is None else repr(v) for k, v in rec.items() if k != "residuals"} == row
    assert set(records[0]["residuals"]) == {"root"} and records[1]["residuals"] == {}
    assert records[1]["ell"] == pytest.approx(0.4638172846823155, abs=1e-12)


def test_poly_tutte_nested(capsys):
    rc, out = run_cli(capsys, ["poly", "--family", "tutte", "--nmax", "3", "--format", "json"])
    assert rc == 0
    records = json.loads(out)
    assert records[2]["coefficients"] == [[], ["3", "1"], ["3"], ["1"]]


def test_poly_negative_scan_finds_witness(capsys):
    rc, out = run_cli(capsys, ["poly", "--family", "J", "--nmax", "6", "--scan-negative"])
    assert rc == 0
    payload = json.loads(out)
    hits = {(w["n"], w["theta"]) for w in payload["negative_witnesses"] if w["kind"] == "value"}
    assert (4, "-2") in hits


def test_poly_checked_routes_and_other_families(capsys):
    rc, out = run_cli(capsys, ["poly", "--family", "J", "--nmax", "6", "--check-routes", "--format", "json"])
    assert rc == 0 and json.loads(out)[5]["coefficients"][0] == "120"
    rc, out = run_cli(capsys, ["poly", "--family", "zigzag", "--nmax", "6", "--format", "json"])
    assert json.loads(out)[4]["coefficients"] == ["16"]  # A_5
    assert json.loads(out)[5]["coefficients"] == ["61"]  # A_6
    rc, out = run_cli(capsys, ["poly", "--family", "C", "--nmax", "4", "--format", "json"])
    assert json.loads(out)[3]["coefficients"][0] == "12"  # n!/2 at n = 4
    rc, out = run_cli(capsys, ["poly", "--family", "volume", "--nmax", "2", "--format", "json"])
    assert json.loads(out)[0]["coefficients"] == ["-1", "1"]


def test_simulate_atomic_law(capsys):
    rc, out = run_cli(
        capsys,
        ["simulate", "--law", "atomic", "--atom-mass", "0.4", "--theta", "-2",
         "--n", "2", "--trials", "20000", "--seed", "4"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["exact"] is None
    assert 0 <= payload["estimate"] <= 1


def test_rates_unsupported_band_fails_cleanly(capsys):
    rc = main(["rates", "--theta", "0.75"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        "persist --nmax -1",
        "persist --nmax 3 --a 0",
        "figure --grid 0",
        "figure --grid 11",
        "figure --n 1",
        "verify --nmax -1",
        "simulate --n -1 --trials 10",
        "persist --theta 1/0",
        "persist --theta abc",
        "rates --theta 1/0",
        "figure --grid x",
        "simulate --theta 1/0 --trials 10",
        "volume --kind tutte_q --n 3 --q 1/0 --t 1",
    ],
)
def test_bad_inputs_exit_2_with_an_error_line(capsys, argv):
    rc = main(argv.split())
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, nmax",
    [("poly --nmax 0", 0), ("poly --nmax -2", -2), ("poly --family tutte --nmax -1 --check-routes", -1)],
    ids=["zero", "negative", "check-routes"],
)
def test_poly_below_index_one_exits_2_naming_the_value(capsys, argv, nmax):
    # the families are indexed from 1: an empty range is refused, not printed as a bare header
    rc = main(argv.split())
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: family index must be >= 1; got --nmax {nmax}\n"


@pytest.mark.parametrize(
    "out",
    [lambda tmp: str(tmp), lambda tmp: "", lambda tmp: str(tmp / "file" / "table.csv")],
    ids=["directory", "empty", "under-a-file"],
)
def test_unwritable_out_exits_2_naming_the_path(capsys, monkeypatch, tmp_path, out):
    # the computation runs, then the write fails: no traceback and nothing on stdout
    monkeypatch.delenv("AR1LAB_OUT", raising=False)
    (tmp_path / "file").write_text("")
    path = out(tmp_path)
    rc = main(["persist", "--nmax", "1", "--out", path])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write --out {path!r}: ")


@pytest.mark.parametrize("argv", ["rates --theta 1e400", "simulate --theta 1e400 --trials 10"])
def test_drift_without_a_float_exits_2_naming_it(capsys, argv):
    rc = main(argv.split())
    assert rc == 2
    assert capsys.readouterr().err == "error: drift 1.0e+400 has no float value\n"


@pytest.mark.parametrize("theta", ["11/10", "5/4", "3/2", "199/100"])
def test_rates_between_one_and_two_exits_2_naming_the_drift(capsys, theta):
    rc = main(["rates", "--theta", theta])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: drift {float(parse_rational(theta)):g} is in (1, 2), ")
    assert err.count("\n") == 1


def test_rates_fits_c_where_mu_to_the_n_overflows(capsys):
    rc, out = run_cli(capsys, ["rates", "--theta=-1e10"])
    assert rc == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert float(row["c_estimate"]) == pytest.approx(2e-10, rel=1e-6)


@pytest.mark.parametrize(
    "value, skipped",
    [
        ("-1e16", "first_negative_root"),
        ("-1e300", "first_negative_root"),
        ("1e26", "ell_mp"),
        ("1e300", "ell_mp"),
    ],
)
def test_rates_past_the_float_range_exits_2_naming_the_drift(capsys, monkeypatch, value, skipped):
    import ar1lab.asymptotics as asym

    def refused_first(*args):
        raise AssertionError(f"{skipped} ran before the refusal")

    monkeypatch.setattr(asym, skipped, refused_first)
    rc = main(["rates", f"--theta={value}"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: drift {float(value):g} ")


@pytest.mark.parametrize("side", ["a", "b"])
def test_uniform_support_without_a_float_exits_2_naming_it(capsys, monkeypatch, side):
    import ar1lab.montecarlo as mc

    def refused_first(*args):
        raise AssertionError("the exact target ran before the refusal")

    monkeypatch.setattr(mc, "persistence_exact", refused_first)
    rc = main(["simulate", f"--{side}", "1e400", "--trials", "10"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: half-width {side} 1.0e+400 has no float value\n"


@pytest.mark.parametrize(
    "theta, tables, limits",
    # at drift >= 2 only the limit is exact; the rates come from the root ladder
    [("7/3", set(), {Fraction(7, 3)}), ("-7/5", {Fraction(-5, 7)}, set())],
)
def test_rates_reads_exact_values_at_the_typed_drift(capsys, monkeypatch, theta, tables, limits):
    import ar1lab.asymptotics as asym
    import ar1lab.persistence as pers

    seen_tables, seen_limits = set(), set()
    scalar_families, ell_mp = pers.scalar_families, asym.ell_mp

    def record_table(th):
        seen_tables.add(Fraction(th))
        return scalar_families(th)

    def record_limit(th, dps):
        seen_limits.add(th)
        return ell_mp(th, dps)

    monkeypatch.setattr(pers, "scalar_families", record_table)
    monkeypatch.setattr(asym, "ell_mp", record_limit)
    rc, _ = run_cli(capsys, ["rates", f"--theta={theta}"])
    assert rc == 0
    assert seen_tables == tables
    assert seen_limits == limits


def test_rates_fits_c_from_exact_p_n_at_the_typed_drift(capsys):
    from ar1lab.asymptotics import decay_rate
    from ar1lab.persistence import persistence_prefix

    rc, out = run_cli(capsys, ["rates", "--theta=-7/5"])
    assert rc == 0
    row = next(csv.DictReader(io.StringIO(out)))
    p30 = persistence_prefix(30, Fraction(-7, 5))[30]
    assert row["c_estimate"] == repr(float(1 / (p30 * Fraction(decay_rate(-1.4).mu) ** 30)))


def test_simulate_hands_exact_drift_and_support_to_the_exact_target(capsys, monkeypatch):
    import ar1lab.montecarlo as mc

    calls = []
    exact = mc.persistence_exact

    def record(n, theta, a, b):
        calls.append((n, theta, a, b))
        return exact(n, theta, a, b)

    monkeypatch.setattr(mc, "persistence_exact", record)
    argv = "simulate --law uniform --a 1/3 --theta 4/5 --n 6 --trials 1000"
    rc, _ = run_cli(capsys, argv.split())
    assert rc == 0
    assert calls == [(6, Fraction(4, 5), Fraction(1, 3), Fraction(1))]
    assert all(type(v) is Fraction for v in calls[0][1:])


def test_simulate_above_drift_one_reaches_a_deep_exact_target(capsys):
    # uncut, the window oracle's densities at 3/2 double their pieces at every step
    argv = "simulate --law uniform --theta 3/2 --n 40 --trials 1000 --seed 1"
    rc, out = run_cli(capsys, argv.split())
    assert rc == 0
    assert json.loads(out)["exact"] == float(persistence_exact(40, Fraction(3, 2)))


@pytest.mark.parametrize(
    "argv, exact",
    [
        ("--theta 1 --n 600", math.comb(1200, 600) / 4**600),
        ("--theta 1 --n 600 --a 2 --b 2", math.comb(1200, 600) / 4**600),
        ("--theta 0 --n 40 --a 1/3 --b 1/3", 0.5**40),
    ],
)
def test_simulate_symmetric_uniform_at_drift_one_or_zero_takes_the_universal_law(capsys, monkeypatch, argv, exact):
    # the window oracle at drift 1 grows with n, past 120 s at n = 600
    import ar1lab.montecarlo as mc

    def no_oracle(*args):
        raise AssertionError("the oracle ran where a universal law applies")

    monkeypatch.setattr(mc, "persistence_exact", no_oracle)
    rc, out = run_cli(capsys, ["simulate", "--law", "uniform", *argv.split(), "--trials", "10"])
    assert rc == 0
    assert json.loads(out)["exact"] == exact


def test_persist_table(capsys):
    rc, out = run_cli(capsys, ["persist", "--nmax", "3", "--theta", "4/5"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["p_exact"] == "1"
    assert rows[3]["region_tag"] == "fibonacci-window"
    assert rows[3]["p_exact"] == "4181/15360"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["persist", "--nmax", "20", "--theta", "3/2"], "dbcb3aac6b75f470357260a68a44386fcedf0afa02cad0726d3d4178f7869bc7"),
        (["persist", "--nmax", "16", "--theta", "4/5"], "8a9d3fd4c3ce6ccd6f06de820d6ec0d089cc29b84bf0d1d0318b6d7df4d52c28"),
    ],
    ids=["n=20,3/2", "n=16,4/5"],
)
def test_deep_window_persist_output_is_pinned(capsys, argv, digest):
    # every byte of two window tables deeper than the benchmark's, recorded while
    # the window was answered by one oracle chain (direct, or reflected at 1/theta)
    rc, out = run_cli(capsys, argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command",
    [
        ["persist", "--nmax", "4"],
        ["rates"],
        ["simulate", "--n", "4", "--trials", "2000", "--seed", "5"],
    ],
    ids=["persist", "rates", "simulate"],
)
def test_negative_rational_drift_parses_as_a_separate_argument(capsys, command):
    rc, joined = run_cli(capsys, command + ["--theta=-13/10"])
    assert rc == 0
    rc, separate = run_cli(capsys, command + ["--theta", "-13/10"])
    assert rc == 0
    assert separate == joined
    assert "-13/10" in joined or "-1.3" in joined


@pytest.mark.parametrize("theta", ["1/3", "3"])
def test_persist_prints_rationals_past_the_int_str_limit(capsys, theta):
    # row 150 has a denominator of more than 5000 digits, past the default
    # int -> str limit of 4300 digits
    rc, out = run_cli(capsys, ["persist", "--nmax", "150", "--theta", theta])
    assert rc == 0
    row = list(csv.DictReader(io.StringIO(out)))[150]
    num, den = row["p_exact"].split("/")
    assert len(den) > 4300
    # Decimal parses digit strings of any length, so this is independent of
    # parse_rational, which keeps the int() limit on its input
    got = Fraction(int(Decimal(num)), int(Decimal(den)))
    assert got == persistence_exact(150, parse_rational(theta))


def test_verify_passes(capsys):
    rc, out = run_cli(capsys, ["verify", "--nmax", "4"])
    assert rc == 0
    assert out.count("EXACT PASS") >= 20
    assert "FAIL" not in out.replace("EXACT PASS", "")


def test_route_disagreement_fails_verify_and_poly(capsys, monkeypatch):
    monkeypatch.setattr(fam, "_j_via_log", lambda nmax: [Polynomial.zero()] * (nmax + 1))
    rc, out = run_cli(capsys, ["verify", "--nmax", "3"])
    assert rc == 1
    assert "route-agreement            FAIL       route disagreement for J_1" in out.splitlines()
    assert out.endswith("21/22 identity families verified\nFAILED: route-agreement\n")
    with pytest.raises(InvariantError, match="route disagreement for J_1"):
        main(["poly", "--family", "Jh", "--nmax", "3", "--check-routes"])


def test_hitting_law_mismatch_fails_verify(capsys, monkeypatch):
    import ar1lab.persistence as pers

    prefix = pers.persistence_prefix

    def perturbed(n, theta, *support):
        p = list(prefix(n, theta, *support))
        if theta == 2 and n >= 3:
            p[3] += Fraction(1, 10**9)
        return p

    monkeypatch.setattr(pers, "persistence_prefix", perturbed)
    rc, out = run_cli(capsys, ["verify"])
    assert rc == 1
    assert "hitting-law                FAIL       closed form at n=3, theta=2" in out.splitlines()
    assert out.endswith("FAILED: hitting-law\n")


def test_simulate_json(capsys):
    rc, out = run_cli(
        capsys,
        ["simulate", "--theta", "0", "--n", "5", "--trials", "40000", "--seed", "3"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["exact"] == 0.03125
    assert abs(payload["z_score"]) < 5
    assert payload["seed"] == 3


def test_simulate_workers_default_to_the_usable_cpus():
    assert build_parser().parse_args(["simulate"]).workers == mc.usable_cpus()


@pytest.mark.parametrize("law", ["gaussian", "biexponential"])
def test_simulate_output_is_identical_at_one_worker_and_the_default(capsys, law):
    argv = ["simulate", "--law", law, "--theta", "1/2", "--n", "10",
            "--trials", str(3 * mc.BLOCK_SIZE + 5), "--seed", "7"]
    rc_default, default = run_cli(capsys, argv)
    rc_one, one = run_cli(capsys, argv + ["--workers", "1"])
    assert rc_default == rc_one == 0
    assert default == one


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_simulate_refuses_fewer_than_one_worker(capsys, workers):
    rc = main(["simulate", "--n", "3", "--trials", "100", "--workers", workers])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: need at least one worker\n"


@pytest.mark.parametrize(
    "bad, message",
    [
        (["--workers", "0"], "need at least one worker"),
        (["--trials", "0"], "need at least one trial"),
        (["--n", "-1"], "horizon must be >= 0"),
    ],
)
def test_simulate_refuses_bad_run_arguments_before_the_exact_target(capsys, monkeypatch, bad, message):
    # at drift 3/2 and n = 20 the exact target alone takes seconds
    def refused_first(*args):
        raise AssertionError("the exact target ran before the refusal")

    monkeypatch.setattr(mc, "exact_persistence_target", refused_first)
    argv = ["simulate", "--theta", "3/2", "--law", "uniform", "--n", "20", "--trials", "10", *bad]
    rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_refuses_a_second_drift(capsys, monkeypatch):
    def refused_first(*args, **kwargs):
        raise AssertionError("ran before the refusal")

    monkeypatch.setattr(mc, "exact_persistence_target", refused_first)
    monkeypatch.setattr(mc, "estimate_persistence", refused_first)
    rc = main("simulate --theta 1/2 --theta -3 --n 4 --trials 10".split())
    assert rc == 2
    assert capsys.readouterr().err == "error: simulate runs at one drift; got 2 --theta values\n"


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_volume_refuses_bad_trials_before_the_exact_target(capsys, monkeypatch, trials):
    # the argument check comes before any exact work
    def refused_first(*args):
        raise AssertionError("the exact target ran before the refusal")

    monkeypatch.setattr(mc, "polytope_exact_target", refused_first)
    rc = main(["volume", "--kind", "cayley", "--n", "45", "--trials", trials])
    assert rc == 2
    assert capsys.readouterr().err == "error: need at least one trial\n"


@pytest.mark.parametrize(
    "argv, value",
    [
        ("--kind tutte_limit --n 2 --t 1e400", "box width 1.0e+400"),
        ("--kind tutte_limit --n 3 --t 1e120", "box width 1.0e+360"),
        ("--kind tutte_q --n 2 --q 1/2 --t 1e400", "box width 1.0e+400"),
        ("--kind tutte_limit --n 2 --t 1e150", "box volume of about 1e450"),
        ("--kind cayley --n 50", "box volume of about 1e383"),
    ],
)
def test_volume_past_the_float_range_is_refused_before_the_exact_target(capsys, monkeypatch, argv, value):
    # finite widths can still multiply to an infinite box volume (the last two)
    def refused_first(*args):
        raise AssertionError("the exact target ran before the refusal")

    monkeypatch.setattr(mc, "polytope_exact_target", refused_first)
    rc = main(["volume", *argv.split(), "--trials", "10"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {value} has no float value\n"


def _peak_rss_mb(argv: str) -> float:
    """Peak RSS of `python argv` in MB, read by a wrapper process, so that
    RUSAGE_CHILDREN sees only that child."""
    wrapper = (
        "import resource, subprocess, sys; "
        "subprocess.run([sys.executable, *sys.argv[1:]], check=True, stdout=subprocess.DEVNULL); "
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    src = os.path.dirname(os.path.dirname(mc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", wrapper, *argv.split()], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return int(done.stdout) / (2**20 if sys.platform == "darwin" else 2**10)


def test_exact_command_peak_rss_stays_near_the_bare_interpreter():
    # An exact command imports numpy (13.2 MB over the bare interpreter on
    # Linux with numpy 2.4, ru_maxrss / 1024) but neither mpmath nor
    # numpy.random, which cost another 10 MB when `ar1lab.cli` loaded them at
    # start-up: `persist --nmax 12 --theta 4/5` read bare + 26.1 MB then and
    # reads bare + 16.2 MB now.  The bare interpreter is measured here, so the
    # ceiling follows the platform's baseline.
    bare_mb = _peak_rss_mb("-c pass")
    peak_mb = _peak_rss_mb("-m ar1lab.cli persist --nmax 12 --theta 4/5")
    assert peak_mb < bare_mb + 20, f"{peak_mb:.1f} MB against {bare_mb:.1f} MB bare"


def test_biexponential_simulate_peak_rss_stays_lean():
    # Each worker holds one (4096, 20) chunk of its block (655 KB) and the
    # chunk's int32 signs, as for every other law.  Measured on Linux with
    # numpy 2.4 (ru_maxrss / 1024): 37.4 MB at 1 worker and 39.0 MB at 2.  A
    # worker that held its block's whole (32768, 20) magnitude draw (5.2 MB)
    # read 5.8 MB more at 1 worker and 11.6 MB more at 2.  The ceiling, 38 MB
    # plus 2 MB per worker, leaves the chunked draw about 3 MB of margin and
    # fails the held draw at either count.  (It was 42 MB plus 2 MB per worker
    # while `ar1lab.cli` loaded mpmath, 3.7 MB, at start-up.)
    workers = mc._worker_count(mc.usable_cpus(), 7)
    peak_mb = _peak_rss_mb("-m ar1lab.cli simulate --law biexponential --theta 1/2 --n 20 --trials 200000 --seed 1")
    assert peak_mb < 38 + 2 * workers, f"{peak_mb:.1f} MB at {workers} workers"


def test_biexponential_simulate_peak_rss_does_not_grow_with_the_block():
    # One block of 10 rows at n = 512: its chunk is 40 KB, while the block's
    # whole magnitude draw is 128 MB.  Measured as above: 36.4 MB (40.1 MB
    # while mpmath loaded at start-up), against 168 MB when that draw was held.
    peak_mb = _peak_rss_mb("-m ar1lab.cli simulate --law biexponential --theta 1 --n 512 --trials 10")
    assert peak_mb < 45, f"{peak_mb:.1f} MB"


@pytest.mark.parametrize(
    "argv, successes",
    [
        ("--theta 2 --n 33 --trials 40000 --seed 11", 15194),
        ("--theta 1/2 --n 20 --trials 100000 --seed 7 --workers 1", 65),
    ],
    ids=["odd-n-partial-block", "one-worker"],
)
def test_biexponential_simulate_counts_are_pinned(capsys, argv, successes):
    # the Philox stream layout: each block's whole magnitude draw, then its
    # signs; a count moves if any innovation moves
    rc, out = run_cli(capsys, ["simulate", "--law", "biexponential", *argv.split()])
    assert rc == 0
    assert json.loads(out)["successes"] == successes


def test_rates_csv(capsys):
    rc, out = run_cli(capsys, ["rates", "--theta", "-1", "--theta", "0"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["lambda_or_mu"]) == pytest.approx(3.141592653589793, abs=1e-10)
    assert float(rows[1]["lambda_or_mu"]) == pytest.approx(2.0, abs=1e-12)


def test_volume_json(capsys):
    rc, out = run_cli(
        capsys,
        ["volume", "--kind", "zigzag", "--n", "3", "--trials", "60000", "--seed", "2"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["exact"] == "1/3"
    assert payload["in_interval"] is True


@pytest.mark.parametrize(
    "argv, exact", [("--kind zigzag --n 1", "1"), ("--kind tutte_q --n 1 --q 1 --t 1", "2")]
)
def test_volume_with_every_point_a_hit_contains_its_exact_target(capsys, argv, exact):
    # the box is the polytope, so the interval's upper end is the box volume itself
    rc, out = run_cli(capsys, ["volume", *argv.split(), "--trials", "10"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["exact"] == exact
    assert payload["estimate"] == payload["ci_high"] == float(exact)
    assert payload["in_interval"] is True


def test_volume_without_closed_form_fails_before_sampling(capsys, monkeypatch):
    import ar1lab.montecarlo as mc

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the exact target was checked")

    monkeypatch.setattr(mc, "polytope_volume_mc", no_sampling)
    rc = main("volume --kind tutte_q --n 3 --q 1/2 --t 0".split())
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")


def test_simulate_without_target_fails_before_sampling(capsys, monkeypatch):
    import ar1lab.montecarlo as mc

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the exact target was checked")

    monkeypatch.setattr(mc, "estimate_persistence", no_sampling)
    # a drift past the float range has no target
    rc = main(["simulate", "--law", "biexponential", "--theta", "1" + "0" * 400, "--n", "4", "--trials", "1000000"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: drift 1.0e+400 has no float value\n"


@pytest.mark.parametrize(
    "theta, n, successes",
    [("1/2", 45, 0), ("1/2", 64, 0), ("0.9999", 5, 240), ("1.0001", 5, 240), ("1e300", 3, 488)],
)
def test_simulate_biexponential_past_the_extraction_reach_prints_no_target(capsys, theta, n, successes):
    # the 128-point q-series extraction gives a negative p_45 and cannot serve n = 64;
    # within about 3e-4 of drift 1 its q-products do not converge; at drift 1e300
    # the q-series needs a squared drift past the float range
    rc, out = run_cli(capsys, ["simulate", "--law", "biexponential", "--theta", theta, "--n", str(n),
                               "--trials", "1000", "--seed", "1"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["exact"] is None and payload["z_score"] is None
    assert payload["successes"] == successes


@pytest.mark.parametrize("n", [512, 2000])
def test_simulate_random_walk_past_where_four_to_the_n_overflows(capsys, n):
    rc, out = run_cli(capsys, ["simulate", "--law", "gaussian", "--theta", "1", "--n", str(n),
                               "--trials", "300", "--seed", "1"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["exact"] == float(Fraction(math.comb(2 * n, n), 4**n))
    assert abs(payload["z_score"]) < 5


def test_figure_reference_values(capsys):
    rc, out = run_cli(capsys, ["figure", "--n", "4", "5", "--grid", "1/4"])
    assert rc == 0
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    rows = {r["theta"]: r for r in csv.DictReader(body)}
    assert rows["0"]["p_4"] == "1/16"
    assert rows["0"]["p_5"] == "1/32"
    assert rows["-1"]["p_4"] == "5/384"
    assert rows["-1"]["p_5"] == "1/240"
    assert rows["1"]["p_4"] == "35/128"
    assert rows["1"]["p_5"] == "63/256"
    assert rows["-1"]["marker"] == "theta=-1"
    assert any(ln.startswith("# one_sided_derivatives n=4") for ln in out.splitlines())
    assert any(ln.startswith("# fibonacci_breakpoints") for ln in out.splitlines())


def test_outputs_are_reproducible(capsys):
    argv = ["simulate", "--theta", "1/2", "--n", "4", "--trials", "30000", "--seed", "11"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second
    argv = ["figure", "--grid", "1/2"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_out_file_and_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AR1LAB_OUT", str(tmp_path))
    rc, out = run_cli(capsys, ["persist", "--nmax", "2", "--theta", "0", "--out", "table.csv"])
    assert rc == 0 and out == ""
    written = (tmp_path / "table.csv").read_text()
    assert "region_tag" in written

    target = tmp_path / "abs.csv"
    rc, _ = run_cli(capsys, ["persist", "--nmax", "1", "--theta", "0", "--out", str(target)])
    assert rc == 0 and target.exists()
