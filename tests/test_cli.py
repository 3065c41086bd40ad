import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxmin import __version__
from coxmin.cli import main
from coxmin.errors import (FieldMismatch, HypothesisFailed, IdentityFailed,
                           MultiplicityMismatch, NotGoodPosition,
                           ScalarDomainError, TheoremViolation)
from coxmin.scalars import AlgebraicScalar


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classes_a3(capsys):
    code, out, _ = run(capsys, "classes", "--type", "A3")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "coxmin/classes-v1"
    assert len(data["rows"]) == 5
    sizes = sorted(r["size"] for r in data["rows"])
    assert sum(sizes) == 24


def test_classes_twisted_flip(capsys):
    code, out, _ = run(capsys, "classes", "--type", "A2", "--twist", "2,1")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert sum(r["size"] for r in rows) == 6
    assert any(r["elliptic"] for r in rows)


def test_classes_csv(capsys):
    code, out, _ = run(capsys, "classes", "--type", "A2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("type,twist,class_id,size,min_length")
    assert len(lines) == 4


def test_usage_errors(capsys):
    code, _, err = run(capsys, "classes", "--type", "ZZ9")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "classes")
    assert code == 2
    # A twist that is not a permutation is a usage error, not a violation.
    code, _, err = run(capsys, "classes", "--type", "A2", "--twist", "1,1")
    assert code == 2 and "not a permutation" in err
    # A malformed type name is unknown, whatever part of it is wrong.
    for name in ("I2(x)", ""):
        code, _, err = run(capsys, "classes", "--type", f"A2,{name}")
        assert code == 2 and err == f"error: unknown Coxeter type {name!r}\n"


@pytest.mark.parametrize("seed", ["-1", "-9", "-13"])
def test_negative_seed_index_is_a_usage_error(capsys, seed):
    # The proven tuple count of a regular point needs a seed >= 0; a
    # negative one is refused up front instead of failing the checks.
    code, out, err = run(capsys, "verify", "--type", "B3", "--checks",
                         "good,quasi", "--seed-index", seed)
    assert code == 2 and out == ""
    assert err == f"error: --seed-index must be >= 0, got {seed}\n"


@pytest.mark.parametrize("argv", [
    ("classes", "--type", "A2", "--max-group-order", "-1"),
    ("classes", "--type", "A2", "--max-group-order", "0"),
])
def test_bound_below_one_is_a_usage_error(capsys, argv):
    # A bound below 1 is malformed, not a bound that was hit (exit 3).
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {argv[-2]} must be >= 1, got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--jobs", "2"),
    ("classes", "--checks", "gp1"),
    ("classes", "--seed-index", "1"),
    ("walk", "--format", "csv"),
    ("walk", "--max-group-order", "5"),
    ("classes", "--cache-dir", "cache"),
    ("verify", "--cache-dir", "cache"),
    ("walk", "--cache-dir", "cache"),
])
def test_subcommands_reject_options_they_do_not_read(capsys, argv):
    # Each subcommand has only the options it reads; argparse refuses any
    # other with exit 2 before anything runs.
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--type", "A2", *argv[1:]])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments" in out.err


def test_python_m_coxmin_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "coxmin", "--version"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == __version__


def _run_module(*argv, timeout):
    """`python -m coxmin argv` on this checkout's source, within `timeout` s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "coxmin", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_large_seed_index_runs_in_seconds():
    # The free regular point of a one-dimensional subspace starts at the
    # seed-th fraction by height; drawing the first 100,000 takes a fraction
    # of a second when each height costs only its coprime rim pairs.
    proc = _run_module("verify", "--type", "A2", "--checks", "good",
                       "--seed-index", "100000", timeout=20)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert [r["status"] for r in results] == ["pass"] * 3


def test_classes_bounds_the_group_before_the_build():
    # |W(I2(600000))| = 1,200,000 is above the default bound of 10^6.  The
    # bound must fire before the 600,000 roots over a field of degree
    # 160,000 are built, as it does for verify.
    proc = _run_module("classes", "--type", "I2(600000)", timeout=20)
    assert proc.returncode == 3, proc.stderr
    (row,) = json.loads(proc.stdout)["rows"]
    assert row["skipped"] == "group order 1200000 exceeds bound 1000000"
    assert row["class_id"] == -1


def test_verify_small_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "--type", "B2",
                       "--checks", "gp1,gp2,elliptic,tau,good,quasi")
    assert code == 0
    results = json.loads(out)["results"]
    assert all(r["status"] in ("pass", "skip") for r in results)
    assert any(r["status"] == "pass" for r in results)


def test_verify_bound_skip(capsys):
    code, out, _ = run(capsys, "verify", "--type", "E7")
    assert code == 3
    results = json.loads(out)["results"]
    assert results[0]["status"] == "skip"
    assert "exceeds bound" in results[0]["detail"]


def test_verify_auto_twists(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A2", "--twist", "auto",
                       "--checks", "gp1")
    assert code == 0
    results = json.loads(out)["results"]
    twists = {r["twist"] for r in results}
    assert twists == {"1,2", "2,1"}


def test_walk_command(capsys):
    code, out, _ = run(capsys, "walk", "--type", "A3", "--word", "1,2,1,3",
                       "--chamber", "2,1")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "coxmin/walk-v1"
    for step in data["steps"]:
        assert step["length_after"] <= step["length_before"]
    # s1 s2 s1 s3 lies in the class of 3-cycles whose minimum length is 2,
    # and for this start chamber the walk lands on that plateau.
    assert data["end_length"] == 2


def test_walk_identity_trace(capsys):
    code, out, _ = run(capsys, "walk", "--type", "A2", "--word", "",
                       "--chamber", "")
    assert code == 0
    assert json.loads(out)["steps"] == []


def test_walk_auto_twist_is_a_usage_error(capsys):
    # A walk takes exactly one twist; auto would pick one silently.
    code, out, err = run(capsys, "walk", "--type", "A3", "--twist", "auto",
                         "--word", "1,3")
    assert code == 2 and out == "" and "auto" in err


def test_walk_malformed_word(capsys):
    code, _, err = run(capsys, "walk", "--type", "A2", "--word", "1,9",
                       "--chamber", "")
    assert code == 2


def test_deterministic_reports(capsys):
    _, out1, _ = run(capsys, "verify", "--type", "G2", "--checks",
                     "gp1,gp2,good,quasi,walk,formulas")
    _, out2, _ = run(capsys, "verify", "--type", "G2", "--checks",
                     "gp1,gp2,good,quasi,walk,formulas")
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "classes", "--type", "B3",
                          "--out", str(out_path))
    assert code == 0 and stdout == ""
    data = json.loads(out_path.read_text())
    assert len(data["rows"]) == 10


def test_nothing_is_written_or_read_back_from_disk(tmp_path, capsys, monkeypatch):
    # Every run builds its root system from the matrix: COXMIN_CACHE names
    # no directory the CLI writes to, and the report does not change.
    code, plain, _ = run(capsys, "classes", "--type", "A2")
    assert code == 0
    monkeypatch.setenv("COXMIN_CACHE", str(tmp_path))
    code, out, _ = run(capsys, "classes", "--type", "A2")
    assert code == 0 and out == plain
    assert list(tmp_path.iterdir()) == []


def test_matrix_file(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"matrix": [[1, 2], [2, 1]]}))
    code, out, _ = run(capsys, "classes", "--matrix", str(path))
    assert code == 0
    rows = json.loads(out)["rows"]
    assert sum(r["size"] for r in rows) == 4  # A1 x A1


@pytest.mark.parametrize("text", [
    '{"foo": 1}',
    '{"matrix": 5}',
    '[[1, null], [null, 1]]',
    '[[1, 2.5], [2.5, 1]]',
    '[[true, 2], [2, true]]',
    '[1, 2]',
], ids=["no-matrix-key", "matrix-not-a-list", "null-entry", "float-entry",
        "bool-entry", "row-not-a-list"])
def test_malformed_matrix_file_is_a_usage_error(tmp_path, capsys, text):
    # A matrix file that is not a list of integer rows is malformed input
    # (exit 2), never a theorem violation (exit 1), and 2.5 is not read as 2.
    path = tmp_path / "mat.json"
    path.write_text(text)
    code, out, err = run(capsys, "classes", "--matrix", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("error", [TheoremViolation, IdentityFailed, HypothesisFailed,
                                   NotGoodPosition, MultiplicityMismatch])
def test_violation_exit_code(capsys, monkeypatch, error):
    # A package fault in one check surfaces as a fail row of that check and
    # exit code 1; the other checks still run and the report is written.
    import coxmin.cli as cli

    def boom(rec, start_index=0):
        raise error("injected failure")

    monkeypatch.setattr(cli, "good_min_element", boom)
    code, out, _ = run(capsys, "verify", "--type", "A2", "--checks", "gp1,good")
    assert code == 1
    results = json.loads(out)["results"]
    assert {r["status"] for r in results if r["check"] == "gp1"} == {"pass"}
    good = [r for r in results if r["check"] == "good"]
    assert good and all(r["status"] == "fail" and "injected" in r["detail"]
                        for r in good)


# A3 x A3 as one block-diagonal matrix.  Both twists swap the two factors and
# reverse one of them, so they have order 4.
A3XA3 = [[1, 3, 2, 2, 2, 2], [3, 1, 3, 2, 2, 2], [2, 3, 1, 2, 2, 2],
         [2, 2, 2, 1, 3, 2], [2, 2, 2, 3, 1, 3], [2, 2, 2, 2, 3, 1]]


@pytest.mark.parametrize("twist", ["4,5,6,3,2,1", "6,5,4,1,2,3"])
def test_verify_a3xa3_order_four_twists(capsys, tmp_path, twist):
    path = tmp_path / "A3xA3.json"
    path.write_text(json.dumps(A3XA3))
    code, out, _ = run(capsys, "verify", "--matrix", str(path), "--twist", twist)
    assert code == 0
    results = json.loads(out)["results"]
    assert {r["status"] for r in results} <= {"pass", "skip"}
    assert sum(r["check"] == "walk" and r["status"] == "pass" for r in results) == 5


@pytest.mark.parametrize("error", [FieldMismatch, ScalarDomainError, ArithmeticError])
def test_scalar_fault_is_a_fail_row(capsys, monkeypatch, error):
    # A fault in the scalar layer fails the check it occurs in; the run goes
    # on and still writes its report.
    import coxmin.cli as cli
    real = cli.descent_walk

    def raising_mul(self, other):
        raise error("injected scalar fault")

    def faulty_walk(*args, **kwargs):
        monkeypatch.setattr(AlgebraicScalar, "__mul__", raising_mul)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "descent_walk", faulty_walk)
    code, out, _ = run(capsys, "verify", "--type", "A2", "--checks", "gp1,walk")
    assert code == 1
    results = json.loads(out)["results"]
    assert {r["class_id"] for r in results} == {0, 1, 2}
    assert all(r["status"] == "pass" for r in results if r["check"] == "gp1")
    assert any(r["check"] == "walk" and r["status"] == "fail"
               and "injected scalar fault" in r["detail"] for r in results)


def test_system_built_once_per_type(capsys, monkeypatch):
    # Every twist of --twist auto shares one root system and group table.
    import coxmin.cli as cli
    calls = []
    real = cli.build_system

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_system", counting)
    code, out, _ = run(capsys, "verify", "--type", "A3", "--twist", "auto",
                       "--checks", "gp1")
    assert code == 0
    assert {r["twist"] for r in json.loads(out)["results"]} == {"1,2,3", "3,2,1"}
    assert len(calls) == 1
    code, _, _ = run(capsys, "classes", "--type", "A3", "--twist", "auto")
    assert code == 0 and len(calls) == 2


def test_verify_decomposes_each_input_once(capsys, monkeypatch):
    # Every eigen decomposition computed in a verify run is a distinct
    # (element, field level) input: a caller that bypasses the memo, or a
    # memo that stops holding, makes more computations than memo entries.
    import coxmin.cli as cli
    import coxmin.eigen as eigen
    systems, computed = [], []
    real_build, real_decompose = cli.build_system, eigen._decompose

    def building(*args, **kwargs):
        systems.append(real_build(*args, **kwargs))
        return systems[-1]

    def decomposing(w):
        computed.append(w)
        return real_decompose(w)

    monkeypatch.setattr(cli, "build_system", building)
    monkeypatch.setattr(eigen, "_decompose", decomposing)
    code, _, _ = run(capsys, "verify", "--type", "H3", "--twist", "auto",
                     "--checks", "good,quasi,walk,formulas")
    assert code == 0
    (base,) = systems
    distinct = sum(len(view._eigen) for view in (base, *base._lifts.values()))
    assert distinct > 0
    assert len(computed) == distinct


def test_walk_end_check_survives_optimize():
    # The walk end check must not live in an assert: under python -O a
    # chamber that misses the regular point still fails the verification.
    script = (
        "import sys\n"
        "from coxmin import cli, coxeter\n"
        "coxeter.Chamber.contains_in_closure = lambda self, v: False\n"
        "sys.exit(cli.main(['verify', '--type', 'A2', '--checks', 'walk']))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert all(r["status"] == "fail" for r in results)


def _report_same_under_optimize(argv):
    """The report of `coxmin argv`, checked byte-equal with and without -O."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys\n"
              "from coxmin import cli\n"
              f"sys.exit(cli.main({argv!r}))\n")
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    return json.loads(outs[0])


def test_verify_same_report_under_optimize():
    # No verification lives in an assert, so python -O changes no verdict
    # and no byte of the report.
    report = _report_same_under_optimize(["verify", "--type", "A3,B3", "--twist", "auto"])
    assert any(r["status"] == "pass" for r in report["results"])


def test_classes_same_report_under_optimize():
    # The path-graph counts and their divisibility check hold under -O too.
    report = _report_same_under_optimize(["classes", "--type", "D4", "--twist", "auto"])
    assert any(r["tau_surjective"] for r in report["rows"])


# sha256 of the reports.  The classes digest was captured on the commit
# before scalars became integer vectors and systems moved to the smallest
# field level; any change in arithmetic or field level must leave these
# bytes alone.  The verify digest was re-pinned once, when good-position
# chambers moved from the tuple scan's regular points to symbolic ones:
# eight good rows chose another w_A, so only their subsets= changed.
REPORT_DIGESTS = {
    ("verify", "--type", "H3,B3,A4,I2(5)", "--twist", "auto"):
        "78050a0d291113a066c96dd5c97e1f1e73fd28fa401634a4941b58500e56d49d",
    ("classes", "--type", "E6,A3", "--twist", "auto"):
        "3f6de20b80048e4544a8d711dafcfdafe60f6198a6516535293dc4050385530e",
}


def test_report_digests_pinned(capsys):
    for argv, digest in REPORT_DIGESTS.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

