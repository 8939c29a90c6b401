"""Command-line interface: subcommands, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polytorus import census, cli, realization
from polytorus.cli import main
from polytorus.errors import PolytorusError
from polytorus.generators import moebius_torus
from polytorus.knots import (
    StickKnot,
    format_stick_knot,
    parse_stick_knot,
    trefoil_6stick,
    triangle_unknot,
)
from polytorus.realization import import_off
from polytorus.surfaces import format_complex, parse_complex


@pytest.fixture()
def tri_file(tmp_path):
    p = tmp_path / "triangle.txt"
    p.write_text(format_stick_knot(triangle_unknot()))
    return str(p)


def test_generate_then_analyze(tmp_path, capsys):
    cpath = tmp_path / "m5.txt"
    assert main(["generate", "minimal3k", "--k", "5", "-o", str(cpath)]) == 0
    assert main(["analyze", str(cpath)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == "3x5"
    assert report["n"] == 13
    assert report["schema"] == 1
    assert report["bound_satisfied"]


def test_census_n7(capsys):
    assert main(["census", "--n", "7"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1])
    assert summary["count"] == 1
    assert summary["by_type"] == {"3x3": 1}
    assert len(out) == 2  # one canonical face line + summary


def test_census_deterministic(capsys):
    main(["census", "--n", "8"])
    first = capsys.readouterr().out
    main(["census", "--n", "8"])
    second = capsys.readouterr().out
    assert first == second


def test_census_progress_on_stderr_only(monkeypatch, capsys):
    monkeypatch.setattr(census, "_CENSUS_CACHE", {})
    assert main(["census", "--n", "8"]) == 0
    plain = capsys.readouterr()
    monkeypatch.setattr(census, "_CENSUS_CACHE", {})
    t0 = time.monotonic()
    assert main(["census", "--n", "8", "--progress"]) == 0
    elapsed = time.monotonic() - t0
    captured = capsys.readouterr()
    assert plain.err == ""
    assert captured.out == plain.out
    lines = captured.err.splitlines()
    assert lines[-1] == "census --n 8: 7 classes, done"
    counts = [int(line.split(": ")[1].split()[0]) for line in lines]
    assert counts[0] == 1 and counts == sorted(counts)
    # each of the 7 classes calls back; throttling writes a line per interval
    assert len(lines) <= 2 + elapsed / cli.PROGRESS_INTERVAL_S


# sha256 of census stdout, recorded before the key's start flags were
# narrowed to the least vertex pairs; the benchmark checks the same digests.
# The n = 10 digest was recorded before the census handed the key's ties to
# the form scan as an argument; the census is memoized per process, and
# other tests build the n = 10 one too.
CENSUS_STDOUT = {
    "--n 7": "43078ad017d5acd10b70bbff20161cfd0f165e36d88c8e2e05aff434cb16bb27",
    "--n 8": "a314b3e7f908b64288d59b1efe47bb8205eff409d270342e4b6772ddf3022810",
    "--n 7 --strategy b": "43078ad017d5acd10b70bbff20161cfd0f165e36d88c8e2e05aff434cb16bb27",
    "--n 8 --strategy b": "a314b3e7f908b64288d59b1efe47bb8205eff409d270342e4b6772ddf3022810",
    "--n 9": "0c26dbf292e5017177c567601a9373968d212a6a2a608dad6be29bf29eefa01f",
    "--n 9 --strategy b": "0c26dbf292e5017177c567601a9373968d212a6a2a608dad6be29bf29eefa01f",
    "--n 10": "d2967fa5ecc5a0967f9ea585bb937d1fdafade271952dbd872d536edecbafc59",
    "--n 10 --strategy b": "d2967fa5ecc5a0967f9ea585bb937d1fdafade271952dbd872d536edecbafc59",
    "--n 8 --verify-thm31 3": "030d47fe19294bda055c4ee8bdaa804bf7280e513ba986f6f37c8f31ac101cc5",
}


@pytest.mark.parametrize("args", sorted(CENSUS_STDOUT))
def test_census_stdout_matches_recorded_digests(args, capsys):
    assert main(["census", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CENSUS_STDOUT[args]


@pytest.mark.parametrize("k", [0, 2, 5])
def test_census_verify_thm31_names_k_out_of_range(k, monkeypatch, capsys):
    """A K out of range is rejected before any census runs."""
    def no_census(*args, **kwargs):
        raise AssertionError("a census ran before K was range-checked")

    monkeypatch.setattr(census, "enumerate_tori", no_census)
    assert main(["census", "--n", "10", "--progress", "--verify-thm31", str(k)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: census supports 3 <= K <= 4, got {k}\n"


def test_census_bad_time_budget(monkeypatch, capsys):
    for raw in ("abc", "nan", "0"):
        monkeypatch.setenv("TORUS_TIME_BUDGET_SECS", raw)
        assert main(["census", "--n", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: TORUS_TIME_BUDGET_SECS")


def test_knot_det(tri_file, capsys):
    assert main(["knot", "det", "--knot", tri_file]) == 0
    assert json.loads(capsys.readouterr().out)["determinant"] == 1


def test_knot_gauss(tri_file, tmp_path, capsys):
    trefoil = tmp_path / "trefoil.txt"
    trefoil.write_text(format_stick_knot(trefoil_6stick()))
    assert main(["knot", "gauss", "--knot", str(trefoil)]) == 0
    assert capsys.readouterr().out == "-1 2 -3 1 -2 3\n"
    # the triangle's diagram has no crossings
    assert main(["knot", "gauss", "--knot", tri_file]) == 0
    assert capsys.readouterr().out == "\n"


def test_realize_tube(tri_file, tmp_path, capsys):
    out = tmp_path / "tube.off"
    code = main(["realize", "tube", "--knot", tri_file, "-o", str(out)])
    cert = json.loads(capsys.readouterr().out)
    assert code == 0
    assert cert["embedded"] is True
    assert cert["determinant"] == 1
    assert cert["vertices"] == 9
    assert out.read_text().splitlines()[1] == "9 18 0"


def test_realize_tube_twelve_sticks(tmp_path, capsys):
    """A 12-stick unknot whose transported frames once overflowed a float:
    the tube certifies with 36 vertices and determinant 1."""
    knot = tmp_path / "twelve.txt"
    knot.write_text(format_stick_knot(StickKnot([
        (-3, -12, 7), (15, -3, 6), (2, 4, -6), (-11, -15, -9), (-11, -6, -6), (-20, 11, 17),
        (-9, -4, -2), (-20, -11, 6), (14, 3, 19), (16, 0, -12), (12, 19, -17), (9, 15, 5)])))
    assert main(["realize", "tube", "--knot", str(knot)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["embedded"] is True
    assert cert["determinant"] == 1
    assert cert["vertices"] == 36


@pytest.mark.parametrize("what", ["tube", "complement"])
def test_realize_far_vertex_certifies(what, tmp_path, capsys):
    """The triangle (10**400, 0, 0), (0, 1, 0), (0, 0, 1), whose ring frames
    carry entries too large for a float: tube and complement certify with
    determinant 1.  The ring corners' floats once read the frames' squared
    lengths unscaled and overflowed."""
    knot = tmp_path / "far.txt"
    knot.write_text("1e400 0 0\n0 1 0\n0 0 1\n")
    assert main(["realize", what, "--knot", str(knot)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert (cert["embedded"], cert["determinant"]) == (True, 1)


def test_realize_flat_triangle_exit_1(tmp_path, capsys):
    """The triangle (1, 0, 0), (0, 10**-300, 0), (0, 0, 10**300) certifies
    no radius: exit 1 with the reason, where the ring corners' floats once
    overflowed into a traceback."""
    knot = tmp_path / "flat.txt"
    knot.write_text("1 0 0\n0 1e-300 0\n0 0 1e300\n")
    assert main(["realize", "tube", "--knot", str(knot)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no radius certified after repeated halving\n"


@pytest.fixture()
def proofs(monkeypatch):
    """Every mesh ``verify_embedding`` is called on, as (coords, faces)."""
    seen = []
    original = realization.verify_embedding

    def counted(mesh):
        seen.append((tuple(sorted(mesh.coords.items())), tuple(mesh.complex.faces)))
        return original(mesh)
    for mod in (realization, cli):
        monkeypatch.setattr(mod, "verify_embedding", counted, raising=False)
    return seen


def test_realize_proves_once(tri_file, proofs, capsys):
    for argv in (["realize", "tube", "--knot", tri_file], ["realize", "cyclic", "--k", "4"]):
        proofs.clear()
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["embedded"] is True
        assert len(proofs) == 1, argv


def test_realize_complement_proves_each_mesh_once(tri_file, proofs, capsys):
    assert main(["realize", "complement", "--knot", tri_file]) == 0
    assert json.loads(capsys.readouterr().out)["embedded"] is True
    assert proofs
    assert len(set(proofs)) == len(proofs)


# sha256 of the OFF files these commands write; the tube and complement
# digests were recorded from the ring normals summed from 16-bit directions,
# the frames transported through rounded directions and the octahedron at
# coarse dyadic points
GOLDEN_OFF = {
    "tube trefoil": "8bd2f45fccf9d17b22559446e681fa67f2d321b7c84e31991b79ca168204a62c",
    "complement unknot": "2901e6a5ac8cf59f7e6bc05b92ccf5800986749b18bffeefc3204cf2268ef630",
    "cyclic 8": "3896fbf344cb42957c0186ff423588236a61a82c9b93959930492d173ef72421",
    "cyclic 10": "091426cdb24a3c26dd79854ad803326f3f7a052f21126ef70a7fef6d842eece6",
    "cyclic 12": "4ad38b95bc4138f8314eb69839c127b8bc4060d67bd4906d6b5da5cdea32c93e",
    "cyclic 14": "20af4ffbb25dbd8bf3e633ac36208aa8945b607e62c57b5b0d24f456b8ea71fb",
}


def test_realize_outputs_match_recorded_digests(tmp_path, monkeypatch, capsys):
    """The exported meshes stay byte-identical, and the trefoil tube's proof
    discharges the same pairs by the same rules.  One flipped kernel verdict
    would pick another frame or radius and change a file."""
    knots = {"trefoil": trefoil_6stick(), "unknot": triangle_unknot()}
    reports = []
    original = realization.verify_embedding

    def recorded(mesh):
        reports.append(original(mesh))
        return reports[-1]
    monkeypatch.setattr(realization, "verify_embedding", recorded)
    for case, digest in GOLDEN_OFF.items():
        what, arg = case.split()
        out = tmp_path / f"{what}.off"
        if what == "cyclic":
            argv = ["realize", what, "--k", arg, "-o", str(out)]
        else:
            knot = tmp_path / f"{arg}.txt"
            knot.write_text(format_stick_knot(knots[arg]))
            argv = ["realize", what, "--knot", str(knot), "-o", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, case
        if case == "tube trefoil":
            assert reports[-1].discharged == {
                "coplanar": 0, "one_side": 285, "shared_edge": 54,
                "shared_vertex": 166, "orientation": 125}


@pytest.mark.parametrize("eps", ["abc", "nan", "1/0", "0", "-1"])
def test_realize_tube_bad_eps(tri_file, eps, capsys):
    assert main(["realize", "tube", "--knot", tri_file, "--eps", eps]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tube radius must be")


def test_realize_tube_empty_eps_is_a_bad_radius(tri_file, capsys):
    """An empty --eps is refused, not read as the closed-form radius."""
    assert main(["realize", "tube", "--knot", tri_file, "--eps", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tube radius must be a rational number, got ''\n"


@pytest.mark.parametrize("argv", [["generate", "moebius"], ["realize", "cyclic", "--k", "3"],
                                  ["realize", "tube", "--knot", "TRI"]])
def test_empty_output_path_is_an_io_error(argv, tri_file, capsys):
    """-o "" names no file: realize fails as generate does, with an io error,
    and writes nothing to stdout."""
    argv = [tri_file if a == "TRI" else a for a in argv]
    assert main(argv + ["-o", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("io error: ")


def test_analyze_bad_header(tmp_path, capsys):
    # '²' passes str.isdigit() but is no integer
    p = tmp_path / "bad.txt"
    p.write_text("\u00b2\n1 2 3\n", encoding="utf-8")
    assert main(["analyze", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: expected vertex count")


def test_realize_cyclic(capsys):
    assert main(["realize", "cyclic", "--k", "3"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["vertices"] == 7 and cert["embedded"]


def test_usage_error_exit_2(tri_file):
    with pytest.raises(SystemExit) as exc:
        main(["census"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["realize", "tube"])  # missing --knot
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, option", [
    (["realize", "cyclic", "--k", "4", "--eps", "1/2"], "--eps"),
    (["realize", "cyclic", "--k", "4", "--eps", "abc", "--knot", "nonexistent"], "--knot"),
    (["realize", "cyclic", "--k", "4", "--knot", "TRI"], "--knot"),
    (["realize", "complement", "--knot", "TRI", "--eps", "1/2"], "--eps"),
    (["realize", "tube", "--knot", "TRI", "--k", "3"], "--k"),
    (["realize", "complement", "--knot", "TRI", "--k", "99"], "--k"),
    (["realize", "cyclic", "--k", "3", "--format", "obj"], "--format"),
    (["realize", "cyclic", "--k", "3", "--format", "off"], "--format"),
    (["realize", "cyclic", "--precision", "12"], "--precision"),
    (["realize", "tube", "--knot", "TRI", "--precision", "3"], "--precision"),
])
def test_realize_options_that_do_not_apply_exit_2(argv, option, tri_file, monkeypatch, capsys):
    """An option the chosen construction or output would ignore is a usage
    error naming it, and nothing is built."""
    built = []
    monkeypatch.setattr(cli, "tube_construction", lambda *a: built.append(a))
    monkeypatch.setattr(cli, "complement_construction", built.append)
    monkeypatch.setattr(cli, "cyclic_polytope_realization", built.append)
    with pytest.raises(SystemExit) as exc:
        main([tri_file if a == "TRI" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option} does not apply to realize" in captured.err
    assert built == []


def test_generate_moebius_refuses_k(tmp_path, capsys):
    """The Moebius torus takes no parameter: --k with it is a usage error
    naming the option, and nothing is written."""
    out = tmp_path / "m.txt"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "moebius", "--k", "99", "-o", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--k does not apply to generate moebius" in captured.err
    assert not out.exists()


def test_generate_default_k_is_3(capsys):
    for kind in ("minimal3k", "tube-complex"):
        assert main(["generate", kind]) == 0
        omitted = capsys.readouterr().out
        assert main(["generate", kind, "--k", "3"]) == 0
        assert capsys.readouterr().out == omitted


@pytest.mark.parametrize("argv, hi", [
    (["generate", "minimal3k", "--k", "100000000000"], "10000"),
    (["generate", "tube-complex", "--k", "10001"], "10000"),
    (["realize", "cyclic", "--k", "100000"], "200"),
    (["realize", "cyclic", "--k", "201"], "200"),
])
def test_k_above_its_ceiling_exit_1_before_allocating(argv, hi, capsys):
    """A k above the construction's ceiling (``generators.K_MAX``,
    ``realization.CYCLIC_K_MAX``) is refused with InvalidK before anything
    is built: exit 1, one error line, and under 1 MiB traced."""
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: k must be between 3 and {hi}, got {argv[-1]}\n"


def test_python_m_entry_point():
    """``python -m polytorus`` runs the CLI and exits with its code."""
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "polytorus", *argv],
                              cwd=Path(__file__).resolve().parents[1],
                              env=dict(os.environ, PYTHONPATH="src"),
                              capture_output=True, text=True, timeout=120)
    generated = run("generate", "moebius")
    assert generated.returncode == 0
    assert generated.stdout == format_complex(moebius_torus())
    assert run("realize", "cyclic", "--eps", "1").returncode == 2


def test_parser_reused_across_calls_matches_fresh_runs(capsys):
    """``main`` builds its parser once per process; calls in a row, one of
    them a usage error (exit 2), print and exit as fresh runs do."""
    assert cli.build_parser() is cli.build_parser()
    for argv in (["generate", "moebius", "--k", "3"], ["generate", "minimal3k", "--k", "4"],
                 ["generate", "moebius", "--k", "3"]):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "polytorus", *argv],
                               cwd=Path(__file__).resolve().parents[1],
                               env=dict(os.environ, PYTHONPATH="src"),
                               capture_output=True, text=True, timeout=120)
        assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_negative_precision_exit_2(tmp_path):
    out = tmp_path / "c.off"
    with pytest.raises(SystemExit) as exc:
        main(["realize", "cyclic", "--k", "8", "--precision", "-2", "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_precision_above_its_ceiling_exit_2(tmp_path, monkeypatch, capsys):
    """--precision above PRECISION_MAX is a usage error, like a negative
    one, and nothing is built: Python writes no int of more than 4,300
    digits as text.  The ceiling itself writes."""
    out = tmp_path / "c.off"
    built = []
    monkeypatch.setattr(cli, "cyclic_polytope_realization", built.append)
    with pytest.raises(SystemExit) as exc:
        main(["realize", "cyclic", "--k", "3", "--precision", "5000", "-o", str(out)])
    assert exc.value.code == 2
    assert "--precision must be between 0 and 4000" in capsys.readouterr().err
    assert built == [] and not out.exists()
    monkeypatch.undo()
    assert main(["realize", "cyclic", "--k", "3", "--precision", "4000", "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()[2].split()[0]) == 4002


@pytest.mark.parametrize("fmt", ["off", "obj"])
def test_coordinate_past_the_digit_limit_exit_1(tmp_path, capsys, fmt):
    """A coordinate whose integer part and decimal places take more than
    the 4,300 digits Python writes as text is a PolytorusError naming its
    vertex, and no file is written: the triangle unknot's tube at scale
    10**4295 at 12 places."""
    knot = tmp_path / "big.txt"
    knot.write_text(format_stick_knot(triangle_unknot().scaled(10 ** 4295)))
    out = tmp_path / f"t.{fmt}"
    assert main(["realize", "tube", "--knot", str(knot), "--format", fmt, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertex 1 has a coordinate of more than 4300 digits at precision 12\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["census", "--n", "0_7"], "--n"),
    (["census", "--n", "\u0667"], "--n"),
    (["census", "--n", "7", "--verify-thm31", "0_3"], "--verify-thm31"),
    (["generate", "minimal3k", "--k", "\u0665"], "--k"),
    (["realize", "cyclic", "--k", "\u0668"], "--k"),
    (["realize", "cyclic", "--k", "8", "--precision", "\u0661"], "--precision"),
])
def test_integer_options_take_ascii_literals_only(argv, option, monkeypatch, capsys):
    """Digit separators and non-ASCII digits are usage errors naming the
    option, as in the file parsers, and nothing is built."""
    built = []
    monkeypatch.setattr(census, "enumerate_tori", lambda *a, **kw: built.append(a))
    monkeypatch.setattr(cli, "minimal_torus_3k", built.append)
    monkeypatch.setattr(cli, "cyclic_polytope_realization", built.append)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: invalid" in captured.err
    assert built == []


def test_realize_defaults_apply_when_options_are_omitted(tmp_path):
    """Omitted --k, --format and --precision mean k = 3, OFF and 12 digits."""
    given, omitted = tmp_path / "given.off", tmp_path / "omitted.off"
    assert main(["realize", "cyclic", "--k", "3", "--format", "off", "--precision", "12",
                 "-o", str(given)]) == 0
    assert main(["realize", "cyclic", "-o", str(omitted)]) == 0
    assert omitted.read_bytes() == given.read_bytes()


def test_integer_options_take_plain_literals(tmp_path, capsys):
    assert main(["census", "--n", "7"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["count"] == 1
    out = tmp_path / "c.off"
    assert main(["realize", "cyclic", "--k", "3", "--precision", "0", "-o", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["vertices"] == 7
    assert out.read_text().startswith("OFF")


def test_non_utf8_input_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"\xff\xfe")
    for argv in (["analyze", str(p)], ["knot", "det", "--knot", str(p)],
                 ["realize", "tube", "--knot", str(p)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: cannot parse b'\\xff\\xfe'\n"


def test_missing_file_exit_1(capsys):
    assert main(["analyze", "/nonexistent/file.txt"]) == 1


def test_huge_exponent_exit_1_at_once(tmp_path, capsys):
    """A knot line whose exponent would make Fraction build a
    hundred-million-digit integer is rejected at once, with its line."""
    p = tmp_path / "big.txt"
    p.write_text("1e99999999 0 0\n1 0 0\n0 1 0\n")
    t0 = time.monotonic()
    assert main(["knot", "det", "--knot", str(p)]) == 1
    assert time.monotonic() - t0 < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: cannot parse '1e99999999 0 0'\n"


PARSER_TEXT = st.text(st.sampled_from("0123456789 -+/.eE#\n") | st.characters(), max_size=80)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(["", "4\n", "OFF\n", "OFF\n3 1 0\n"]), PARSER_TEXT)
def test_parsers_raise_only_polytorus_errors(tmp_path_factory, head, text):
    """The complex, knot and OFF parsers turn any text into a result or a
    PolytorusError, never another exception."""
    path = tmp_path_factory.getbasetemp() / "parsed.off"
    path.write_text(head + text, encoding="utf-8")
    for parse in (parse_complex, parse_stick_knot, lambda _: import_off(path)):
        try:
            parse(head + text)
        except PolytorusError:
            pass


def test_bad_knot_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("0 0 0\n1 0 0\n2 0 0\n0 1 0\n")  # collinear
    assert main(["knot", "det", "--knot", str(p)]) == 1
