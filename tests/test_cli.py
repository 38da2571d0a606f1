"""Scene-grammar diagnostics, record round-trips, and exit-code contracts."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from geomideal import cli, linalg, polykernel
from geomideal.cli import (
    SceneError,
    emit_records,
    main,
    parse_records,
    parse_scene,
    records_to_report,
    render_text,
    report_to_records,
)
from geomideal.classify import classify

MINIMAL_P1 = """\
field rational
dim 1
sigma
1 0
0 1
ideal
x0
end
"""

ROOT = Path(__file__).resolve().parents[1]

FAT_POINT = """\
# non-reduced point with sigma-fixed support
field rational
dim 2
sigma
1 0 0
0 2 0
0 0 3
ideal
x0 + x1
x0^2
end
"""

FLAGSHIP = """\
field rational
dim 2
sigma
1 0 0
0 2 0
0 0 3
ideal
x0 - x2
x1 - x2
end
point [1:1:1]
horizon 8
maxdeg 4
declare gorenstein-z
"""


def scene_path(tmp_path, text, name="scene.scene"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def codes(err: SceneError):
    return [d.code for d in err.value.diagnostics]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_minimal_scene_parses():
    sf = parse_scene(MINIMAL_P1)
    assert sf.ring.nvars == 2
    assert len(sf.ideal.gens) == 1
    assert sf.points == () and sf.against is None


def test_fat_point_scene_parses():
    sf = parse_scene(FAT_POINT)
    assert sf.ring.nvars == 3
    assert len(sf.ideal.gens) == 2


def test_comments_and_blanks_ignored():
    text = "# header\n\nfield rational  # inline\n" + MINIMAL_P1.split("\n", 1)[1]
    sf = parse_scene(text)
    assert sf.ring.nvars == 2


def test_full_grammar():
    text = FLAGSHIP + "component\nx0 - x2\nx1 - x2\nend\noracle 5\norder-bound 7\n"
    sf = parse_scene(text)
    assert sf.horizon == 8 and sf.maxdeg == 4 and sf.oracle == 5
    assert sf.order_bound == 7
    assert sf.gorenstein_z
    assert len(sf.components) == 1 and sf.components[0][1] is None
    assert str(sf.points[0]) == "[1 : 1 : 1]"


def test_component_prime_marker():
    text = FAT_POINT + "component\nx0 + x1\nx0^2\nprime\nx0\nx1\nend\n"
    sf = parse_scene(text)
    (comp, prime) = sf.components[0]
    assert len(comp.gens) == 2 and len(prime.gens) == 2


def test_singular_sigma_diagnostic():
    text = MINIMAL_P1.replace("1 0\n0 1", "1 1\n1 1")
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert codes(err) == ["SINGULAR_SIGMA"]
    assert err.value.diagnostics[0].line == 3


def test_non_square_sigma_diagnostic():
    text = MINIMAL_P1.replace("1 0\n0 1", "1 0 0\n0 1 0")
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert "NON_SQUARE_SIGMA" in codes(err)


def test_truncated_sigma_diagnostic():
    text = MINIMAL_P1.replace("1 0\n0 1\n", "1 0\n")
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert "NON_SQUARE_SIGMA" in codes(err)


def test_bad_rational_diagnostic():
    text = MINIMAL_P1.replace("0 1", "0 1/0")
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert codes(err) == ["BAD_RATIONAL"]


def test_inhomogeneous_generator_diagnostic():
    text = MINIMAL_P1.replace("x0\n", "x0 + x0*x1\n")
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert codes(err) == ["INHOMOGENEOUS_GENERATOR"]


def test_bad_generator_diagnostic():
    text = MINIMAL_P1.replace("x0\n", "x0 +* x1\n")
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert codes(err) == ["BAD_GENERATOR"]


def test_missing_end_diagnostic():
    with pytest.raises(SceneError) as err:
        parse_scene(MINIMAL_P1.replace("x0\nend\n", "x0\n"))
    assert "MISSING_END" in codes(err)


def test_missing_directives_all_reported():
    with pytest.raises(SceneError) as err:
        parse_scene("horizon 4\n")
    assert set(codes(err)) == {
        "MISSING_FIELD", "MISSING_DIM", "MISSING_SIGMA", "MISSING_IDEAL"
    }


def test_point_diagnostics():
    with pytest.raises(SceneError) as err:
        parse_scene(FLAGSHIP.replace("point [1:1:1]", "point [1:1]"))
    assert codes(err) == ["BAD_POINT"]
    with pytest.raises(SceneError) as err:
        parse_scene(FLAGSHIP.replace("point [1:1:1]", "point [1:one:1]"))
    assert codes(err) == ["BAD_RATIONAL"]


def test_bad_field_diagnostic():
    with pytest.raises(SceneError) as err:
        parse_scene(MINIMAL_P1.replace("field rational", "field prime 6"))
    assert "BAD_FIELD" in codes(err)


def test_prime_field_scene():
    sf = parse_scene(MINIMAL_P1.replace("field rational", "field prime 7"))
    assert sf.ring.field.p == 7


def test_multiple_diagnostics_collected():
    text = MINIMAL_P1.replace("field rational", "flied rational")
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert "UNKNOWN_DIRECTIVE" in codes(err)
    assert "MISSING_FIELD" in codes(err)


def diagnostics(text):
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    return [(d.line, d.code, d.message) for d in err.value.diagnostics]


# MINIMAL_P1 with every other directive that may appear only once
ONCE_EACH = MINIMAL_P1 + """\
against
x1
end
quotient
x0*x1
end
horizon 3
maxdeg 3
oracle 3
order-bound 3
"""


@pytest.mark.parametrize("extra", [
    "field rational", "dim 1", "sigma", "ideal\nx1\nend", "sigma\n2 0\n0 1",
    "against\nx0\nend", "quotient\nx1^2\nend", "horizon 5", "maxdeg 5", "oracle 5",
    "order-bound 5",
])
def test_duplicate_directive_diagnostic(extra):
    """A repeat is one diagnostic at its own line, its body skipped unread."""
    head = extra.split()[0]
    assert diagnostics(ONCE_EACH + extra + "\n") == [
        (ONCE_EACH.count("\n") + 1, "DUPLICATE_DIRECTIVE", f"{head} given twice")]


@pytest.mark.parametrize("scene", [
    "sigma\n1 0\n0 1\nfield rational\ndim 1\nideal\nx0\nend\n",
    "field rational\nsigma\n1 0\n0 1\ndim 1\nideal\nx0\nend\n",
])
def test_sigma_before_its_context_is_one_diagnostic(scene):
    """A sigma ahead of field or dim is reported once; its rows are skipped
    unread, and the sigma was given, so it is not missing."""
    line = scene.split("\n").index("sigma") + 1
    assert diagnostics(scene) == [
        (line, "MISSING_CONTEXT", "sigma needs 'field' and 'dim' declared first")]


@pytest.mark.parametrize("dim, message", [
    ("one", "expected 'dim <d>'"),
    ("0", "dimension 0 outside 1..9"),
    ("10", "dimension 10 outside 1..9"),
])
def test_bad_dim_diagnostic(dim, message):
    found = diagnostics(MINIMAL_P1.replace("dim 1", f"dim {dim}"))
    assert found[0] == (2, "BAD_DIM", message)
    assert (8, "MISSING_DIM", "scene has no dim declaration") in found


@pytest.mark.parametrize("line, message", [
    ("horizon many", "expected 'horizon <N>'"),
    ("maxdeg", "expected 'maxdeg <N>'"),
    ("oracle 0", "oracle must be positive"),
    ("order-bound -2", "order-bound must be positive"),
])
def test_bad_count_diagnostic(line, message):
    assert diagnostics(MINIMAL_P1 + line + "\n") == [(9, "BAD_COUNT", message)]


@pytest.mark.parametrize("head", ["ideal", "against", "component"])
def test_empty_block_diagnostic(head):
    assert diagnostics(MINIMAL_P1 + f"{head}\nend\n") == [
        (9, "EMPTY_BLOCK", f"{head} block has no generators")]


def test_zero_generator_diagnostic():
    assert diagnostics(MINIMAL_P1.replace("x0\nend", "x0\nx1 - x1\nend")) == [
        (8, "BAD_GENERATOR", "zero generator")]


def test_directive_inside_a_block_is_missing_end():
    text = MINIMAL_P1.replace("x0\nend\n", "x0\nhorizon 3\n")
    assert diagnostics(text) == [
        (8, "MISSING_END", "block interrupted by directive 'horizon' before 'end'")]


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_records_round_trip_dicts():
    recs = [{"record": "bezout", "total": "4"},
            {"record": "tor", "j": 1, "degree": 0, "dimension": 0}]
    assert parse_records(emit_records(recs)) == recs


def test_classification_report_round_trips():
    sf = parse_scene(FLAGSHIP)
    rep = classify(sf.scene(), sample_points=sf.points, horizon=sf.horizon)
    recs = report_to_records(rep)
    assert records_to_report(parse_records(emit_records(recs))) == rep


def test_records_to_report_needs_header():
    with pytest.raises(ValueError):
        records_to_report([{"record": "row"}])


def test_empty_report_renders_header_only():
    text = render_text([{"record": "tor-table", "j_max": 3, "degrees": 6}])
    assert text == "# tor table (j = 0..3, degrees 0..6)\n"


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def test_gb_exit_zero(tmp_path, capsys):
    assert main(["gb", scene_path(tmp_path, MINIMAL_P1)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# groebner basis (1 generators")


def test_parse_error_exit_two(tmp_path, capsys):
    bad = MINIMAL_P1.replace("1 0\n0 1", "1 1\n1 1")
    assert main(["gb", scene_path(tmp_path, bad)]) == 2
    assert "SINGULAR_SIGMA" in capsys.readouterr().err


@pytest.mark.parametrize("field, sigma, ranks", [
    ("rational", "1 0 0\n0 0 0\n0 0 3", 0),
    ("prime 7", "1 0 0\n0 7 0\n0 0 3", 0),
    ("rational", "1 1 0\n1 1 0\n0 0 1", 1),
    ("prime 7", "1 2 0\n3 6 0\n0 0 3", 1),
])
def test_singular_sigma_diagnostic_bytes(field, sigma, ranks, tmp_path, capsys, monkeypatch):
    """A diagonal sigma is singular exactly when a diagonal entry is zero,
    so it is checked with no rank; any other sigma takes one rank.  Both
    print the same SINGULAR_SIGMA line and exit 2."""
    calls = []
    real_rank = linalg.rank

    def counting(*args):
        calls.append(args)
        return real_rank(*args)

    monkeypatch.setattr(linalg, "rank", counting)
    path = scene_path(tmp_path, f"field {field}\ndim 2\nsigma\n{sigma}\nideal\nx0 - x1\nend\n")
    assert main(["colon", path]) == 2
    err = capsys.readouterr().err
    assert err == f"{path}:line 3: SINGULAR_SIGMA: sigma matrix is singular\n"
    assert len(calls) == ranks


@pytest.mark.parametrize("field, coefficient", [("rational", "1/0"), ("prime 7", "1/7")])
def test_coefficient_outside_the_field_exits_two(tmp_path, capsys, field, coefficient):
    # a zero denominator, or one the characteristic divides, has no value
    text = MINIMAL_P1.replace("field rational", f"field {field}").replace(
        "x0\n", f"x0 + {coefficient}*x1\n")
    assert main(["gb", scene_path(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert "BAD_GENERATOR" in err and "Traceback" not in err


def test_smooth_z_declaration_is_rejected(tmp_path, capsys):
    # the grammar has no smoothness flag: no verdict would read it
    bad = FLAGSHIP + "declare smooth-z\n"
    assert main(["gb", scene_path(tmp_path, bad)]) == 2
    assert "BAD_DECLARE" in capsys.readouterr().err


def test_a_usage_error_leaves_the_next_call_unchanged(tmp_path, capsys):
    path = scene_path(tmp_path, MINIMAL_P1)
    assert main(["gb", path]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["gb", path, "--format", "yaml"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["gb", path]) == 0
    assert capsys.readouterr().out == first


# argv pieces: one token, or a flag and its value as two
ARGV_PIECES = [
    *[(token,) for token in (*cli.COMMANDS, "bad", "a.scene", "-", "-3", "text",
                             "records", "yaml", "", "--form", "--hor", "--h", "--o",
                             "--", "-x", "-h", "--help", "extra")],
    *[piece for flag, values in (("--format", ("text", "records", "yaml", "")),
                                 *((f, ("3", "-3", "0", "x", "3_0")) for f in oracles.OVERRIDE_FLAGS))
      for v in values for piece in ((flag, v), (f"{flag}={v}",))],
]


def _outcome(read, argv):
    """What `read` returns for argv, or the code it exits with (output dropped)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return read(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(ARGV_PIECES), max_size=7))
def test_argv_reads_as_argparse_read_it(pieces):
    """The hand reader and the former argparse parser agree on every argv:
    the same (command, scene, format, overrides), or both exit 0 (help), or
    both exit 2 (usage error)."""
    argv = [token for piece in pieces for token in piece]
    expected = _outcome(oracles.argparse_argv, argv)
    if isinstance(expected, tuple) and expected[1] == []:
        # this argparse strips a second "--" from the scene it fills, leaving
        # [] (on which main raised TypeError); after a "--" the reader keeps
        # every token, "--" too
        expected = (expected[0], "--", *expected[2:])
    assert _outcome(cli._read_argv, argv) == expected


@pytest.mark.parametrize("argv, expected", [
    (["colon", "-3"], ("colon", "-3", "text", {})),
    (["gb", "-", "--hor", "3_0", "--horizon=4", "--form=records"],
     ("gb", "-", "records", {"--horizon": 4})),
    (["--o", "-3", "gb", "--", "--format"], ("gb", "--format", "text", {"--oracle-horizon": -3})),
    (["-h", "bad"], 0),
    (["bad", "s", "-h"], 2),
    (["gb", "s", "extra", "-h"], 0),
    (["-h", "--h"], 2),
    (["gb", "s", "--horizon", "--format", "text"], 2),
    (["gb", "s", "--format", "text", "--"], 2),
    (["gb", "s", "--"], ("gb", "s", "text", {})),
    (["gb"], 2),
])
def test_argv_examples(argv, expected):
    assert _outcome(cli._read_argv, argv) == expected == _outcome(oracles.argparse_argv, argv)


def test_help_goes_to_stdout_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith("usage: geomideal [-h] <command> <scene>")
    assert all(flag in out for flag in ("--format", *oracles.OVERRIDE_FLAGS))


def test_usage_error_prints_usage_then_the_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gb", "s", "--format", "yaml"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err == (cli._USAGE + "geomideal: error: argument --format: invalid choice: "
                   "'yaml' (choose from 'text', 'records')\n")


def test_readme_shows_the_usage_text():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    assert block.split() == cli._USAGE.split()[1:]


def test_missing_file_exit_two(tmp_path, capsys):
    assert main(["gb", str(tmp_path / "absent.scene")]) == 2


def test_usage_error_exit_two(tmp_path, capsys):
    assert main(["tor", scene_path(tmp_path, MINIMAL_P1)]) == 2
    assert "against" in capsys.readouterr().err


def test_verification_failure_exit_three(tmp_path, capsys):
    bad = FAT_POINT + "component\nx0\nend\n"
    assert main(["classify", scene_path(tmp_path, bad)]) == 3
    assert "Hilbert functions diverge" in capsys.readouterr().err


def test_internal_value_error_is_not_a_verification_failure(tmp_path, capsys,
                                                           monkeypatch):
    def broken(sf):
        raise ValueError("internal invariant broken")

    monkeypatch.setitem(cli.DISPATCH, "gb", broken)
    with pytest.raises(ValueError, match="internal invariant"):
        main(["gb", scene_path(tmp_path, MINIMAL_P1)])
    assert "verification failure" not in capsys.readouterr().err


def test_probe_point_off_the_quotient_is_a_rejected_row(tmp_path, capsys):
    scene = FLAGSHIP.replace("point [1:1:1]\n", "") + "quotient\nx1^2*x2 - 2*x0^3\nend\n"
    assert main(["classify", scene_path(tmp_path, scene), "--format", "records"]) == 0
    rows = [r for r in parse_records(capsys.readouterr().out)
            if r.get("predicate") == "finite-cohomological-dimension"]
    assert rows[0]["verdict"] == "inconclusive"
    assert rows[0]["detail"].startswith("probe rejected: point not on")


GF103_ORBIT = """\
field prime 103
dim 1
sigma
1 0
0 5
ideal
x1 - 7*x0
end
point [1 : 1]
point [1 : 7]
horizon 3
"""


def test_gf103_orbit_names_its_first_hit_past_the_horizon(tmp_path, capsys):
    # 5 has order 102 mod 103 and 5^4 = 7, so [1:1] first meets Z at n = 4
    path = scene_path(tmp_path, GF103_ORBIT)
    assert main(["orbit", path, "--format", "records"]) == 0
    rows = parse_records(capsys.readouterr().out)[1:]
    assert rows[0]["hits"] == [] and rows[0]["first_hit"] == 4
    assert rows[0]["verdict"] == "infinite" and rows[0]["period"] == 102
    assert rows[1]["hits"] == [0] and "first_hit" not in rows[1]
    assert main(["orbit", path]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "[1 : 1]: infinite (period=102; periodicity; first hit 4); hits: none",
        "[1 : 7]: infinite (period=102; periodicity); hits: 0",
    ]


def test_resource_cap_exit_four(tmp_path, capsys):
    assert main(["idealizer", scene_path(tmp_path, MINIMAL_P1),
                 "--max-degree", "99"]) == 4
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["flag", "scene"])
def test_horizon_above_the_cap_exits_four(via, tmp_path, capsys):
    over = str(cli.HORIZON_CAP + 1)
    if via == "flag":
        argv = ["colon", scene_path(tmp_path, MINIMAL_P1), "--horizon", over]
    else:
        argv = ["colon", scene_path(tmp_path, MINIMAL_P1 + f"horizon {over}\n")]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"geomideal: resource cap: horizon {over} exceeds "
                            f"the cap {cli.HORIZON_CAP}\n")


def test_byte_identical_runs(tmp_path, capsys):
    path = scene_path(tmp_path, FLAGSHIP)
    assert main(["classify", path, "--format", "records"]) == 0
    first = capsys.readouterr().out
    assert main(["classify", path, "--format", "records"]) == 0
    assert capsys.readouterr().out == first


def test_classify_cli_emits_eight_rows(tmp_path, capsys):
    assert main(["classify", scene_path(tmp_path, FLAGSHIP),
                 "--format", "records"]) == 0
    recs = parse_records(capsys.readouterr().out)
    rows = [r for r in recs if r["record"] == "row"]
    assert len(rows) == 8
    by_name = {r["predicate"]: r for r in rows}
    assert by_name["right-noetherian"]["evidence"] == "heuristic"
    assert by_name["left-noetherian"]["evidence"] == "certified"
    assert by_name["strongly-left-noetherian"]["verdict"] == "no"


def test_classify_text_heuristic_rows_never_say_certified(tmp_path, capsys):
    assert main(["classify", scene_path(tmp_path, FAT_POINT)]) == 0
    out = capsys.readouterr().out.splitlines()
    for i, line in enumerate(out):
        if "[heuristic" in line:
            assert "certified" not in line
            assert "certified" not in out[i + 1]


def test_twist_check_text(tmp_path, capsys):
    assert main(["twist-check", scene_path(tmp_path, FLAGSHIP)]) == 0
    out = capsys.readouterr().out
    assert "x0*x1 = 2 * x1*x0" in out
    assert "associative on 27 degree-1 triples: yes" in out


def test_idealizer_oracle_column(tmp_path, capsys):
    path = scene_path(tmp_path, FLAGSHIP)
    assert main(["idealizer", path, "--max-degree", "3",
                 "--oracle-horizon", "4"]) == 0
    out = capsys.readouterr().out
    assert "oracle" in out and "agree" in out and "disagree" not in out


def test_idealizer_oracle_at_horizon_1000(capsys):
    """The oracle tests generators only, so a large horizon costs no more
    than the top generator degree, and no cap refuses it."""
    path = str(ROOT / "scenes" / "moving_point.scene")

    def rows(horizon):
        assert main(["idealizer", path, "--oracle-horizon", str(horizon),
                     "--format", "records"]) == 0
        return [r for r in map(json.loads, capsys.readouterr().out.splitlines())
                if r["record"] == "idealizer-row"]

    far = rows(1000)
    assert [r.get("oracle") for r in far[1:]] == ["agree"] * (len(far) - 1)
    assert far == rows(6)


def test_stdin_scene(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(MINIMAL_P1))
    assert main(["gb", "-"]) == 0
    assert "groebner" in capsys.readouterr().out


def test_horizon_override(tmp_path, capsys):
    path = scene_path(tmp_path, MINIMAL_P1)
    assert main(["colon", path, "--horizon", "3"]) == 0
    out = capsys.readouterr().out
    assert "degrees 1..3" in out


@pytest.mark.parametrize("command, flag, value", [
    ("colon", "--horizon", "0"),
    ("colon", "--horizon", "-3"),
    ("idealizer", "--max-degree", "-1"),
    ("idealizer", "--oracle-horizon", "0"),
])
def test_non_positive_override_exit_two(command, flag, value, capsys):
    path = str(ROOT / "scenes" / "moving_point.scene")
    assert main([command, path, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be positive" in captured.err


def test_shipped_scenes_match_the_golden_capture(monkeypatch, capsys):
    """Every (shipped scene, command, format) reproduces the captured bytes."""
    golden = json.loads((ROOT / "bench" / "golden" / "cli-scenes.json").read_text())
    scenes = {key.split()[0] for key in golden}
    assert scenes == {p.stem for p in (ROOT / "scenes").glob("*.scene")}
    monkeypatch.chdir(ROOT)
    differ = []
    for key, want in sorted(golden.items()):
        scene, command, fmt = key.split()
        rc = main([command, f"scenes/{scene}.scene", "--format", fmt])
        out, err = capsys.readouterr()
        if (rc, out, err) != (want["rc"], want["stdout"], want["stderr"]):
            differ.append(key)
    assert differ == []


# ---------------------------------------------------------------------------
# generator invariance: rescaled, reordered and padded generators
# ---------------------------------------------------------------------------

def invariance_scene(sigma, ideal, against):
    n = len(sigma)
    rows = [" ".join(str(lam if i == j else 0) for j in range(n)) for i, lam in enumerate(sigma)]
    return "\n".join(["field rational", f"dim {n - 1}", "sigma", *rows, "ideal", *ideal,
                      "end", "against", *against, "end", "horizon 8", ""])


# (sigma, generators, the same ideal rescaled, reordered and padded with a
# multiple of a generator, a subscheme to test transversality against)
INVARIANCE_CASES = {
    "point": ([1, 2, 3], ["x0 - x2", "x1 - x2"],
              ["x0^2 - x0*x2", "3*x1 - 3*x2", "-2*x0 + 2*x2"], ["x0 - x1"]),
    "line": ([1, 2, 3, 5], ["x0 + x1 - 2*x2 - x3", "x1 + x2 - 3*x3"],
             ["-2*x1 - 2*x2 + 6*x3", "x0^2 + x0*x1 - 2*x0*x2 - x0*x3",
              "3*x0 + 3*x1 - 6*x2 - 3*x3"], ["x0 - x3"]),
    "fat_point": ([1, 2, 3], ["x0 + x1", "x0^2"],
                  ["5*x0^2", "x0^2 + x0*x1", "-x0 - x1"], ["x1 - x2"]),
}


@pytest.mark.parametrize("case", sorted(INVARIANCE_CASES))
def test_generators_rescaled_reordered_and_padded_change_no_output(case, tmp_path, capsys,
                                                                   monkeypatch):
    """colon, ct-cert and transverse print the same bytes for the padded
    generators as for the plain ones.  The domain exit of the colon reads
    I's reduced basis, never its generators, so the padded point and line
    (a quadric among their generators) still take it: no Hilbert test."""
    sigma, plain, padded, against = INVARIANCE_CASES[case]
    tests = []
    real_test = polykernel._section

    def counting_test(I, g):
        tests.append(g)
        return real_test(I, g)

    monkeypatch.setattr(polykernel, "_section", counting_test)
    for command in ("colon", "ct-cert", "transverse"):
        outs = []
        for gens in (plain, padded):
            path = scene_path(tmp_path, invariance_scene(sigma, gens, against))
            tests.clear()
            assert main([command, path]) == 0
            outs.append(capsys.readouterr().out)
            if command == "colon" and case != "fat_point":
                assert tests == []
        assert outs[0] == outs[1]


CURVES = sorted((ROOT / "scenes" / "curves").glob("*.scene"))
# the commands that need a line the probe curves do not have
NEEDS = {"tor": "against", "transverse": "against", "bezout": "against",
         "orbit": "point"}


@pytest.mark.parametrize("path", CURVES, ids=lambda p: p.stem)
def test_probe_curves_run_under_every_command(path, capsys):
    """Each probe curve exits 0 with nothing on stderr under every command,
    or 2, with no traceback, where the command needs a line it lacks."""
    assert [p.stem for p in CURVES] == ["ci3", "rnc4", "rnc5", "rnc6", "tc3"]
    for command in cli.COMMANDS:
        code = main([command, str(path)])
        err = capsys.readouterr().err
        if command in NEEDS:
            assert code == 2 and f"'{NEEDS[command]}'" in err
            assert "Traceback" not in err
        else:
            assert (code, err) == (0, "")
