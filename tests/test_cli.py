"""Command line round trips, exit codes, and JSON determinism."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from test_certify import H22_ODD, MISS_WORDS

from ttlab.atlas import (
    alpha,
    atlas_names,
    base_track,
    phi2,
    s1_moves,
    twisted_track,
)
from ttlab.cli import _COMMANDS, build_parser, main
from ttlab.fileio import dump_map, dump_sequence, dump_track, parse_document
from ttlab.incidence import PerronData
from ttlab.morphism import compose
from ttlab.search import SearchConfig


TWO_CIRCLES = """[track circles]
edges = a b

[switch v]
side_a = i(a)
side_b = t(a)

[switch w]
side_a = i(b)
side_b = t(b)
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_track_validate(capsys):
    code, out, _ = run(capsys, "track", "validate", "atlas:tau")
    assert code == 0
    assert "ok: tau is a valid track" in out
    assert "12 edges, 6 switches, chi = -6, genus = 3" in out


def test_track_info_json(capsys):
    code, out, _ = run(capsys, "track", "info", "atlas:tau", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 3
    assert data["cuspCounts"] == [6, 6]


def test_track_boundaries(capsys):
    code, out, _ = run(capsys, "track", "boundaries", "atlas:tau_prime")
    assert code == 0
    assert "curve 0: b f -i -k g j -h -d e a -c -l" in out
    assert "curve 1: -b -j i k -g -f h l -e -a c d" in out
    assert out.count("cusps at 0 2 4 6 8 10 (6 total)") == 2


def test_track_export_parses_back(capsys):
    code, out, _ = run(capsys, "track", "export", "atlas:tau")
    assert code == 0
    doc = parse_document(out)
    assert doc.tracks["tau"].canonical_key == base_track().canonical_key


def test_track_export_dot(capsys):
    code, out, _ = run(capsys, "track", "export-dot", "atlas:tau")
    assert code == 0
    assert out.startswith('digraph "tau"')


@pytest.mark.parametrize("argv", [
    ["track", "export", "atlas:tau"],
    ["track", "export-dot", "atlas:tau"],
    ["map", "compose", "atlas:phi1", "atlas:phi1"],
], ids=" ".join)
def test_document_and_graph_writers_take_no_json(capsys, argv):
    # they print a document or a graph, which --json never changed
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_map_keys_as_edge_labels_are_unreadable(capsys, tmp_path):
    path = tmp_path / "keys.tt"
    path.write_text(TWO_CIRCLES.replace("edges = a b", "edges = a source"))
    code, out, err = run(capsys, "track", "validate", str(path))
    assert (code, out) == (2, "")
    assert "track 'circles': bad edge label 'source'" in err
    assert "reserved map keys" in err
    # an end token names the reserved label
    path.write_text(TWO_CIRCLES.replace("edges = a b", "edges = a source")
                    .replace("(b)", "(source)"))
    code, _, err = run(capsys, "track", "validate", str(path))
    assert code == 2
    assert "bad end token 'i(source)'" in err
    assert "reserved" in err


def test_map_check(capsys):
    code, out, _ = run(capsys, "map", "check", "atlas:phi1")
    assert code == 0
    assert "ok" in out and "smooth" in out


def test_map_certify_text(capsys):
    code, out, _ = run(capsys, "map", "certify", "atlas:phi2")
    assert code == 0
    assert "verdict: pA" in out
    assert "dilatation: 2.296630262877" in out


def test_map_certify_expectations(capsys, tmp_path):
    code, *_ = run(capsys, "map", "certify", "atlas:phi2", "--expect", "pA")
    assert code == 0
    # a verdict that disagrees with --expect exits 3, apart from a failed
    # computation (1) and unusable input (2)
    code, _, err = run(capsys, "map", "certify", "atlas:phi1",
                       "--expect", "pA")
    assert code == 3
    assert "expected verdict 'pA', got 'reducible'" in err
    doc = tmp_path / "swap.tt"
    doc.write_text(TWO_CIRCLES + "\n[map swap]\nsource = circles\n"
                   "target = circles\na = b\nb = a\n")
    code, *_ = run(capsys, "map", "certify", str(doc), "--expect", "pA")
    assert code == 1
    code, *_ = run(capsys, "map", "certify", "atlas:nope", "--expect", "pA")
    assert code == 2
    # the map whose boundary image lands no cusp on a cusp, see test_certify
    doc = tmp_path / "miss.tt"
    doc.write_text(H22_ODD.read_text()
                   + "\n[map miss]\nsource = h22_odd\ntarget = h22_odd\n"
                   + "".join(f"{k} = {v}\n" for k, v in MISS_WORDS.items()))
    code, *_ = run(capsys, "map", "certify", str(doc),
                   "--expect", "inconclusive")
    assert code == 0


def test_map_dilatation_json_deterministic(capsys):
    code, out1, _ = run(capsys, "map", "dilatation", "atlas:phi2", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "map", "dilatation", "atlas:phi2", "--json")
    assert out1 == out2
    data = json.loads(out1)
    assert abs(data["value"] - 2.2966302628865) < 1e-9
    assert data["lower"] == "63234029278151/27533395471251"
    assert set(data["weights"]) == set("abcdefghijkl")


def test_non_self_map_has_no_dilatation(capsys, tmp_path):
    f = tmp_path / "ap.tt"
    f.write_text(dump_track(base_track()) + "\n" + dump_track(twisted_track())
                 + "\n" + dump_map(compose(phi2(), alpha()), "ap"))
    for cmd, what in (("certify", "certification"),
                      ("dilatation", "dilatation")):
        code, out, err = run(capsys, "map", cmd, f"{f}#ap")
        assert (code, out) == (1, "")
        assert f"error: {what} needs a self map" in err
        assert run(capsys, "map", cmd, f"{f}#ap", "--tol", "nan")[0] == 2


# SHA-256 of `ttlab map certify atlas:NAME --json` stdout, frozen from the
# Fraction-only Perron bracket: the float-picked bracket must print the same
# certificate bytes.
CERTIFICATE_SHA256 = {
    "beta": "70519b27fbd50a4901fbec1cccb8cb9c6deb40d2c56f8aa5d18ae7b6a1fcafff",
    "phi1": "cd158b86441a6fb445e165a2c250d221e5b38fbc733d0195fe5c34cfb2520d17",
    "phi2": "72f00a89a31f9c716b9e5b83fcbcbeb6b2569d7c68812212385f82ce799254e7",
    "phi3": "6b8e9e2fc3cb6dd17b38c0a527c77aed4609d48453d96f2ddc5aa71e63b54ec4",
    "phi:161":
        "c0e8cd044854a00ed92ceb282d521caf30f217b9c5a9be20976f44acd14461e6",
    "phi:1281":
        "0f4517bf49c21ef67619a9310772b98f63522f8db59025342862fb846c966ac5",
    "psi:40":
        "af211c11249345c3c858424d501bfa6a68bb0f5ee625050c48530e318f5e91bd",
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_SHA256))
def test_certificate_bytes_are_frozen(capsys, name):
    code, out, _ = run(capsys, "map", "certify", f"atlas:{name}", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFICATE_SHA256[name]


def test_long_dilatation_bytes_are_frozen(capsys):
    # `ttlab map dilatation atlas:phi:1281 --json`, frozen from the bracket
    # that walked every Perron step
    code, out, _ = run(capsys, "map", "dilatation", "atlas:phi:1281", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "616e3978481d002eb927c745049b207ad7f82a7d514376a973882052e090b3c5")


def test_long_replay_bytes_are_frozen(capsys):
    # `ttlab seq apply atlas:tau_initial atlas:seq:641 --json`, frozen from
    # the replay that re-reduced each whole image after every move
    code, out, _ = run(capsys, "seq", "apply", "atlas:tau_initial",
                       "atlas:seq:641", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ce82b9dfd4a89b5d8a486c79f1df37b4ae4bc53d552dae6a849b997b212e7602")


def test_map_compose(capsys):
    code, out, _ = run(capsys, "map", "compose",
                       "atlas:alpha", "atlas:phi1", "atlas:t_ig",
                       "--name", "composite")
    assert code == 0
    doc = parse_document(dump_track(base_track()) + "\n"
                         + dump_track(base_track().relabel(
                             {"i": "g", "g": "i"}, name="tau_prime")) + "\n"
                         + out)
    assert doc.maps["composite"].mapping == phi2().mapping


@pytest.mark.parametrize("name", ["two words", "a#b", "a]b"])
def test_map_compose_rejects_a_name_no_header_can_hold(capsys, name):
    code, out, err = run(capsys, "map", "compose", "atlas:phi1", "atlas:phi1",
                         "--name", name)
    assert (code, out) == (2, "")
    assert f"map name {name!r} cannot head a section" in err


def test_map_boundaries(capsys):
    code, out, _ = run(capsys, "map", "boundaries", "atlas:phi1")
    assert code == 0
    assert "curve 0 -> curve 0, rotation 4, cusp shift 2" in out


def test_seq_parse_and_apply(capsys, tmp_path):
    f = tmp_path / "s1.tt"
    f.write_text(dump_sequence(s1_moves(), name="s1"))
    code, out, _ = run(capsys, "seq", "parse", f"{f}#s1")
    assert code == 0
    assert out.startswith("12 moves: i(b)/t(l);")
    code, out, _ = run(capsys, "seq", "apply", "atlas:tau_initial", str(f),
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["moves"] == 12
    # raw composite, before any seed/final identification is chosen
    assert data["composite"]["b"] == "l b d"
    assert data["composite"]["c"] == "a c a"
    assert data["final"]["edges"] == list("abcdefghijkl")


def test_atlas_list(capsys):
    code, out, _ = run(capsys, "atlas", "list")
    assert code == 0
    for name in ("tau", "phi2", "s1", "phi:N"):
        assert name in out
    code, out, _ = run(capsys, "atlas", "list", "--json")
    entries = json.loads(out)
    assert {"tau", "phi2", "t_gi"} <= set(entries)
    assert entries["beta"] == "label involution of tau"


def test_atlas_export(capsys):
    code, out, _ = run(capsys, "atlas", "export", "phi1")
    assert code == 0
    assert "[map phi1]" in out


def test_atlas_export_family_members(capsys):
    code, out, _ = run(capsys, "atlas", "export", "phi:7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "phi7"
    assert data["source"] == data["target"] == "tau"
    assert data["images"]["k"] == "e a e a e a d h l a e a e a e"
    code, out, _ = run(capsys, "atlas", "export", "psi:2")
    assert code == 0
    assert "[map psi2]" in out


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    # every `ttlab` line of the command block, without its comment and its
    # redirection; `--out loops/` writes under tmp_path
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split(">", 1)[0].split()[1:]
             for line in block.splitlines() if line.startswith("ttlab ")]
    assert len(lines) >= 15
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


# SHA-256 over the stdout of `ttlab atlas export NAME` then `... NAME --json`
# for every plain name of `atlas list` and four family members, in that
# order, followed by the stdout of `ttlab atlas list --json`
CATALOGUE_SHA256 = (
    "21fcc3ef675b0db0723cf3778f85249057c3b21bbed76dc2995ee95cdfa676fd")


def test_catalogue_bytes_are_frozen(capsys):
    names = [n for n in atlas_names() if not n.endswith(":N")]
    digest = hashlib.sha256()
    for name in names + ["phi:1", "phi:3", "psi:0", "seq:3"]:
        for extra in ((), ("--json",)):
            code, out, _ = run(capsys, "atlas", "export", name, *extra)
            assert code == 0
            digest.update(out.encode())
    code, out, _ = run(capsys, "atlas", "list", "--json")
    assert code == 0
    digest.update(out.encode())
    assert digest.hexdigest() == CATALOGUE_SHA256


@pytest.mark.parametrize("argv, message", [
    (("map", "check", "atlas:s1"), "'atlas:s1' is not a map"),
    (("track", "validate", "atlas:phi1"), "'atlas:phi1' is not a track"),
    (("seq", "parse", "atlas:tau"), "'atlas:tau' is not a splitting sequence"),
    (("atlas", "export", "foo:x"), "bad parameter in atlas name 'foo:x'"),
    (("atlas", "export", "tau:3"), "no atlas entry named 'tau:3'"),
    (("atlas", "export", "phi:4"), "phi is defined for odd indices and 2, not 4"),
    (("atlas", "export", "phi:-3"), "phi is defined for odd indices and 2, not -3"),
    (("atlas", "export", "psi:-1"), "psi needs n >= 0, not -1"),
    # a family index has one spelling, in ASCII digits
    *((("atlas", "export", name), f"bad parameter in atlas name {name!r}")
      for name in ("phi:1_1", "phi:+3", "phi:03", "phi: 3", "phi:3 ",
                   "phi:\u0663", "psi:-0", "seq:-")),
])
def test_catalogue_error_messages(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_atlas_reconstruct(capsys):
    code, out, _ = run(capsys, "atlas", "reconstruct")
    assert code == 0
    assert "reconstruction matches the stored base track" in out


def test_search_loops_depth_one(capsys):
    code, out, _ = run(capsys, "search", "loops", "atlas:tau", "--depth", "1")
    assert code == 0
    assert "found 0 loop(s) from tau at depth <= 1" in out


def test_search_loops_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "loops"
    code, out, _ = run(capsys, "search", "loops", "atlas:tau_prime",
                       "--depth", "4", "--no-certify",
                       "--out", str(out_dir))
    assert code == 0
    assert "found 80 loop(s)" in out
    assert f"wrote 80 file(s) under {out_dir}" in out
    files = sorted(out_dir.glob("loop-*.tt"))
    assert len(files) == 80
    doc = parse_document(files[0].read_text())
    assert len(doc.sequences) == 1 and len(doc.maps) == 2


def test_depth_six_search_bytes_are_frozen(capsys):
    # `ttlab search loops atlas:tau_prime --depth 6 --no-certify --json`
    # under the default node budget; frozen from the search that pruned only
    # with one move left, which needed `--max-nodes 1000000` for it
    code, out, _ = run(capsys, "search", "loops", "atlas:tau_prime",
                       "--depth", "6", "--no-certify", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e7bac8ddbdce5e4023ac5b968edfb62be4a0f46764aae0d51b82af5c7c291526")


def test_search_loops_budget_and_bad_parameters(capsys):
    code, _, err = run(capsys, "search", "loops", "atlas:tau_prime",
                       "--depth", "30", "--no-certify", "--max-nodes", "200")
    assert code == 1
    assert "expanded more than 200 tracks" in err
    for extra in (["--depth", "-1"],
                  ["--depth", "2", "--max-nodes", "0"],
                  ["--depth", "2", "--max-nodes", "-5"]):
        code, _, _ = run(capsys, "search", "loops", "atlas:tau_prime",
                         "--no-certify", *extra)
        assert code == 2
    # verdicts never read the Perron bracket, so the search takes no --tol
    with pytest.raises(SystemExit) as exc:
        main(["search", "loops", "atlas:tau_prime", "--tol", "1e-3"])
    assert exc.value.code == 2


def test_search_node_budget_defaults_to_50000(capsys, monkeypatch):
    import ttlab.cli

    seen, real = [], ttlab.cli.search_loops
    monkeypatch.setattr(ttlab.cli, "search_loops",
                        lambda seed, cfg: seen.append(cfg) or real(seed, cfg))
    code, _, _ = run(capsys, "search", "loops", "atlas:tau_prime",
                     "--depth", "1", "--no-certify")
    assert code == 0
    assert [cfg.max_nodes for cfg in seen] == [SearchConfig().max_nodes] == [50_000]
    with pytest.raises(SystemExit):
        main(["search", "loops", "--help"])
    assert "(default 50000)" in " ".join(capsys.readouterr().out.split())


def test_dilatation_bracket_past_the_digit_cap(capsys, monkeypatch):
    # a bracket whose numerators are past str()'s default cap of 4,300
    big = PerronData(value=3.0, lower=Fraction(10**5000 + 1, 3),
                     upper=Fraction(10**5000 + 2, 3), iterations=9,
                     weights=(1 / 12,) * 12)
    monkeypatch.setattr("ttlab.cli.dilatation", lambda mat, tol: big)
    code, out, _ = run(capsys, "map", "dilatation", "atlas:phi2")
    assert code == 0
    lower, upper = "1" + "0" * 4999 + "1/3", "3" * 4999 + "4"
    assert f"certified bracket [{lower}, {upper}] (width" in out
    code, out, _ = run(capsys, "map", "dilatation", "atlas:phi2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["lower"], doc["upper"]) == (lower, upper)


def test_exit_code_two_for_bad_input(capsys, tmp_path):
    assert run(capsys, "track", "info", "/does/not/exist.tt")[0] == 2
    assert run(capsys, "atlas", "export", "zeta")[0] == 2
    assert run(capsys, "atlas", "export", "phi:4")[0] == 2
    assert run(capsys, "map", "check", "atlas:tau")[0] == 2
    assert run(capsys, "map", "certify", "atlas:phi2", "--tol", "0")[0] == 2
    assert run(capsys, "map", "dilatation", "atlas:phi2", "--tol", "nan")[0] == 2
    f = tmp_path / "bad.tt"
    f.write_text("[map bad]\nsource = atlas:tau\ntarget = atlas:tau\na = zz\n"
                 + "".join(f"{lab} = {lab}\n" for lab in "bcdefghijkl"))
    for argv in (("map", "dilatation", str(f)),
                 ("map", "compose", str(f), "atlas:phi1"),
                 ("map", "compose", "atlas:phi1", str(f)),
                 ("map", "check", str(f)),
                 ("map", "certify", str(f))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "line 1: map 'bad': image of 'a' uses unknown edge 'zz'" in err


LOOP = "[track loop]\nedges = a\n\n[switch v]\nside_a = i(a)\nside_b = t(a)\n"


@pytest.mark.parametrize("argv, text, message", [
    (("track", "validate"),
     LOOP.replace("edges = a\n", "edges = a\nboundaryzz outer = a b\n"),
     "line 3: unknown track key 'boundaryzz outer'"),
    (("map", "check"), "[map m]\nsource = atlas:nope\ntarget = atlas:tau\n",
     "line 2: no atlas entry named 'nope'"),
    (("map", "check"), "[map m]\nsource = atlas:tau\ntarget = atlas:phi:x\n",
     "line 3: bad parameter in atlas name 'phi:x'"),
    (("map", "check"), "[map m]\nsource = atlas:phi:20003\ntarget = atlas:tau\n",
     "line 2: atlas indices stop at 10001, not 20003"),
])
def test_bad_document_line_is_bad_input(capsys, tmp_path, argv, text, message):
    f = tmp_path / "bad.tt"
    f.write_text(text)
    assert run(capsys, *argv, str(f)) == (2, "", f"error: {message}\n")


def test_disconnected_track_is_invalid(capsys, tmp_path):
    f = tmp_path / "circles.tt"
    f.write_text(TWO_CIRCLES)
    for cmd in ("validate", "info"):
        code, out, err = run(capsys, "track", cmd, str(f))
        assert (code, out) == (1, "")
        assert "track is not connected" in err


def test_certify_on_a_disconnected_track_is_invalid(capsys, tmp_path):
    f = tmp_path / "swap.tt"
    f.write_text(TWO_CIRCLES + "\n[map swap]\nsource = circles\n"
                 "target = circles\na = b\nb = a\n")
    code, out, err = run(capsys, "map", "certify", str(f))
    assert (code, out) == (1, "")
    assert "certification needs a connected track" in err


@pytest.mark.parametrize("argv", [
    ("map", "check", "atlas:phi:999999999999"),
    ("map", "check", "atlas:psi:99999999"),
    ("seq", "apply", "atlas:tau_initial", "atlas:seq:999999999999"),
    ("atlas", "export", "phi:999999999999"),
    ("atlas", "export", "psi:99999999"),
])
def test_huge_atlas_index_is_bad_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "atlas indices stop at 10001" in err


def test_edgeless_track_is_bad_input(capsys, tmp_path):
    f = tmp_path / "empty.tt"
    f.write_text("[track e]\nedges =\n\n[map f]\nsource = e\ntarget = e\n")
    for argv in (("track", "info", str(f)), ("map", "certify", f"{f}#f")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "track 'e': a track needs at least one edge" in err


def test_errors_go_to_stderr(capsys):
    code, out, err = run(capsys, "atlas", "export", "zeta")
    assert code == 2
    assert out == ""
    assert "zeta" in err


def test_import_needs_only_the_standard_library():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import ttlab.cli\n"
        "from ttlab import atlas\n"
        "atlas.phi2()\n"
        "allowed = set(sys.stdlib_module_names) | {'ttlab', '__main__'}\n"
        "print(sorted({n.split('.')[0] for n in sys.modules} - allowed))\n"
    )
    # -I drops PYTHONPATH and the user site, -S every other site directory
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _parse_outcome(parse, argv):
    """(stdout, stderr, exit code) of a parse that exits, as argparse does on
    a help page or a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return out.getvalue(), err.getvalue(), exc.value.code


_HELP_PAGES = [["-h"]] + [[group, "-h"] for group, _, _ in _COMMANDS] + [
    [group, name, "-h"] for group, _, commands in _COMMANDS
    for name, _, _ in commands]


@pytest.mark.parametrize("argv", _HELP_PAGES + [
    ["nope", "certify", "atlas:phi2"],
    ["map", "nope", "atlas:phi2"],
    ["map"],
    ["map", "certify"],
    ["seq", "apply", "atlas:tau_initial"],
    ["map", "certify", "atlas:phi2", "--tol", "abc"],
    ["map", "certify", "atlas:phi2", "--expect", "bogus"],
    ["search", "loops", "atlas:tau", "--depth"],
    ["track", "export", "atlas:tau", "--json"],
], ids=" ".join)
def test_lean_parser_matches_the_full_tree(argv):
    # main builds arguments for the named command alone; every help page and
    # usage error must read as the full tree's, byte for byte
    want = _parse_outcome(lambda a: build_parser().parse_args(a), argv)
    assert _parse_outcome(main, argv) == want


def test_main_builds_arguments_for_the_named_command_only(capsys,
                                                         monkeypatch):
    import ttlab.cli

    seen = []

    def spy(argv=()):
        seen.append(tuple(argv))
        return build_parser(argv)

    monkeypatch.setattr(ttlab.cli, "build_parser", spy)
    assert main(["map", "check", "atlas:phi2"]) == 0
    assert main(["atlas", "list"]) == 0
    assert seen == [("map", "check", "atlas:phi2"), ("atlas", "list")]
    # the other commands of the group are there, without their arguments
    lean = build_parser(["map", "check"])
    with pytest.raises(SystemExit):
        lean.parse_args(["map", "certify", "atlas:phi2"])
    assert "unrecognized arguments: atlas:phi2" in capsys.readouterr().err


# README's file-format track, and a self map of it whose boundary image
# cancels unevenly at both cusps of curve 0
TRACK_X = """[track x]
edges = a b
boundary outer = a b

[switch v1]
side_a = t(a) i(b)
side_b = i(a) t(b)
"""
FOLD = "\n[map fold]\nsource = x\ntarget = x\na = b a -b\nb = -a a b\n"
NO_OUTPUT = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


# (exit code, SHA-256 of stdout, SHA-256 of stderr) of output forms no other
# test pins; "{tmp}" stands for a directory whose fold.tt holds TRACK_X and
# FOLD
FROZEN_OUTPUT = [
    (("track", "export-dot", "atlas:tau"), (0,
     "d38e9a5be9de9dbecf305bc2aff00f0c668309a094ecade534828c54fa1d564b",
     NO_OUTPUT)),
    (("track", "validate", "atlas:tau"), (0,
     "669ab6035fa147370a14d98ed7acd8bf05c68165ccd5e6a956b365ca458073d5",
     NO_OUTPUT)),
    (("track", "validate", "atlas:tau", "--json"), (0,
     "b33653d18b071498a374004942f6e87e408a2da5f2b8adbaf48460fcb126633a",
     NO_OUTPUT)),
    (("track", "info", "atlas:tau"), (0,
     "22479b7064dae0c75a2c14bf7f7066620ac1f368b8d857bc24f1c6ae6d5b68a5",
     NO_OUTPUT)),
    (("track", "boundaries", "atlas:tau", "--json"), (0,
     "35a6e156e1b2e39d8a810762c04a34853100c822ac8d61cf47d8108c97b186c5",
     NO_OUTPUT)),
    (("map", "check", "atlas:phi1", "--json"), (0,
     "9aeca1d6257ebafddebcf6a60bf1dace6e8a32f10b3c4aa0be354b8af836e495",
     NO_OUTPUT)),
    (("map", "certify", "atlas:phi1", "--expect", "pA"), (3,
     "47390d9a6022be537b0583d410a06f43c25766becf1f8436d2d6772132bae195",
     "e84685f4332c3e3b2127f7a0542f2feaa0478453e13c8c083d7d204c4c0c08f8")),
    (("map", "boundaries", "{tmp}/fold.tt", "--json"), (0,
     "d6142db75359778d78da72b073c4c7414f68ee65e2c9049f554e27f445ca4023",
     NO_OUTPUT)),
    (("map", "boundaries", "{tmp}/fold.tt"), (0,
     "72922fc52209578bf444b377a7593d61ea235cc69ff53c86fd3968b3bba93bb7",
     NO_OUTPUT)),
    (("seq", "parse", "atlas:s1", "--json"), (0,
     "87643a6c073ff657ec15defed428c0aacbb336b23462c54c5e837c1546564944",
     NO_OUTPUT)),
    (("seq", "apply", "atlas:tau_initial", "atlas:s1"), (0,
     "a608b0f9f02a08030d8edc919e6ac500a171ce255d530bc936994143af66c14f",
     NO_OUTPUT)),
    (("atlas", "reconstruct", "--json"), (0,
     "7bca7c6518caf72fd8d092c5bc1df1e8fd18b122ee0283d529efaf29882cec05",
     NO_OUTPUT)),
    (("search", "loops", "atlas:tau_prime", "--depth", "4", "--json"), (0,
     "bd5a469b6e96b2051bd92548756c16cf9813a8932b1a96373fb97255a2b369b5",
     NO_OUTPUT)),
    (("search", "loops", "atlas:tau_prime", "--depth", "4"), (0,
     "726fe0dd6fff5d5c91218c85bf628ba50fb85be58c3852787f246d407cf3edc0",
     NO_OUTPUT)),
    # --out DIR is a directory of loop files, never the stdout of --json
    (("search", "loops", "atlas:tau_prime", "--depth", "4", "--json",
      "--out", "{tmp}/loops"), (0,
     "bd5a469b6e96b2051bd92548756c16cf9813a8932b1a96373fb97255a2b369b5",
     NO_OUTPUT)),
]


@pytest.mark.parametrize("argv, frozen", FROZEN_OUTPUT,
                         ids=[" ".join(argv) for argv, _ in FROZEN_OUTPUT])
def test_output_forms_are_frozen(capsys, tmp_path, argv, frozen):
    (tmp_path / "fold.tt").write_text(TRACK_X + FOLD)
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, *(hashlib.sha256(s.encode()).hexdigest()
                    for s in (out, err))) == frozen


@pytest.mark.parametrize("extra, frozen", [
    ((), "d39dcbac629b62e69e75ee94c1cb56d2dd3ac1a81696fda29ec836a4e5d43aaf"),
    (("--json",),
     "abe84e915c7ddb1790c925dbd09ba2be9d516d8ae74ddb98ad21c311269eba4c"),
])
def test_atlas_reconstruct_reports_a_mismatch(capsys, monkeypatch, extra,
                                              frozen):
    monkeypatch.setattr("ttlab.atlas.reconstruct_base_track", twisted_track)
    code, out, err = run(capsys, "atlas", "reconstruct", *extra)
    assert (code, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == frozen
    assert ("DIFFERS FROM" in out) == (not extra)


@pytest.mark.parametrize("argv", [
    ("track", "validate", "atlas:tau"),
    ("track", "export", "atlas:tau"),
    ("map", "certify", "atlas:phi2", "--json"),
    ("map", "certify", "atlas:phi1", "--expect", "pA"),
    ("atlas", "reconstruct"),
], ids=" ".join)
def test_out_file_holds_what_stdout_would(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv)
    f = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(f)) == (code, "", err)
    assert f.read_text() == out


def test_unwritable_out_file_is_bad_input(capsys, tmp_path):
    f = tmp_path / "no" / "such" / "dir.txt"
    code, out, err = run(capsys, "track", "validate", "atlas:tau",
                         "--out", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "No such file or directory" in err


def test_declared_boundary_must_be_traced(capsys, tmp_path):
    f = tmp_path / "x.tt"
    f.write_text(TRACK_X.replace("outer = a b", "outer = b b a -b"))
    assert run(capsys, "track", "validate", str(f)) == (
        2, "", "error: line 1: track 'x': boundary 'outer' = b b a -b is not "
        "a boundary curve in either direction\n")


def test_every_argument_has_help(capsys):
    for group, _, commands in _COMMANDS:
        for name, _, arguments in commands:
            assert all("help" in kw for kw in arguments.values()), (group, name)
    with pytest.raises(SystemExit):
        main(["map", "certify", "--help"])
    assert "exit 3 unless the verdict matches" in capsys.readouterr().out
