import argparse
import json
import os
import random
import re

import pytest

from spiderweb import cli, corpus
from spiderweb.basis import enumerate_basis
from spiderweb.building import FieldParam, sample_polygon_config
from spiderweb.cli import main
from spiderweb.diskoid import dual_diskoid, parse_diskoid, serialize_diskoid
from spiderweb.render import render_diskoid, render_web
from spiderweb.webs import serialize_web
from spiderweb.weights import W1, W2, ZERO

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def corpus_path(name):
    return "corpus:" + name


# ---------------------------------------------------------------- render


def test_single_y_svg_has_three_arrows():
    svg = render_web(corpus.load_web("single-y"), "svg")
    assert svg.count("marker-end") == 3
    assert svg.startswith("<svg")


def test_render_deterministic():
    w = corpus.load_web("a2-example")
    assert render_web(w, "svg") == render_web(w, "svg")
    assert render_web(w, "tikz") == render_web(w, "tikz")


def test_w_mu_dual_tikz_golden():
    out = render_diskoid(dual_diskoid(corpus.load_web("w-mu")), "tikz")
    with open(os.path.join(GOLDEN, "w-mu-dual.tikz")) as f:
        assert out == f.read()


def test_a1_dual_renders():
    svg = render_diskoid(dual_diskoid(corpus.load_web("a1-example")), "svg")
    assert "<svg" in svg


# ---------------------------------------------------------------- CLI


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", corpus_path("single-y"))
    assert code == 0 and "ok" in out


def test_validate_missing_file(capsys):
    code, _out, err = run(capsys, "validate", "/nonexistent.web")
    assert code == 1 and "error" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["reduce"])
    assert e.value.code == 2


def test_budget_vertices_flag_is_gone(capsys):
    # the basis is built from its paths; no vertex budget is accepted
    for argv in (["--budget-vertices", "8", "basis", "--boundary", "w1,w2"],
                 ["basis", "--boundary", "w1,w2", "--budget-vertices", "8"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2


def test_reduce_square(capsys):
    code, out, _ = run(capsys, "reduce", corpus_path("square"), "--q=-1")
    assert code == 0
    assert "2 terms; value-check ok" in out


def test_eval_theta(capsys):
    code, out, _ = run(capsys, "eval", corpus_path("theta"))
    assert code == 0 and "-q^3-2q-2q^-1-q^-3" in out


def test_basis_single_entry(capsys):
    code, out, _ = run(capsys, "basis", "--boundary", "w1,w1,w1")
    assert code == 0
    assert out.count("path") == 1 or "1 " in out


def test_euler_theta(capsys):
    code, out, _ = run(capsys, "euler", "--web", corpus_path("theta"))
    assert code == 0
    assert "chi = 6; skein(q=-1) = 6; MATCH" in out


def test_euler_w_mu(capsys):
    code, out, _ = run(capsys, "euler", "corpus:w-mu", "--json")
    assert code == 0 and json.loads(out) == {"chi": 31908}


def test_fibre_of_a_closed_web_is_its_count(capsys):
    # no boundary: the stratum is the base alone, and the fibre is every
    # configuration; the walk used to index a vertex the polygon lacks
    code, out, _ = run(capsys, "fibre", corpus_path("theta"), "--q", "3")
    assert code == 0 and out == "stratum 0 over F_3: fibre size 52\n"


def test_fibre_over_a_clashing_boundary_is_empty(capsys, tmp_path):
    # the basis web of w1 w2 w1 w2 with path 0;w1;w1+w2;w1;0 has a dual
    # diskoid whose boundary passes the base twice; the seed-1 point of
    # the stratum 0;w1;0;w1;0 puts two classes there, so nothing lies
    # over it (the later class used to win, and the count was 1)
    sig = (W1, W2, W1, W2)
    w = next(w for top, w, _key in enumerate_basis(sig).entries
             if top == (ZERO, W1, (1, 1), W1, ZERO))
    D = dual_diskoid(w)
    assert D.boundary == (2, 0, 1, 0)
    target = (ZERO, W1, ZERO, W1, ZERO)
    x = sample_polygon_config(sig, target, FieldParam(2), random.Random(1))
    assert x[1] != x[3]
    path = tmp_path / "w.web"
    path.write_text(serialize_web(w))
    code, out, _ = run(capsys, "fibre", str(path), "--q", "2", "--seed", "1",
                       "--target", "0;w1;0;w1;0")
    assert code == 0 and out == "stratum 0;w1;0;w1;0 over F_2: fibre size 0\n"


def test_count_digon(capsys):
    code, out, _ = run(capsys, "count", "--boundary", "w1,w2", "--q", "2")
    assert code == 0 and "7" in out


def test_partition_json(capsys):
    code, out, _ = run(capsys, "partition", "--boundary", "w1,w1,w1",
                       "--q", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 21
    assert data["buckets_match_paths"] is True


def test_partition_reports_a_bucket_that_is_no_path(capsys, monkeypatch):
    # the bucket keys must be the minuscule paths: a key that leaves the
    # dominant chamber is caught, with MISMATCH and exit code 1
    bad = ((0, 0), (-1, 1), (0, 0))
    monkeypatch.setattr(cli, "satake_partition", lambda sig, fp: {bad: 7})
    code, out, _ = run(capsys, "partition", "--boundary", "w1,w2", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["buckets_match_paths"] is False
    code, out, _ = run(capsys, "partition", "--boundary", "w1,w2")
    assert code == 1 and "MISMATCH" in out


def test_partition_reports_a_dropped_stratum(capsys, monkeypatch):
    # every remaining key is a path, but one stratum is missing
    real = cli.satake_partition

    def dropped(sig, fp):
        buckets = dict(real(sig, fp))
        del buckets[next(iter(buckets))]
        return buckets

    monkeypatch.setattr(cli, "satake_partition", dropped)
    argv = ("partition", "--boundary", "w1,w2,w1,w2", "--q", "2")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    data = json.loads(out)
    assert data["buckets_match_paths"] is False and len(data["buckets"]) == 1
    code, out, _ = run(capsys, *argv)
    assert code == 1 and "MISMATCH" in out


@pytest.mark.parametrize("argv", [
    ("count", "--boundary", "w1,w2"),
    ("fibre", corpus_path("single-y")),
    ("partition", "--boundary", "w1,w2")])
@pytest.mark.parametrize("q", ["-1", "2/3", "1", "two"])
def test_counting_rejects_q_that_is_no_field_size(capsys, argv, q):
    # these used to count at q = 2 without saying so
    code, out, err = run(capsys, *argv, "--q=" + q)
    assert code == 1 and out == ""
    assert "--q %s is not a field size" % q in err


def test_counting_field_size_from_q_or_field(capsys):
    for flags in (("--q", "3"), ("--field", "3"), ("--q", "6/2")):
        code, out, _ = run(capsys, "partition", "--boundary", "w1,w2", *flags)
        assert code == 0 and out.startswith("0;w1;0 : 13\n")
    code, out, _ = run(capsys, "fibre", corpus_path("single-y"), "--q=3")
    assert code == 0 and "over F_3" in out


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "--boundary", "w1,w2,w1,w2,w1,w2")
    assert code == 0 and "6" in out


def test_dual_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "y.dsk"
    code, out, _ = run(capsys, "dual", corpus_path("single-y"),
                       "--out", str(out_file))
    assert code == 0
    D = parse_diskoid(out_file.read_text())
    assert D.n_triangles() == 1


def test_cat0(capsys):
    code, out, _ = run(capsys, "cat0", corpus_path("w-mu"))
    assert code == 0 and "CAT(0)" in out


def test_cat0_rejects_a_malformed_diskoid(capsys, tmp_path):
    # the single-Y dual with one triangle edge reversed
    bad = tmp_path / "bad.dsk"
    bad.write_text("type a2\nvertex a b c\nbase a\nboundary a b c\n"
                   "edge e0 a b w1\nedge e1 b c w1\nedge e2 a c w1\n"
                   "triangle e0 e1 e2\n")
    code, out, err = run(capsys, "cat0", str(bad))
    assert code == 1 and out == ""
    assert "error: triangle is not a unit lattice triangle" in err


def test_order(capsys):
    code, out, _ = run(capsys, "order", corpus_path("w-nu"),
                       corpus_path("w-mu"))
    assert code == 0 and "<=" in out


def test_rotate(capsys):
    code, out, _ = run(capsys, "rotate", corpus_path("a2-example"), "--i", "1")
    assert code == 0


def test_render_cli_svg(capsys):
    code, out, _ = run(capsys, "render", corpus_path("single-y"),
                       "--format", "svg")
    assert code == 0 and "<svg" in out


def test_oracle_closed(capsys):
    code, out, _ = run(capsys, "oracle", corpus_path("theta"))
    assert code == 0 and "6" in out


def test_selftest_all(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "0 failed" in out


def test_per_command_selftest(capsys):
    code, out, _ = run(capsys, "reduce", "--selftest")
    assert code == 0 and "0 failed" in out


def test_deterministic_output(capsys):
    a = run(capsys, "hexagon", "--seed", "4", "--samples", "2")
    b = run(capsys, "hexagon", "--seed", "4", "--samples", "2")
    assert a == b
    assert a[0] == 0 and "2 closure solutions" in a[1]


@pytest.mark.parametrize("n", ["0", "-1"])
def test_hexagon_rejects_no_samples(capsys, n):
    code, out, err = run(capsys, "hexagon", "--samples", n)
    assert code == 1 and out == ""
    assert "--samples must be at least 1, got %s" % n in err


def test_hexagon_refuses_f2_before_sampling(capsys, monkeypatch):
    # every generic barycentric row over F_2 is (1, 1, 1): no draw can pass
    def gone(*_args):
        raise AssertionError("sampled over F_2")

    monkeypatch.setattr(cli, "_random_hexagon_sample", gone)
    code, out, err = run(capsys, "hexagon", "--field", "2")
    assert code == 1 and out == ""
    assert "P^2(F_2) has no generic hexagon configuration" in err


@pytest.mark.parametrize("p", ["0", "1", "4", "6", "9"])
def test_hexagon_rejects_a_field_size_that_is_no_prime(capsys, p):
    # Z/6 and Z/9 have zero divisors: pow(a, p - 2, p) is no inverse there
    code, out, err = run(capsys, "hexagon", "--field", p, "--samples", "2",
                         "--seed", "3")
    assert code == 1 and out == ""
    assert "field size must be prime, got %s" % p in err


# ---------------------------------------------------------------- bad input


Y_WEB = corpus.web_text("single-y")
Y_DSK = serialize_diskoid(dual_diskoid(corpus.load_web("single-y")))


def shortened(text, i):
    """text with the last argument of line i dropped."""
    lines = text.splitlines()
    lines[i] = lines[i].rsplit(None, 1)[0]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command, suffix, text, i", [
    pytest.param(command, suffix, text, i, id="%s-line%d" % (command, i + 1))
    for command, suffix, text in (("cat0", ".dsk", Y_DSK),
                                  ("validate", ".web", Y_WEB))
    for i in range(len(text.splitlines()))])
def test_a_shortened_line_is_an_error_not_a_traceback(
        capsys, tmp_path, command, suffix, text, i):
    bad = tmp_path / ("bad" + suffix)
    bad.write_text(shortened(text, i))
    code, out, err = run(capsys, command, str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_unknown_diskoid_type_is_an_error(capsys, tmp_path):
    bad = tmp_path / "a3.dsk"
    bad.write_text(Y_DSK.replace("type a2", "type a3"))
    code, out, err = run(capsys, "cat0", str(bad))
    assert code == 1 and out == ""
    assert "error: line 1: type must be a1 or a2" in err


def test_cat0_rejects_a_repeated_edge_id(capsys, tmp_path):
    bad = tmp_path / "twice.dsk"
    bad.write_text(Y_DSK.replace("edge e0 p0 p1 w1\n",
                                 "edge e0 p0 p1 w1\n" * 2))
    code, out, err = run(capsys, "cat0", str(bad))
    assert code == 1 and out == ""
    assert "error: line 6: a second edge 'e0'" in err


@pytest.mark.parametrize("command", ["cat0", "render"])
def test_a_missing_diskoid_file_is_named_as_one(capsys, tmp_path, command):
    missing = str(tmp_path / "nonexistent.dsk")
    code, out, err = run(capsys, command, missing)
    assert code == 1 and out == ""
    assert err == "error: cannot find diskoid file %r\n" % (missing,)


@pytest.mark.parametrize("boundary", ["w1,w1+,w1", "w1,,w2", "w1,w2,"])
def test_malformed_boundary_is_an_error(capsys, boundary):
    code, out, err = run(capsys, "paths", "--boundary", boundary)
    assert code == 1 and out == ""
    assert err.startswith("error: bad weight syntax")


# ---------------------------------------------------------------- docs


def test_subcommand_lists_agree():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = re.search(r"Subcommands: `([^`]*)`", f.read()).group(1)
    doc = re.search(r"Subcommands: (.*?)\.\n", cli.__doc__, re.S).group(1)
    parser = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    assert set(readme.split()) == set(re.split(r"[,\s]+", doc)) == \
        set(parser.choices)
