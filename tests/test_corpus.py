"""Every sidecar value in the shipped corpus is recomputed from scratch,
and the generator reproduces the shipped files byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from spiderweb import corpus
from spiderweb.basis import dim_invariants, path_tag
from spiderweb.building import euler_estimate
from spiderweb.diskoid import dual_diskoid, is_cat0
from spiderweb.oracle import contract_closed, web_vector
from spiderweb.skein import normal_form, evaluate_closed
from spiderweb.webs import parse_web, serialize_web
from spiderweb.weights import format_signature

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "src" / "spiderweb" / "corpus"

EXPECTED_NAMES = {"single-y", "bigon", "square", "loop", "theta",
                  "a1-example", "a2-example", "w-mu", "w-nu"}


def test_corpus_names():
    assert set(corpus.names()) == EXPECTED_NAMES


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_sidecar_values(name):
    w = corpus.load_web(name)
    exp = corpus.expected(name)
    assert exp["mode"] == w.mode
    assert exp["legs"] == len(w.boundary)
    assert exp["vertices"] == w.n_vertices()
    assert exp["edges"] == w.n_edges()
    assert exp["circles"] == w.circles
    assert exp["signature"] == format_signature(w.boundary_signature())
    assert exp["nonelliptic"] == w.is_nonelliptic()
    # text roundtrip
    assert parse_web(serialize_web(w)) == w

    if "skein_value" in exp:
        val = evaluate_closed(w)
        assert str(val) == exp["skein_value"]
        assert val.evaluate(-1) == exp["value_at_minus_one"]
    if "tensor_value" in exp:
        assert contract_closed(w) == exp["tensor_value"]
    if w.mode == "a2" and not w.circles:
        # chi is the skein at q = -1 of a closed web and, observed on
        # random webs, the sum of |entries| of an open web's vector
        chi = exp["euler_chi"]
        assert euler_estimate(dual_diskoid(w)) == chi
        if w.is_closed():
            assert chi == evaluate_closed(w, -1)
        else:
            assert chi == sum(abs(x) for x in web_vector(w).values())
    else:
        assert "euler_chi" not in exp
    if "path_tag" in exp:
        assert path_tag(w) == tuple(tuple(p) for p in exp["path_tag"])
    if "cat0" in exp:
        assert is_cat0(dual_diskoid(w)) == exp["cat0"]
    if "dim" in exp:
        assert dim_invariants(w.boundary_signature(), w.mode) == exp["dim"]
    if "reduction_terms" in exp:
        nf = normal_form(w)
        assert len(nf) == exp["reduction_terms"]
        assert sorted(str(c) for _w, c in nf.items()) == \
            exp["reduction_coefficients"]


def test_make_corpus_reproduces_shipped_files(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    tool = ROOT / "tools" / "make_corpus.py"
    proc = subprocess.run([sys.executable, str(tool), str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    shipped = sorted(p.name for p in CORPUS.iterdir()
                     if p.suffix in (".web", ".json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == \
            (CORPUS / name).read_bytes(), name
