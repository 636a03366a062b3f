"""`qtm check-string` and `qtm classes` on scrambled copies of every
pool pair of the benchmark's `pair-check` workload.

The exit codes and the JSON replies are pinned by digest, so any change
to a verdict, a method, a basis or a coefficient on these requests
fails here.  The pool covers every route through `check-string`: the
polygon, cube and prism closed forms and the general path (C4 x C5,
Q x I^2, the double cubes).  A second set of requests, the stuck
polygon(7) pairs, takes `qtm classes` through the fallback quotient map
that no pool pair reaches.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from qtm import cli, cohomology, intlin, stringcheck
from qtm.charmat import refine
from qtm.cohomology import (
    basis_coefficients,
    greedy_basis,
    p1_vector,
    presentation_deg4,
    reduce_to_basis,
)
from qtm.harness import SearchSpec, enumerate_matrices
from qtm.polytope import polygon
from qtm.stringcheck import refined_pair

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (bench/workloads.py, the pool's one source)

COPIES = 3  # scrambled copies per pool pair
SEED = 14

# sha256 of the JSON list of [exit code, stdout] over every request,
# in pool order, copies in seed order
EXPECTED = {
    "check-string": "72a67649e2a78826aba6af8d5780762c546199ef63df3681377944761fa1cfed",
    "classes": "97f38a231e5ba812dd95a0274909fa682275c89427ff9d88780e10e464849431",
}
# exit codes per request, same order
EXPECTED_EXITS = {
    "check-string": "1" * 102 + "0" * 54 + "1" * 3,
    "classes": "0" * 159,
}


@functools.lru_cache(maxsize=None)
def _pool():
    return tuple(workloads.pair_pool("full"))


def _requests(tmp_path):
    """(polytope file, matrix file) per request."""
    rng = random.Random(SEED)
    poly_files = {}
    out = []
    for label, p, lam in _pool():
        if id(p) not in poly_files:
            path = tmp_path / f"polytope-{len(poly_files)}.json"
            path.write_text(json.dumps(p.to_dict()))
            poly_files[id(p)] = str(path)
        for c in range(COPIES):
            path = tmp_path / f"{label.replace('#', '-')}-{c}.json"
            path.write_text(json.dumps({"rows": workloads.scramble(lam, rng)}))
            out.append((poly_files[id(p)], str(path)))
    return out


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _replies(tmp_path, command):
    return [_run([command, "-p", pf, "-m", mf]) for pf, mf in _requests(tmp_path)]


def _digest(replies) -> str:
    return hashlib.sha256(json.dumps(replies).encode()).hexdigest()


def test_check_string_replies_are_pinned(tmp_path):
    replies = _replies(tmp_path, "check-string")
    assert len(replies) == 53 * COPIES
    assert "".join(str(code) for code, _ in replies) == EXPECTED_EXITS["check-string"]
    methods = {json.loads(text)["method"] for _, text in replies}
    assert methods == {"closed-form", "general"}
    assert _digest(replies) == EXPECTED["check-string"]


def test_classes_replies_are_pinned(tmp_path):
    replies = _replies(tmp_path, "classes")
    assert "".join(str(code) for code, _ in replies) == EXPECTED_EXITS["classes"]
    assert _digest(replies) == EXPECTED["classes"]


def test_basis_coefficients_on_the_pool_pairs():
    for label, p, lam in _pool():
        rl = refined_pair(p, lam)
        pres = presentation_deg4(p, rl)
        p1 = p1_vector(p, rl)
        basis = greedy_basis(pres)
        expected = (basis, reduce_to_basis(pres, p1, basis))
        assert basis_coefficients(pres, p1) == expected, label


def _counted_request(tmp_path, monkeypatch, label):
    """Exit code, reply and call counts of one check-string request on a
    scrambled copy of the pool pair `label`."""
    p, lam = next((p, lam) for lb, p, lam in _pool() if lb == label)
    calls = {"unit_pivot_reduce": 0, "p1_vanishes": 0, "_transposed_quotient_map": 0}

    def counting(fn, name):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for module, name in (
        (intlin, "unit_pivot_reduce"),
        (cohomology, "_transposed_quotient_map"),
        (cohomology, "p1_vanishes"),
        (stringcheck, "p1_vanishes"),
    ):
        monkeypatch.setattr(module, name, counting(getattr(module, name), name))
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(p.to_dict()))
    mf = tmp_path / "m.json"
    mf.write_text(json.dumps({"rows": workloads.scramble(lam, random.Random(label))}))
    code, text = _run(["check-string", "-p", str(pf), "-m", str(mf)])
    return code, json.loads(text), calls


@pytest.mark.parametrize("label", ["c4xc5", "q-x-square", "double-cube#0", "double-cube#4"])
def test_general_path_reduces_the_live_rows_once(tmp_path, monkeypatch, label):
    code, reply, calls = _counted_request(tmp_path, monkeypatch, label)
    assert reply["method"] == "general"
    assert code == (0 if reply["string"] else 1)
    assert calls == {"unit_pivot_reduce": 1, "p1_vanishes": 0, "_transposed_quotient_map": 0}


@pytest.mark.parametrize("label", ["cube3-b1-string#0", "prism4-b1-string#0", "hex-prism"])
def test_closed_form_path_reduces_no_live_rows(tmp_path, monkeypatch, label):
    # spin pairs, so only p_1 is left to decide: the printed
    # coefficients decide it, with no reduction of the live rows
    code, reply, calls = _counted_request(tmp_path, monkeypatch, label)
    assert reply["method"] == "closed-form"
    assert reply["spin"]
    assert reply["string"] == (not any(c["coeff"] for c in reply["coefficients"]))
    assert code == (0 if reply["string"] else 1)
    assert calls == {"unit_pivot_reduce": 0, "p1_vanishes": 0, "_transposed_quotient_map": 0}


# sha256 of [exit code, stdout] over the stuck polygon(7) requests, in
# search order
STUCK_POLYGON7 = {
    "check-string": "2ff5f410c40cfa8ba7effc704e08ae527d9d10bbb6e59c560ef84e8a8941d00f",
    "classes": "7b7984982ec5540e07116c5b9703067abe8a5ab73ea4da7c286e779048f55ca2",
}


@functools.lru_cache(maxsize=None)
def _stuck_polygon7_rows():
    """The valid polygon(7) classes at bound 3 refined at each vertex v
    whose live rows leave the unit-pivot reduction without a unit entry,
    with the facets rotated so that v becomes (1, 2), the vertex the CLI
    refines at: over (1, 2) their live rows are stuck again."""
    p = polygon(7)
    survivors, _stats = enumerate_matrices(SearchSpec(p, 3, "signs", "valid"))
    out = []
    for lam in survivors:
        for v in p.vertices:
            rl = refine(p, lam, v)
            t = cohomology.relation_template(p, v)
            if intlin.unit_pivot_reduce(cohomology._live_rows(t, cohomology.columns(rl))) is None:
                # facet a goes to 1 and its successor around the polygon to 2
                a = v[0] if v[1] == v[0] % 7 + 1 else v[1]
                out.append([[row[(g + a - 1) % 7] for g in range(7)] for row in rl.rows])
    return p, out


def test_stuck_polygon7_replies_are_pinned(tmp_path, monkeypatch):
    p, rows = _stuck_polygon7_rows()
    assert len(rows) == 68
    # the pair the CI runs through `qtm classes`
    assert rows[0] == [[0, 1, -2, 5, 3, 4, 1], [1, 0, -1, 3, 2, 3, 1]]
    pf = tmp_path / "polygon7.json"
    pf.write_text(json.dumps(p.to_dict()))
    files = []
    for i, r in enumerate(rows):
        mf = tmp_path / f"stuck-{i}.json"
        mf.write_text(json.dumps({"rows": r}))
        files.append(str(mf))
    fallbacks = []
    real = cohomology._transposed_quotient_map

    def counted(relations, ngen):
        fallbacks.append(len(relations))
        return real(relations, ngen)

    monkeypatch.setattr(cohomology, "_transposed_quotient_map", counted)
    # none of these pairs is spin, and the polygon closed form answers
    # check-string without a presentation
    for command, code, per_request in (("classes", 0, 1), ("check-string", 1, 0)):
        del fallbacks[:]
        replies = [_run([command, "-p", str(pf), "-m", mf]) for mf in files]
        assert {c for c, _ in replies} == {code}, command
        assert len(fallbacks) == per_request * len(rows), command
        assert _digest(replies) == STUCK_POLYGON7[command], command
