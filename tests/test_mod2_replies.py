"""The replies of the mod-2 commands, pinned by digest.

`qtm enumerate --mod2`, `qtm verify c5xc5-not-spin`, `qtm validate
--mod2` and `qtm smallcover` write GF(2) matrices under the key
"rows_mod2" and read them from files with that key.  Each request's
exit code, stdout and stderr are pinned, so a change to that key, to a
survivor's rows or order, to a verdict, or to an error message fails
here.  Two fields are blanked before hashing: a search's wall time
(`"elapsed"`) and, in a claim report, the Python version.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re

from qtm import cli
from qtm.polytope import polygon, product, simplex

# the hexagon 3-colouring with row 1 added to row 2: valid, not refined
HEXAGON = [[1, 0, 1, 0, 1, 0], [1, 1, 1, 1, 1, 1]]
# the same matrix plus twice an integer matrix with negative entries
HEXAGON_LIFTED = [[3, -2, 1, 4, -1, 2], [-1, 5, 3, 1, 1, -3]]

# (name, polytope, file contents) per matrix file
MATRICES = (
    ("hexagon", polygon(6), {"rows_mod2": HEXAGON}),
    ("hexagon-lifted", polygon(6), {"rows_mod2": HEXAGON_LIFTED}),
    ("singular", polygon(3), {"rows_mod2": [[1, 0, 0], [0, 1, 0]]}),
    ("non-orientable", polygon(3), {"rows_mod2": [[1, 0, 1], [0, 1, 1]]}),
    ("wrong-shape", polygon(3), {"rows_mod2": [[1, 0, 1, 1], [0, 1, 1, 0]]}),
    ("empty", polygon(3), {"rows_mod2": [[]]}),
    ("ragged", polygon(3), {"rows_mod2": [[1, 0, 1], [0, 1]]}),
    ("not-integers", polygon(3), {"rows_mod2": [1, 0, 1]}),
    ("integer-key", polygon(3), {"rows": [[1, 0, 1], [0, 1, 1]]}),
)

# sha256 of the JSON list of [exit code, stdout, stderr] over every
# request of the command, in request order
EXPECTED = {
    "enumerate": "5a5fa1e8a121c2fe2893e1e0652b24a3913119616bbe382b79711c0df29e6afa",
    "verify": "27cf049fd2a333b388e842ef044636a83b2eb90c81eec73237ec555bef56a15b",
    "validate": "1f648d1291a4124b3453180d34ef59efd72829a453be06af3b7ee9f626f8279c",
    "smallcover": "0e12bf21306facba76dc054d02d10d4241fc956e5d19d09f1918316808de7308",
}
EXPECTED_EXITS = {
    "enumerate": "000",
    "verify": "0",
    "validate": "001022222",
    "smallcover": "002122222",
}


def _write(tmp_path, name, d) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(d))
    return str(path)


def _requests(tmp_path):
    """command -> argv per request."""
    spaces = {
        "c5xc4": product(polygon(5), polygon(4)),
        "d3xd3": product(simplex(3), simplex(3)),
    }
    space = {k: _write(tmp_path, k, p.to_dict()) for k, p in spaces.items()}
    pairs = []
    for name, p, d in MATRICES:
        pairs.append((_write(tmp_path, f"p-{name}", p.to_dict()), _write(tmp_path, name, d)))
    return {
        "enumerate": [
            ["enumerate", "-p", space["c5xc4"], "--mod2", "--filter", "string"],
            ["enumerate", "-p", space["d3xd3"], "--mod2", "--filter", "spin"],
            ["enumerate", "-p", space["d3xd3"], "--mod2", "--filter", "string"],
        ],
        "verify": [["verify", "c5xc5-not-spin"]],
        "validate": [["validate", "--mod2", "-p", p, "-m", m] for p, m in pairs],
        "smallcover": [["smallcover", "-p", p, "-m", m] for p, m in pairs],
    }


def _run(argv, tmp_path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    blank = []
    for text in (out.getvalue(), err.getvalue()):
        text = text.replace(str(tmp_path), "<tmp>")
        text = re.sub(r'"elapsed": [^,\n]+', '"elapsed": 0', text)
        text = re.sub(r'"python_version": "[^"]*"', '"python_version": ""', text)
        blank.append(text)
    return [code, *blank]


def _replies(tmp_path):
    return {
        command: [_run(argv, tmp_path) for argv in argvs]
        for command, argvs in _requests(tmp_path).items()
    }


def _digest(replies) -> str:
    return hashlib.sha256(json.dumps(replies).encode()).hexdigest()


def test_mod2_replies_are_pinned(tmp_path):
    replies = _replies(tmp_path)
    got = {command: _digest(r) for command, r in replies.items()}
    exits = {command: "".join(str(r[0]) for r in rs) for command, rs in replies.items()}
    assert exits == EXPECTED_EXITS
    assert got == EXPECTED


def test_lifted_entries_get_the_replies_of_their_residues(tmp_path):
    replies = _replies(tmp_path)
    for command in ("validate", "smallcover"):
        assert replies[command][0] == replies[command][1]

