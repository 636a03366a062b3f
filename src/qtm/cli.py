"""Command line interface.

Every command reads and writes the JSON interchange formats: polytopes
as {"dim", "num_facets", "vertices"}, integer matrices as {"rows"},
mod-2 matrices as {"rows_mod2"}.  Results go to stdout, and to --out
when given.

Exit codes: 0 for success or a verified claim, 1 for a negative answer
(invalid matrix, not string, not decomposable, counterexample found),
2 for usage and malformed input, 3 for a search that hit its resource
cap.  When stdout is closed before the result is written (`qtm verify
... | head -5`), the command exits 141, the status a shell reports for
a process that SIGPIPE ended, with no traceback: the answer was lost,
so none of 0-3 would be true.

Every reply is exactly the text of `json.dumps(obj, indent=2)`, which
scripts and the pinned reply digests read byte for byte.  `_emit` does
not call it: with `indent`, the stdlib skips its C encoder and runs the
pure-Python one, about a tenth of a check-string request.  `_dumps`
writes the same text for less, strings through the C string escaper.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .charmat import CharMatrix, CharMatrixError, validate
from .cohomology import basis_coefficients, p1_vector, presentation_deg4
from .harness import (
    _CAP_DEFAULTS,
    _CLAIMS,
    _DEDUP_GROUPS,
    _FILTERS,
    ResourceCapExceeded,
    SearchSpec,
    enumerate_matrices,
    verify_claim,
)
from .polytope import PolytopeError, SimplePolytope, cube, polygon, prism, product, q_polytope, simplex
from .smallcover import _refined, _refined_verdicts, validate_mod2
from .stringcheck import _closed_form_coefficients, _spin, refined_pair
from .structure import decompose_cube_connsum, decompose_prism


class UsageError(ValueError):
    pass


def _load_json(path: str) -> dict:
    # read as bytes and decoded in one call: a text-mode file object
    # costs more than the small files read per request
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        d = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise UsageError(f"{path} nests its JSON too deeply to read") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:
        # an integer past Python's digit limit for int(str)
        raise UsageError(f"{path} holds a number too long to read: {exc}") from None
    if not isinstance(d, dict):
        raise UsageError(f"{path} does not hold a JSON object")
    return d


def _load(path: str, key: str, what: str, from_dict, error):
    """from_dict of the JSON object in path, which must have `key`; its
    schema and content errors become usage errors."""
    d = _load_json(path)
    if key not in d:
        raise UsageError(f"{path} is not a {what} file (no \"{key}\")")
    try:
        return from_dict(d)
    except error as exc:
        raise UsageError(f"{path}: {exc}") from None


def _load_polytope(path: str) -> SimplePolytope:
    return _load(path, "vertices", "polytope", SimplePolytope.from_dict, PolytopeError)


def _load_matrix(path: str) -> CharMatrix:
    return _load(path, "rows", "matrix", CharMatrix.from_dict, CharMatrixError)


def _load_matrix_mod2(path: str) -> CharMatrix:
    from_dict = functools.partial(CharMatrix.from_dict, key="rows_mod2")
    return _load(path, "rows_mod2", "mod-2 matrix", from_dict, CharMatrixError)


_encode_str = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte (module docstring)."""
    parts: list[str] = []
    _write(obj, "\n", parts)
    return "".join(parts)


def _write(obj, nl: str, parts: list) -> None:
    """Append the text of obj at the indent that ends `nl`.  What this
    does not write itself (floats, empty containers, dicts with a
    non-str key, types JSON has no form for) it takes from json.dumps,
    indented to match: a newline in that text is always layout, since
    strings escape theirs."""
    if isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif obj is None or obj is True or obj is False:
        parts.append(_LITERALS[obj])
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)) and obj:
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _write(item, inner, parts)
            sep = "," + inner
        parts.append(nl + "]")
    elif isinstance(obj, dict) and obj:
        start = len(parts)
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                del parts[start:]
                parts.append(json.dumps(obj, indent=2).replace("\n", nl))
                return
            parts.append(sep + _encode_str(key) + ": ")
            _write(value, inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    else:
        parts.append(json.dumps(obj, indent=2).replace("\n", nl))


def _emit(obj: dict, out: str | None) -> None:
    text = _dumps(obj)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None
    print(text)


# --- commands ---------------------------------------------------------------


def _cmd_construct(args) -> int:
    kind, rest = args.kind, args.args
    if kind == "product":
        if len(rest) != 2:
            raise UsageError("construct product needs two polytope files")
        p = product(_load_polytope(rest[0]), _load_polytope(rest[1]))
    elif kind == "q":
        if rest:
            raise UsageError("construct q takes no size")
        p = q_polytope()
    else:
        if len(rest) != 1 or not rest[0].lstrip("-").isdigit():
            raise UsageError(f"construct {kind} needs one integer size")
        size = int(rest[0])
        maker = {"simplex": simplex, "polygon": polygon, "cube": cube, "prism": prism}
        p = maker[kind](size)
    _emit(p.to_dict(), args.out)
    return 0


def _cmd_validate(args) -> int:
    p = _load_polytope(args.polytope)
    if args.mod2:
        ok = validate_mod2(p, _load_matrix_mod2(args.matrix))
        _emit({"valid": ok}, args.out)
    else:
        ok, bad = validate(p, _load_matrix(args.matrix))
        _emit({"valid": ok, "bad_vertex": list(bad) if bad else None}, args.out)
    return 0 if ok else 1


def _cmd_classes(args) -> int:
    p = _load_polytope(args.polytope)
    rl = refined_pair(p, _load_matrix(args.matrix))
    pres = presentation_deg4(p, rl)
    basis, coeffs = basis_coefficients(pres, p1_vector(p, rl))
    h = p.h_vector()
    out = {
        "spin": _spin(p, rl),
        "p1_basis": [list(b) for b in basis],
        "p1_coeffs": list(coeffs),
        "h_vector": list(h),
        # the quotient map certifies that the degree-4 quotient is free
        # of rank quotient_rank, i.e. every invariant factor is 1, and
        # presentation_deg4 raises when it cannot.  The rank itself is a
        # count, |live| - |live rows|, equal to h_2 for every complex,
        # so this field is true whenever the command gets this far
        "snf_ok": pres.quotient_rank == (h[2] if p.dim >= 2 else 0),
    }
    _emit(out, args.out)
    return 0


def _cmd_check_string(args) -> int:
    """The coefficients of p_1 come from a closed form when the pair is
    in a family that has one; any other pair is reduced once, by
    `presentation_deg4`.  Either way they are coordinates, up to sign,
    in a basis of the free degree-4 quotient, so p_1 is zero exactly
    when they all vanish, and that decides the verdict."""
    p = _load_polytope(args.polytope)
    lam = _load_matrix(args.matrix)
    rl = refined_pair(p, lam)
    method, coefficients = "closed-form", _closed_form_coefficients(p, lam, rl)
    if coefficients is None:
        pres = presentation_deg4(p, rl)
        basis, coeffs = basis_coefficients(pres, p1_vector(p, rl))
        method = "general"
        coefficients = [
            {"monomial": list(b), "coeff": c} for b, c in zip(basis, coeffs)
        ]
    spin = _spin(p, rl)
    string = spin and not any(c["coeff"] for c in coefficients)
    out = {
        "spin": spin,
        "string": string,
        "method": method,
        "coefficients": coefficients,
    }
    _emit(out, args.out)
    return 0 if string else 1


def _cmd_enumerate(args) -> int:
    p = _load_polytope(args.polytope)
    spec = SearchSpec(
        p,
        bound=args.bound,
        dedup=args.dedup,
        filter=args.filter,
        mod2_only=args.mod2,
        max_nodes=args.max_nodes,
        max_seconds=args.max_seconds,
    )
    try:
        survivors, stats = enumerate_matrices(spec)
    except ResourceCapExceeded as exc:
        _emit({"error": str(exc), "statistics": exc.stats}, args.out)
        return 3
    key = "rows_mod2" if args.mod2 else "rows"
    out = {
        "bound": args.bound,
        "filter": args.filter,
        "dedup": args.dedup,
        "survivors": [lam.to_dict(key) for lam in survivors],
        "statistics": stats,
    }
    _emit(out, args.out)
    return 0


def _cmd_decompose(args) -> int:
    if args.shape == "prism":
        rep = decompose_prism(args.k, _load_matrix(args.matrix))
    else:
        p = _load_polytope(args.polytope)
        rep = decompose_cube_connsum(p, _load_matrix(args.matrix))
    _emit(rep.to_dict(), args.out)
    return 0 if rep.verdict in ("decomposed", "irreducible") else 1


def _cmd_smallcover(args) -> int:
    p = _load_polytope(args.polytope)
    lam = _load_matrix_mod2(args.matrix)
    if not validate_mod2(p, lam):
        raise UsageError("matrix is not characteristic over the polytope mod 2")
    orientable, string = _refined_verdicts(p, _refined(p, lam))
    _emit({"orientable": orientable, "string": string}, args.out)
    return 0 if string else 1


# every parameter some claim reads, with its default, in `_CLAIMS` order:
# one flag each, an int or, for a tuple default, a comma-separated list
_CLAIM_PARAMS = {k: v for _, defaults, _ in _CLAIMS.values() for k, v in defaults.items()}


def _cmd_verify(args) -> int:
    params = {}
    for name, default in _CLAIM_PARAMS.items():
        val = getattr(args, name)
        if val is None:
            continue
        if isinstance(default, tuple):
            try:
                val = [int(x) for x in val.split(",") if x]
            except ValueError:
                raise UsageError(f"--{name} wants comma-separated integers, got {val!r}")
        params[name] = val
    rep = verify_claim(
        args.claim, params, max_nodes=args.max_nodes, max_seconds=args.max_seconds
    )
    _emit(rep.to_dict(), args.out)
    return {"verified": 0, "counterexample": 1, "resource-capped": 3}[rep.verdict]


# --- parser -----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qtm",
        description="spin/string checks for quasitoric manifolds and small covers",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", help="also write the JSON result to this file")

    sp = sub.add_parser("construct", help="emit a named polytope as JSON")
    sp.add_argument(
        "kind", choices=["simplex", "polygon", "cube", "prism", "q", "product"]
    )
    sp.add_argument(
        "args", nargs="*",
        help="one integer size, or two polytope files for product",
    )
    add_out(sp)
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("validate", help="check the vertex determinant condition")
    sp.add_argument("-p", "--polytope", required=True)
    sp.add_argument("-m", "--matrix", required=True)
    sp.add_argument("--mod2", action="store_true", help="matrix file is mod-2")
    add_out(sp)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("classes", help="spin bit and p_1 in a monomial basis")
    sp.add_argument("-p", "--polytope", required=True)
    sp.add_argument("-m", "--matrix", required=True)
    add_out(sp)
    sp.set_defaults(func=_cmd_classes)

    sp = sub.add_parser("check-string", help="spin and string verdicts; exit 0 iff string")
    sp.add_argument("-p", "--polytope", required=True)
    sp.add_argument("-m", "--matrix", required=True)
    add_out(sp)
    sp.set_defaults(func=_cmd_check_string)

    sp = sub.add_parser("enumerate", help="bounded search over characteristic matrices")
    sp.add_argument("-p", "--polytope", required=True)
    sp.add_argument("--bound", type=int, default=1)
    sp.add_argument("--filter", choices=_FILTERS, default="valid")
    sp.add_argument("--dedup", choices=_DEDUP_GROUPS, default="signs")
    sp.add_argument("--mod2", action="store_true", help="enumerate over GF(2)")
    sp.add_argument("--max-nodes", type=int, default=_CAP_DEFAULTS["max_nodes"])
    sp.add_argument("--max-seconds", type=float, default=_CAP_DEFAULTS["max_seconds"])
    add_out(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("decompose", help="split a string pair into bundle pieces")
    shapes = sp.add_subparsers(dest="shape", required=True)
    d = shapes.add_parser("prism", help="prism over a 2k-gon")
    d.add_argument("-k", type=int, required=True)
    d.add_argument("-m", "--matrix", required=True)
    add_out(d)
    d.set_defaults(func=_cmd_decompose)
    d = shapes.add_parser("cube-connsum", help="connected sum of two cube pairs")
    d.add_argument("-p", "--polytope", required=True)
    d.add_argument("-m", "--matrix", required=True)
    add_out(d)
    d.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser(
        "smallcover", help="orientability and string check mod 2; exit 0 iff string"
    )
    sp.add_argument("-p", "--polytope", required=True)
    sp.add_argument("-m", "--matrix", required=True)
    add_out(sp)
    sp.set_defaults(func=_cmd_smallcover)

    sp = sub.add_parser("verify", help="run a named verification campaign")
    sp.add_argument("claim")
    for name, default in _CLAIM_PARAMS.items():
        if isinstance(default, tuple):
            sp.add_argument(f"--{name}", help="comma-separated integers, e.g. 2,3")
        else:
            sp.add_argument(f"--{name}", type=int)
    sp.add_argument("--max-nodes", type=int, default=_CAP_DEFAULTS["max_nodes"])
    sp.add_argument("--max-seconds", type=float, default=_CAP_DEFAULTS["max_seconds"])
    add_out(sp)
    sp.set_defaults(func=_cmd_verify)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # flush here, so a closed pipe raises below and not at exit
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so the flush at
        # interpreter exit does not raise again (Python's `signal` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
