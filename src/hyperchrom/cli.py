"""Command-line front end.

Subcommands cover the individual quantities (chromatic, local, alt,
cd, xind, indbounds), the constructions (kneser, box, hom), the bound
hierarchy (bounds), witness search (colorful, zigzag), and verification
campaigns (verify).  All outputs are available as human-readable text
or JSON; seeded runs are bit-for-bit reproducible.

Exit codes: 0 ok, 1 usage or input error, 2 a verification
counterexample was found, 3 a search budget was exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from typing import Optional

from . import altdefect, colorful, complexes, gindex, hypergraph, tucker
from .complexes import _is_prime
from .hypergraph import BudgetExhausted, Coloring, Hypergraph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Instance loading
# ---------------------------------------------------------------------------


def _named_hypergraph(name: str) -> Hypergraph:
    """Builtin families: K<n> (complete graph), C<n> (cycle), petersen,
    K:<n>:<k> (complete k-uniform), KG:<n>:<k> (Kneser graph),
    KG:<r>:<n>:<k> (r-uniform Kneser hypergraph of K_n^k)."""
    if name == "petersen":
        return hypergraph.usual_kneser(5, 2, 2)
    if name.startswith(("KG:", "K:")):
        try:
            nums = [int(x) for x in name.split(":")[1:]]
        except ValueError:
            nums = []
        if name.startswith("KG:") and len(nums) in (2, 3):
            r, n, k = nums if len(nums) == 3 else (2, *nums)
            return hypergraph.usual_kneser(n, k, r)
        if name.startswith("K:") and len(nums) == 2:
            return hypergraph.complete_hypergraph(*nums)
        kind = "Kneser" if name.startswith("KG:") else "complete hypergraph"
        raise ValueError(f"bad {kind} spec {name!r}")
    if name.startswith("K") and name[1:].isdigit():
        return hypergraph.complete_hypergraph(int(name[1:]), 2)
    if name.startswith("C") and name[1:].isdigit():
        n = int(name[1:])
        return hypergraph.build_hypergraph(
            n, [[i, i % n + 1] for i in range(1, n + 1)]
        )
    raise ValueError(f"unknown graph name {name!r}")


def _load(args) -> Hypergraph:
    if getattr(args, "file", None):
        with open(args.file) as fh:
            return hypergraph.parse_hypergraph(fh.read())
    if getattr(args, "graph", None):
        return _named_hypergraph(args.graph)
    raise _UsageError("provide --file or --graph")


def _check_prime(p: int, args) -> None:
    if not _is_prime(p) and not args.allow_nonprime:
        raise _UsageError(
            f"p = {p} is not prime; pass --allow-nonprime to experiment anyway"
        )


def _require_prime(p: int, args) -> None:
    """Reject a non-prime p for the Z_p-complex commands, which
    --allow-nonprime cannot open."""
    if not _is_prime(p):
        raise _UsageError(f"p = {p} is not prime; {args.command} needs a prime p")


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=_json_default))
    else:
        print(human)


def _json_default(obj):
    if isinstance(obj, (frozenset, set)):
        return sorted(obj, key=repr)
    if isinstance(obj, tuple):
        return list(obj)
    return repr(obj)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_chromatic(args) -> int:
    H = _load(args)
    res = hypergraph.chromatic_number(H)
    payload = {
        "chromatic_number": res.value if res.value != math.inf else "inf",
        "exact": res.exact,
        "coloring": list(res.coloring.assignment) if res.coloring else None,
    }
    _emit(args, payload, f"chi = {res.value}")
    return EXIT_OK


def _cmd_local(args) -> int:
    H = _load(args)
    value = hypergraph.local_chromatic_number(H)
    _emit(args, {"local_chromatic_number": value}, f"chi_l = {value}")
    return EXIT_OK


def _cmd_kneser(args) -> int:
    F = _load(args)
    K = hypergraph.kneser(F, args.r)
    text = hypergraph.format_hypergraph(K)
    _emit(
        args,
        {"n": K.n, "edges": [sorted(e) for e in K.edges], "text": text},
        text.rstrip("\n"),
    )
    return EXIT_OK


def _cmd_alt(args) -> int:
    F = _load(args)
    _check_prime(args.p, args)
    res = altdefect.alt_min(F, args.p, mode=args.mode, seed=args.seed or 0)
    payload = {
        "alt": res.value,
        "exact": res.exact,
        "ordering": list(res.ordering.images) if res.ordering else None,
    }
    _emit(args, payload, f"alt_{args.p} = {res.value}" + ("" if res.exact else " (upper bound)"))
    return EXIT_OK


def _check_p_at_least_2(p: int) -> None:
    if p < 2:
        raise _UsageError(f"--p must be at least 2, got {p}")


def _cmd_cd(args) -> int:
    F = _load(args)
    _check_p_at_least_2(args.p)
    value = altdefect.colorability_defect(F, args.p)
    _emit(args, {"cd": value}, f"cd_{args.p} = {value}")
    return EXIT_OK


def _cmd_box(args) -> int:
    _require_prime(args.p, args)
    H = _load(args)
    B = complexes.box_complex(H, args.p)
    text = complexes.complex_to_text(B)
    _emit(
        args,
        {
            "vertices": len(B.vertices),
            "maximal_simplices": len(B.maximal_simplices),
            "dim": B.dim,
            "free": B.is_free(),
            "text": text,
        },
        text.rstrip("\n"),
    )
    return EXIT_OK


def _cmd_hom(args) -> int:
    _require_prime(args.p, args)
    H = _load(args)
    P = complexes.hom_poset(H, args.r, args.p)
    text = complexes.poset_to_text(P)
    _emit(
        args,
        {"elements": len(P), "height": P.height(), "text": text},
        text.rstrip("\n"),
    )
    return EXIT_OK


def _cmd_xind(args) -> int:
    if args.poset == "hom":
        _require_prime(args.p, args)
        H = _load(args)
        P = complexes.hom_poset(H, args.r, args.p)
    elif args.poset == "q":
        _check_prime(args.p, args)
        if args.n is None:
            raise _UsageError("--poset q needs --n")
        P = complexes.q_poset(args.n, args.p)
    else:
        raise _UsageError(f"unknown poset kind {args.poset!r}")
    res = gindex.xind_exact(P)
    _emit(
        args,
        {"xind": res.value, "n_max": res.n_max, "core": res.core},
        f"Xind = {res.value}",
    )
    return EXIT_OK


def _cmd_indbounds(args) -> int:
    _require_prime(args.p, args)
    H = _load(args)
    B = complexes.box_complex(H, args.p)
    iv = gindex.ind_bounds(B, depth=args.depth)
    payload = {
        "lower": iv.lower,
        "upper": iv.upper,
        "certificates": [
            {"kind": c.kind, "bound": c.bound} for c in iv.certificates
        ],
    }
    _emit(args, payload, f"ind in [{iv.lower}, {iv.upper}]")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    r, p = args.r, args.p
    _check_p_at_least_2(p)
    _require_prime(p, args)
    F = _load(args)
    entries = []

    def add(name, value, lower=None, upper=None, note=""):
        entries.append(
            {
                "name": name,
                "value": value,
                "lower": lower if lower is not None else value,
                "upper": upper if upper is not None else value,
                "note": note,
            }
        )

    add("cd_p(F)", altdefect.colorability_defect(F, p))
    alt = altdefect.alt_min(F, p)
    add("|V(F)| - alt_p(F)", F.n - alt.value, note="" if alt.exact else "alt inexact")
    K = hypergraph.kneser(F, r)
    B = complexes.box_complex(K, p)
    iv = gindex.ind_bounds(B, depth=args.depth)
    add("ind(B0(KG^r(F))) + 1", None, iv.lower + 1, iv.upper + 1)
    omega = hypergraph.clique_number(K)
    if omega >= p:
        P = complexes.hom_poset(K, r, p)
        x = gindex.xind_exact(P)
        add("Xind(Hom(K^r_p, KG^r(F))) + p", x.value + p)
    else:
        add("Xind(Hom(K^r_p, KG^r(F))) + p", None, note="omega < p: not applicable")
    chi = hypergraph.chromatic_number(K)
    add("(r-1) * chi(KG^r(F))", (r - 1) * int(chi.value))

    # Theorem-2 order: each certified adjacent pair must be nondecreasing
    violations = []
    chain = [e for e in entries if e["lower"] is not None]
    for a, b in zip(chain, chain[1:]):
        if a["upper"] is not None and b["lower"] is not None and a["lower"] > b["upper"]:
            violations.append((a["name"], b["name"]))
    payload = {
        "instance": args.graph or args.file,
        "r": r,
        "p": p,
        "entries": entries,
        "consistent": not violations,
        "violations": violations,
    }
    lines = []
    for e in entries:
        if e["value"] is not None:
            val = str(e["value"])
        elif e["lower"] is not None:
            val = f"[{e['lower']}, {e['upper']}]"
        else:
            val = "n/a"
        note = f"  ({e['note']})" if e["note"] else ""
        lines.append(f"{e['name']:<38} {val}{note}")
    lines.append(f"consistent: {not violations}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if not violations else EXIT_COUNTEREXAMPLE


def _coloring(args, H: Hypergraph) -> Coloring:
    """The coloring a witness search runs on: with --seed, a seeded
    random proper coloring (--colors colors, default chi); otherwise
    the optimal coloring the chromatic search finds."""
    if args.colors is not None and args.colors < 1:
        raise _UsageError(f"--colors must be at least 1, got {args.colors}")
    if args.seed is not None and args.colors:
        rng = random.Random(args.seed)
        return colorful.random_proper_coloring(H, args.colors, rng)
    chi = hypergraph.chromatic_number(H)
    if chi.coloring is None:
        raise _UsageError("a singleton edge leaves no proper coloring (chi = inf)")
    if args.seed is None:
        return chi.coloring
    rng = random.Random(args.seed)
    return colorful.random_proper_coloring(H, chi.coloring.palette_size, rng)


def _cmd_colorful(args) -> int:
    H = _load(args)
    p = args.p
    _check_prime(p, args)
    w = colorful.find_colorful_balanced(H, _coloring(args, H), p, args.target)
    if isinstance(w, colorful.ColorfulWitness):
        payload = {
            "found": True,
            "parts": [sorted(part) for part in w.parts.parts],
            "colors": [sorted(s) for s in w.color_sets],
            "total": w.total_size,
        }
        _emit(args, payload, f"colorful witness: parts {payload['parts']}")
        return EXIT_OK
    _emit(args, {"found": False, "detail": w.detail}, f"COUNTEREXAMPLE: {w.detail}")
    return EXIT_COUNTEREXAMPLE


def _cmd_zigzag(args) -> int:
    G = _load(args)
    w = colorful.zigzag_check(G, _coloring(args, G), args.t)
    if isinstance(w, colorful.ZigzagWitness):
        payload = {
            "found": True,
            "side_a": sorted(w.side_a),
            "side_b": sorted(w.side_b),
            "colors": list(w.colors),
        }
        _emit(
            args,
            payload,
            f"zig-zag witness: {payload['side_a']} | {payload['side_b']}"
            f" colors {payload['colors']}",
        )
        return EXIT_OK
    _emit(args, {"found": False, "detail": w.detail}, f"COUNTEREXAMPLE: {w.detail}")
    return EXIT_COUNTEREXAMPLE


_FAN_KEYS = ("n", "m", "p", "alpha")


def _run_campaign_entry(entry: dict) -> dict:
    lemma = entry.get("lemma")
    if lemma == "zp-fan":
        rep = tucker.fan_sweep(*(entry[key] for key in _FAN_KEYS))
        return {
            "lemma": lemma,
            "params": list(rep.params),
            "admissible": rep.admissible,
            "checked": rep.checked,
            "counterexamples": len(rep.failures),
            "regime_ok": rep.regime_ok,
            "ok": rep.ok and rep.regime_ok,
        }
    raise _UsageError(f"unknown lemma {lemma!r} in campaign")


def _cmd_verify(args) -> int:
    if args.manifest:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
        runs = manifest.get("runs") if isinstance(manifest, dict) else None
        if not isinstance(runs, list) or not all(isinstance(r, dict) for r in runs):
            raise _UsageError('a manifest is an object whose "runs" is a list of objects')
    elif args.lemma:
        runs = [{"lemma": args.lemma, **{key: getattr(args, key) for key in _FAN_KEYS}}]
    else:
        raise _UsageError("provide --lemma or --manifest")
    for run in runs:
        if run.get("lemma") == "zp-fan":
            missing = [key for key in _FAN_KEYS if not isinstance(run.get(key), int)]
            if missing:
                raise _UsageError(f"a zp-fan run needs integer {', '.join(missing)}")
            _check_prime(run["p"], args)
    results = [_run_campaign_entry(run) for run in runs]
    bad = sum(0 if r["ok"] else 1 for r in results)
    payload = {"runs": results, "counterexamples_total": bad}
    lines = [
        f"{r['lemma']} {tuple(r['params'])}: admissible={r['admissible']} "
        f"counterexamples={r['counterexamples']} "
        f"{'ok' if r['ok'] else 'FAIL'}"
        for r in results
    ]
    lines.append(f"{bad} counterexample run(s)")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if bad == 0 else EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _add_instance(sp):
    sp.add_argument("--file", help="hypergraph text file (v/e line format)")
    sp.add_argument(
        "--graph",
        help="builtin instance: K<n>, C<n>, petersen, K:<n>:<k>, "
        "KG:<n>:<k>, KG:<r>:<n>:<k>",
    )


def _global_options(parser, suppress: bool) -> None:
    """The three global flags, accepted before or after the subcommand."""
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output", **kw
    )
    parser.add_argument(
        "--seed",
        type=int,
        help="seed sampled corpora",
        **(kw if suppress else {"default": None}),
    )
    parser.add_argument(
        "--allow-nonprime",
        action="store_true",
        help="permit non-prime p (experimental; the theorems assume p prime)",
        **kw,
    )


def build_parser() -> _Parser:
    top = _Parser(prog="hyperchrom", description=__doc__)
    _global_options(top, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _global_options(common, suppress=True)
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    sp = add_parser("chromatic", help="exact chromatic number")
    _add_instance(sp)
    sp.set_defaults(func=_cmd_chromatic)

    sp = add_parser("local", help="exact local chromatic number")
    _add_instance(sp)
    sp.set_defaults(func=_cmd_local)

    sp = add_parser("kneser", help="build the r-uniform Kneser hypergraph")
    _add_instance(sp)
    sp.add_argument("--r", type=int, required=True)
    sp.set_defaults(func=_cmd_kneser)

    sp = add_parser("alt", help="alternation number alt_p")
    _add_instance(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    sp.set_defaults(func=_cmd_alt)

    sp = add_parser("cd", help="colorability defect cd_p")
    _add_instance(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=_cmd_cd)

    sp = add_parser("box", help="Z_p box complex B_0(H, Z_p)")
    _add_instance(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=_cmd_box)

    sp = add_parser("hom", help="hom poset Hom(K^r_p, H)")
    _add_instance(sp)
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=_cmd_hom)

    sp = add_parser("xind", help="exact cross-index of a poset")
    _add_instance(sp)
    sp.add_argument("--poset", choices=("hom", "q"), default="hom")
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, help="level count for --poset q")
    sp.set_defaults(func=_cmd_xind)

    sp = add_parser("indbounds", help="certified interval for ind(B_0(H))")
    _add_instance(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--depth", type=int, default=0, help="subdivision depth")
    sp.set_defaults(func=_cmd_indbounds)

    sp = add_parser("bounds", help="the full bound hierarchy for F, r, p")
    _add_instance(sp)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--depth", type=int, default=0)
    sp.set_defaults(func=_cmd_bounds)

    sp = add_parser("colorful", help="colorful balanced witness search")
    _add_instance(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--target", type=int, required=True)
    sp.add_argument("--colors", type=int, help="palette for seeded colorings")
    sp.set_defaults(func=_cmd_colorful)

    sp = add_parser("zigzag", help="alternating multicolored bipartite witness")
    _add_instance(sp)
    sp.add_argument("--t", type=int, help="total size (default Xind+2)")
    sp.add_argument("--colors", type=int, help="palette for seeded colorings")
    sp.set_defaults(func=_cmd_zigzag)

    sp = add_parser("verify", help="run a lemma verification campaign")
    sp.add_argument("--lemma", choices=("zp-fan",))
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--alpha", type=int)
    sp.add_argument("--manifest", help="campaign manifest JSON")
    sp.set_defaults(func=_cmd_verify)

    return top


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted:
        print("error: search budget exhausted", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError as exc:
        print(f"error: the input is too large for a recursive search ({exc})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
