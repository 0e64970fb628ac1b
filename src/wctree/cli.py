"""Command-line front end: parse arguments, call the library, render reports.

The analyses themselves live in the library; this module only turns
arguments into library objects and results into one JSON report envelope.

Envelope layout: schema tag, package version, the resolved configuration and
its sha256 hash (timing excluded, so identical configurations hash
identically), the seed, wall time, and a command-specific payload.  Exit
status: 0 for a completed analysis (whatever its verdict), 2 for usage or
malformed-input errors, 1 for semantic configuration or model failures and
for a report whose reader closed standard output before it was written.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from fractions import Fraction

try:  # the builtin module; hashlib would load the OpenSSL bindings at start-up
    from _sha256 import sha256
except ImportError:  # Python 3.12 renamed it _sha2
    from hashlib import sha256

from . import __version__, predicates, sets, spaces, trees
from .errors import ConfigurationError, ContractViolation, ModelIntegrityError
from .predicates import (DualCertificate, PrefixWitness, SchauderReport,
                         SimplexWitness, Verdict3)
from .spaces import SpaceModel, Vector


class UsageError(Exception):
    """Malformed input (bad fraction, bad node string, unreadable JSON)."""


def _fraction(text: str, where: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{where}: not a rational number: {text!r}") from exc


def parse_space(text: str) -> SpaceModel:
    name = text.strip().lower()
    if name in spaces.BUILTIN_SPACES:
        return spaces.BUILTIN_SPACES[name]
    if name.startswith("lp:"):
        try:
            return spaces.lp_space(_fraction(name[3:], "--space"))
        except ConfigurationError as exc:  # its pointer is to no document's field
            raise UsageError(f"--space: {str(exc).removeprefix(exc.pointer + ': ')}") from exc
    raise UsageError(
        f"--space: unknown space {text!r} (use l1, l2, c0, sup, or lp:P)")

def parse_set(text: str, space: SpaceModel) -> sets.SetModel:
    """The set model that --set names in `space`; a set file must declare
    that norm itself (its kind and exponent), since --space alone sets it."""
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(f"--set: cannot read {text[1:]!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"--set: invalid JSON in {text[1:]!r}: {exc}") from exc
        try:
            model = sets.set_from_json(data)
            if (model.space.kind, model.space.p) != (space.kind, space.p):
                raise ConfigurationError(
                    f"the set file's space is not --space {space.ident}", "/space")
            return model
        except ConfigurationError as exc:
            raise UsageError(f"--set: {exc}") from exc
    try:
        return sets.build_set(text.strip(), space)
    except ConfigurationError as exc:
        raise UsageError(f"--set: {exc}") from exc


def parse_node(text: str) -> tuple[int, ...]:
    body = text.strip()
    if not body:
        return ()
    try:
        node = tuple(int(part) for part in body.split(","))
    except ValueError as exc:
        raise UsageError(f"--node: expected comma-separated naturals: {text!r}") from exc
    if any(i < 0 for i in node):
        raise UsageError("--node: indices must be nonnegative")
    return node


def parse_point(text: str) -> Vector:
    """pos:coeff pairs, e.g. '0:1,3:1/2'."""
    body = text.strip()
    if not body:
        return Vector.zero()
    pairs = []
    for chunk in body.split(","):
        if ":" not in chunk:
            raise UsageError(f"--start/--point: expected pos:coeff, got {chunk!r}")
        pos_s, coeff_s = chunk.split(":", 1)
        try:
            pos = int(pos_s)
        except ValueError as exc:
            raise UsageError(f"--start/--point: bad position {pos_s!r}") from exc
        pairs.append((pos, _fraction(coeff_s, "--start/--point")))
    try:
        return Vector.from_pairs(pairs)
    except ValueError as exc:
        raise UsageError(f"--start/--point: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON rendering of result objects


def norm_json(nv: spaces.NormValue) -> dict:
    return {
        "value": nv.value,
        "error": nv.error,
        "lo": str(nv.lo),
        "hi": str(nv.hi),
        "exact": None if nv.exact is None else str(nv.exact),
    }


def witness_json(w) -> dict | None:
    if w is None:
        return None
    if isinstance(w, SimplexWitness):
        return {
            "type": "simplex-combination",
            "weights": [str(x) for x in w.weights],
            "combo": w.combo.to_json(),
            "norm": norm_json(w.norm),
        }
    if isinstance(w, DualCertificate):
        return {
            "type": "dual-certificate",
            "functional": w.functional.to_json(),
            "lower_bound": str(w.lower_bound),
            "gap": str(w.gap),
        }
    if isinstance(w, PrefixWitness):
        return {
            "type": "prefix-escape",
            "prefix": w.prefix,
            "coefficients": [str(c) for c in w.coefficients],
            "prefix_norm": None if w.prefix_norm is None else norm_json(w.prefix_norm),
            "full_norm": None if w.full_norm is None else norm_json(w.full_norm),
        }
    return {"type": type(w).__name__}


def verdict_json(v: Verdict3) -> dict:
    return {
        "kind": v.kind,
        "margin": None if v.margin is None else
                  ("inf" if math.isinf(v.margin) else v.margin),
        "exact_margin": None if v.exact_margin is None else str(v.exact_margin),
        "detail": v.detail,
        "witness": witness_json(v.witness),
    }


def schauder_json(rep: SchauderReport | None) -> dict | None:
    if rep is None:
        return None
    return {
        "verdict": verdict_json(rep.verdict),
        "method": rep.method,
        "constant_lo": None if rep.constant_lo is None else str(rep.constant_lo),
        "constant_hi": None if rep.constant_hi is None else str(rep.constant_hi),
        "unbounded": rep.unbounded,
    }


# ---------------------------------------------------------------------------
# subcommands


def _tol(args) -> Fraction:
    return _fraction(args.tol or "0", "--tol")


def _tree_from_args(args) -> trees.WcTree | trees.StackedTree:
    model = parse_set(args.set, parse_space(args.space))
    if getattr(args, "stacked", False):
        return trees.StackedTree(model, _tol(args))
    return trees.WcTree(model, _fraction(args.eps, "--eps"),
                        _fraction(args.bigm, "--bigm"), _tol(args))


def cmd_predicate(args) -> dict:
    space = parse_space(args.space)
    model = parse_set(args.set, space)
    node = parse_node(args.node)
    vs = [model.selector(i) for i in node]
    eps = _fraction(args.eps, "--eps")
    big_m = _fraction(args.bigm, "--bigm")
    dom = predicates.is_eps_dominating(space, vs, eps, _tol(args))
    sch = None
    if not any(v.is_zero for v in vs):
        sch = predicates.is_M_schauder(space, vs, big_m, rng_seed=args.seed)
    return {
        "node": list(node),
        "vectors": [v.to_json() for v in vs],
        "domination": verdict_json(dom),
        "schauder": schauder_json(sch),
    }


def cmd_wf_scan(args) -> dict:
    tree = _tree_from_args(args)
    budget = trees.SearchBudget(args.node_budget)
    verdict = trees.bounded_wf_search(tree, args.depth, args.index_bound, budget)
    return {
        "kind": verdict.kind,
        "branch": None if verdict.branch is None else list(verdict.branch),
        "detail": verdict.detail,
        "stats": verdict.stats._asdict(),
        "tree": tree.params(),
    }


def cmd_branch_hunt(args) -> dict:
    tree = _tree_from_args(args)
    budget = trees.SearchBudget(args.node_budget)
    cert = trees.branch_search(tree, args.depth, args.index_bound,
                               args.beam_width, budget)
    if cert is None:
        return {"found": False, "tree": tree.params(),
                "detail": "no certified branch within the bounds"}
    return {
        "found": True,
        "branch": list(cert.branch),
        "generator": None if cert.generator is None else list(cert.generator),
        "min_margin": cert.min_margin,
        "prefixes": [
            {"node": list(p.node), "kind": p.kind, "margin": p.margin}
            for p in cert.prefixes
        ],
        # a fresh tree re-decides every prefix with empty caches
        "revalidated": trees.validate_certificate(_tree_from_args(args), cert),
        "tree": tree.params(),
    }


def cmd_analyze_tree(args) -> dict:
    tree = _tree_from_args(args)
    budget = trees.SearchBudget(args.node_budget)
    levels, rank, complete = trees.levels(tree, args.depth, args.index_bound, budget)
    bits, open_idx = trees.encode_characteristic(tree, args.char_count, budget)
    payload: dict = {
        "tree": tree.params(),
        "levels": [{"depth": d, **counts} for d, counts in enumerate(levels, 1)],
        "budget_exhausted": budget.exhausted,
    }
    if not args.stacked:
        payload["rank_within_bounds"] = {"value": rank, "complete": complete}
    payload["characteristic"] = {"bits": bits, "open": open_idx}
    return payload


def cmd_fixed_point(args) -> dict:
    from . import fixedpoint  # loaded here: no other command uses it

    space = parse_space(args.space)
    point = parse_point(args.point) if args.point else None
    handle = fixedpoint.build_map(args.map, point)
    domain = parse_set(args.set, space) if args.set else None
    if args.saturate:
        seeds = [parse_point(args.start) if args.start else Vector.unit(0)]
        sat = fixedpoint.invariant_set_saturate(handle, seeds, args.max_points)
        return {
            "map": handle.name,
            "saturation": {
                "points": len(sat.points),
                "rounds": sat.rounds,
                "closed": sat.closed,
                "sample": [v.to_json() for v in sat.points[:8]],
            },
        }
    start = parse_point(args.start) if args.start else None
    weight = _fraction(args.weight, "--weight")
    result = fixedpoint.km_iterate(space, handle, args.steps, weight,
                                   start, domain)
    step = max(1, len(result.residuals) // 16)
    sampled = [[n, result.residuals[n]]
               for n in range(0, len(result.residuals), step)]
    if sampled[-1][0] != len(result.residuals) - 1:
        sampled.append([len(result.residuals) - 1, result.final_residual])
    payload = {
        "map": handle.name,
        "steps": args.steps,
        "weight": str(weight),
        "final_residual": result.final_residual,
        "residuals_sampled": sampled,
        "checks": {
            "residual_monotone": result.checks.residual_monotone,
            "shadow_deviation": result.checks.shadow_deviation,
            "shadow_steps": result.checks.shadow_steps,
            "domain_ok": result.checks.domain_ok,
        },
    }
    if domain is not None:
        n_pts = 12
        violations = fixedpoint.verify_nonexpansive(space, handle, domain, pairs=n_pts)
        payload["nonexpansive_spot_check"] = {
            "pairs": n_pts * (n_pts - 1) // 2,
            "certified_violations": len(violations),
        }
    return payload


def cmd_poset_demo(args) -> dict:
    from . import fixedpoint

    if args.elements:
        elements = [e.strip() for e in args.elements.split(",")]
        covers = []
        if args.covers:
            for chunk in args.covers.split(","):
                if "<" not in chunk:
                    raise UsageError(f"--covers: expected a<b pairs, got {chunk!r}")
                a, b = chunk.split("<", 1)
                covers.append((a.strip(), b.strip()))
        poset = fixedpoint.FinitePoset.from_cover(elements, covers)
    else:
        poset = fixedpoint.FinitePoset.from_cover(
            ["bottom", "left", "right", "peak"],
            [("bottom", "left"), ("bottom", "right"), ("left", "peak")],
        )
    result = fixedpoint.maximal_via_uniformization(poset)
    return {
        "elements": [str(e) for e in poset.elements],
        "maximal": str(result.fixed_point),
        "orbit": [str(e) for e in result.orbit],
        "steps": result.steps,
    }


_DOT_COLORS = {"holds": "#2e7d32", "fails": "#c62828", "inconclusive": "#ef6c00"}


def cmd_export_dot(args) -> dict:
    tree = _tree_from_args(args)
    budget = trees.SearchBudget(args.node_budget)
    lines = [
        "digraph wctree {",
        '  rankdir=TB;',
        '  node [shape=box, style="rounded,filled", fontname="monospace"];',
        '  "" [label="()", fillcolor="#eceff1"];',
    ]
    edges: list[str] = []

    def name(node: tuple[int, ...]) -> str:
        return ".".join(str(i) for i in node)

    for node, ev in trees.walk(tree, args.depth, args.index_bound, budget):
        color = _DOT_COLORS[ev.verdict.kind]
        margin = ev.verdict.margin
        label = name(node)
        if margin is not None and not math.isinf(margin):
            label += f"\\nmargin {margin:.4g}"
        lines.append(f'  "{name(node)}" [label="{label}", fillcolor="{color}"];')
        edges.append(f'  "{name(node[:-1])}" -> "{name(node)}";')
    dot = "\n".join(lines + edges + ["}"])
    payload = {"dot": dot, "nodes": len(edges), "budget_exhausted": budget.exhausted}
    if args.out_dot:
        try:
            with open(args.out_dot, "w", encoding="utf-8") as fh:
                fh.write(dot + "\n")
        except OSError as exc:
            raise UsageError(f"--out-dot: {exc}") from exc
        payload["written"] = args.out_dot
    return payload


# ---------------------------------------------------------------------------
# argument plumbing


def _add_model_args(sp):
    sp.add_argument("--space", required=True,
                    help="norm: l1, l2, c0/sup, or lp:P with rational P >= 1")
    sp.add_argument("--set", required=True,
                    help="set model kind, or @file.json for a serialized model")
    sp.add_argument("--eps", default="1/2",
                    help="domination level, rational in (0, 1]")
    sp.add_argument("--bigm", default="2", help="prefix bound M >= 1")
    sp.add_argument("--tol", default=None,
                    help="extra certification band for bracket-mode spaces")


def _add_search_args(sp):
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--index-bound", type=int, default=16, dest="index_bound")
    sp.add_argument("--node-budget", type=int, default=200_000, dest="node_budget")


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of the CLI.  Every subcommand is listed, but only the one
    that argv names first gets its arguments, since no other one parses
    any; with none named (--help, --version, a misspelt command or no argv)
    every one does, so help and errors read as from a full build."""
    parser = argparse.ArgumentParser(
        prog="wctree",
        description="Tree-based weak-compactness analyses on countable set models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in (
            ("predicate", cmd_predicate, "evaluate both node predicates on one node"),
            ("wf-scan", cmd_wf_scan, "exhaustive bounded well-foundedness scan"),
            ("branch-hunt", cmd_branch_hunt, "beam search for a certified branch"),
            ("analyze-tree", cmd_analyze_tree, "level statistics, rank, characteristic bits"),
            ("fixed-point", cmd_fixed_point, "averaged iteration or orbit saturation"),
            ("poset-demo", cmd_poset_demo, "maximal element by ascending orbit"),
            ("export-dot", cmd_export_dot, "render the explored region as DOT")):
        sub.add_parser(name, help=text).set_defaults(func=func)
    named = argv[0] if argv and argv[0] in sub.choices else None
    built = {name: sp for name, sp in sub.choices.items() if named in (None, name)}

    if sp := built.get("predicate"):
        _add_model_args(sp)
        sp.add_argument("--node", required=True, help="comma-separated selector indices")

    if sp := built.get("wf-scan"):
        _add_model_args(sp)
        _add_search_args(sp)

    if sp := built.get("branch-hunt"):
        _add_model_args(sp)
        _add_search_args(sp)
        sp.add_argument("--beam-width", type=int, default=4, dest="beam_width")

    if sp := built.get("analyze-tree"):
        _add_model_args(sp)
        _add_search_args(sp)
        sp.add_argument("--stacked", action="store_true",
                        help="analyze the all-parameter stacked tree instead")
        sp.add_argument("--char-count", type=int, default=32, dest="char_count",
                        help="how many canonically coded nodes to classify")

    if sp := built.get("fixed-point"):
        sp.add_argument("--space", required=True)
        sp.add_argument("--set", default=None, help="optional domain model for checks")
        sp.add_argument("--map", required=True,
                        help="registered map: identity, shift, halving, constant")
        sp.add_argument("--point", default=None, help="constant map target, pos:coeff list")
        sp.add_argument("--steps", type=int, default=1000)
        sp.add_argument("--weight", default="1/2", help="averaging weight in (0, 1)")
        sp.add_argument("--start", default=None, help="start point, pos:coeff list")
        sp.add_argument("--saturate", action="store_true",
                        help="close the start point under the map instead of iterating")
        sp.add_argument("--max-points", type=int, default=1024, dest="max_points")

    if sp := built.get("poset-demo"):
        sp.add_argument("--elements", default=None, help="comma-separated names")
        sp.add_argument("--covers", default=None, help="comma-separated a<b pairs")

    if sp := built.get("export-dot"):
        _add_model_args(sp)
        sp.add_argument("--depth", type=int, default=3)
        sp.add_argument("--index-bound", type=int, default=8, dest="index_bound")
        sp.add_argument("--node-budget", type=int, default=5000, dest="node_budget")
        sp.add_argument("--out-dot", default=None, dest="out_dot",
                        help="also write the DOT text to this file")

    for sp in built.values():
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None, help="write the JSON report here")
    return parser


def _config_dict(args) -> dict:
    skip = {"func", "format", "out"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip}
    return cfg


def _render_text(envelope: dict) -> str:
    lines = [f"wctree {envelope['command']} (config {envelope['config_hash'][:12]})"]

    def emit(prefix: str, value):
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}{k}." if isinstance(v, dict) else f"{prefix}{k}", v)
        else:
            lines.append(f"  {prefix} = {value}")

    emit("", envelope["payload"])
    lines.append(f"  elapsed = {envelope['timing_ms']} ms")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run one command, print its report envelope, and return the exit status.

    A command's process has three stages.  On the seed-5 benchmark commands
    (2-vCPU VM, Python 3.11.7, medians of 15 launches) launch to ready, that
    is the interpreter, `site` and `import wctree.cli`, took 43-45 ms; the
    parse plus the command 9-18 ms; and the exit 3.5-3.8 ms, against 8.9-9.2
    ms without the freeze below.  Once the arguments parse, `main` collects the
    young generations, which frees the parser's cyclic garbage, and freezes
    the heap (`gc.freeze`): neither a full collection during the command nor
    those of interpreter exit scan again the ~13k objects that start-up left.
    What the command builds comes later and is collected as before.  The
    freeze happens on the first call in a process only, so an in-process
    caller inherits this: every object live at its first call to `main` is
    never cycle-collected again (reference counting still frees it).
    """
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    if not gc.get_freeze_count():
        gc.collect(1)  # the parser's cyclic garbage, so that none of it is frozen
        gc.freeze()
    config = _config_dict(args)
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    started = time.perf_counter()
    try:
        payload = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigurationError, ModelIntegrityError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    envelope = {
        "schema": "wctree-report/1",
        "version": __version__,
        "command": args.command,
        "config": json.loads(canonical),
        "config_hash": sha256(canonical.encode()).hexdigest(),
        "seed": args.seed,
        "timing_ms": round((time.perf_counter() - started) * 1000, 3),
        "payload": payload,
    }
    rendered = json.dumps(envelope, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            print(f"error: --out: {exc}", file=sys.stderr)
            return 2
    try:
        print(_render_text(envelope) if args.format == "text" else rendered)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush at
        # exit cannot fail again, and report the cut-off output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
