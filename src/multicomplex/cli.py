"""Command line front end.

Every subcommand reads versioned JSON documents (file path or "-" for
stdin), writes one structured JSON document to stdout, and a one-line
human summary to stderr; --output summary swaps stdout over to the
summary alone.  Exit codes: 0 success, 1 domain error, 2 parse or
reference error, 3 internal invariant breach; an action that fails an
axiom exits 1, as every command validates the actions it reads.

main pauses the cyclic garbage collector for the job: a job builds only
acyclic data, which reference counting frees, so the collector's passes
would find nothing, and on large documents they cost about a tenth of
the job.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from . import diffusion, formats
from .actions import (average_cochain, orbits, quotient, validate_action)
from .chains import (RING_INT, RING_RAT, HomologyResult,
                     build_full_chain_complex, build_reduced_chain_complex,
                     build_relative_complex)
from .core import (InternalInvariantError, MulticomplexError, UnknownIdError,
                   special_sphere, product_with_interval)
from .covers import (check_repeated_color_vanishing, coloring_adapted,
                     multiplicity, nerve)
from .diffusion import diffuse_to_epsilon, local_diffuse, toy_vanish
from .formats import FormatError
from .seminorm import (dual_check, integral_seminorm_bruteforce, seminorm_l1,
                       simplicial_volume)

_RINGS = {"z": RING_INT, "q": RING_RAT}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError("cannot read %r: %s" % (path, exc))


def _load(path: str) -> dict:
    return formats.parse_document(_read(path))


def _load_mc(path: str):
    return formats.multicomplex_from_doc(_load(path))


def _reject_invalid(problems):
    if problems:
        raise MulticomplexError("invalid action: " + "; ".join(problems))


def _load_action(args):
    mc = _load_mc(args.complex)
    a = formats.action_from_doc(_load(args.action), mc)
    _reject_invalid(validate_action(a))
    return mc, a


def _emit(args, doc, summary: str) -> None:
    if args.output == "structured":
        sys.stdout.write(formats.canonical_dumps(doc))
        print(summary, file=sys.stderr)
    else:
        print(summary)


def _map_doc(m) -> dict:
    return {"vertex_map": dict(m.vertex_map),
            "simplex_map": dict(m.simplex_map)}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_validate(args) -> int:
    mc = _load_mc(args.input)
    problems = mc.validate()
    doc = {"schema_version": formats.SCHEMA_VERSION,
           "ok": not problems, "problems": problems}
    if problems:
        _emit(args, doc, "INVALID: %d problem(s); first: %s"
              % (len(problems), problems[0]))
        return 1
    _emit(args, doc, "valid multicomplex: %d vertices, %d simplices"
          % (len(mc.vertices), len(mc.simplex_ids)))
    return 0


def _cmd_skeleton(args) -> int:
    mc = _load_mc(args.input).skeleton(args.dim)
    _emit(args, mc,
          "%d-skeleton: %d simplices" % (args.dim, len(mc.simplex_ids)))
    return 0


def _cmd_sphere(args) -> int:
    labels = tuple(args.labels.split(",")) if args.labels else None
    mc = special_sphere(args.dim, labels)
    _emit(args, mc,
          "special %d-sphere: %d simplices" % (args.dim, len(mc.simplex_ids)))
    return 0


def _cmd_product(args) -> int:
    prod = product_with_interval(_load_mc(args.input))
    doc = {"schema_version": formats.SCHEMA_VERSION,
           "complex": prod.complex,
           "bottom": _map_doc(prod.bottom), "top": _map_doc(prod.top)}
    _emit(args, doc, "product with the interval: %d simplices, dimension %d"
          % (len(prod.complex.simplex_ids), prod.complex.dimension))
    return 0


def _subcomplex_ids(arg: str, mc) -> list:
    """The ids --subcomplex names: its pieces between commas.  A run of
    two or more pieces that joins, by commas, into a simplex id of mc is
    refused, since the split cannot tell that id from its pieces; a run
    need be no longer than the most pieces an id of mc splits into."""
    pieces = arg.split(",")
    longest = max((sid.count(",") + 1 for sid in mc.simplex_ids), default=1)
    for i in range(len(pieces)):
        for j in range(i + 2, min(i + longest, len(pieces)) + 1):
            sid = ",".join(pieces[i:j])
            if sid in mc:
                raise FormatError(
                    "--subcomplex splits on commas, so it cannot name the "
                    "simplex %r, whose id contains a comma" % sid)
    return pieces


def _build_cc(args, mc):
    """The chain complex of mc that args.variant selects."""
    if args.variant == "full":
        return build_full_chain_complex(mc)
    if args.variant in ("reduced", "alternating"):
        # alternating cochains pair with reduced chains one-to-one, so
        # both variants share the same matrices
        return build_reduced_chain_complex(mc)
    if not args.subcomplex:
        raise FormatError("--variant relative needs --subcomplex")
    return build_relative_complex(mc, _subcomplex_ids(args.subcomplex, mc))


def _cmd_homology(args) -> int:
    mc = _load_mc(args.input)
    ring = _RINGS[args.ring]
    hom = HomologyResult(_build_cc(args, mc), ring)
    top = mc.dimension
    structure = {}
    generators = {}
    for n in range(top + 1):
        rank, torsion = hom.structure(n)
        structure[str(n)] = {"betti": rank, "torsion": list(torsion)}
        generators[str(n)] = [formats.chain_to_doc(g)
                              for g in hom.generators(n)]
    doc = {"schema_version": formats.SCHEMA_VERSION, "ring": ring,
           "variant": args.variant, "structure": structure,
           "generators": generators}
    betti = ",".join(str(structure[str(n)]["betti"]) for n in range(top + 1))
    _emit(args, doc, "homology (%s, %s): betti %s"
          % (args.variant, ring, betti or "empty"))
    return 0


def _cmd_seminorm(args) -> int:
    mc = _load_mc(args.complex)
    z = formats.chain_from_doc(_load(args.chain))
    cc = _build_cc(args, mc)
    res = seminorm_l1(cc, z)
    doc = {"schema_version": formats.SCHEMA_VERSION,
           "value": formats.rational_str(res.value),
           "optimal_representative":
               formats.chain_to_doc(res.optimal_representative),
           "dual_certificate": formats.cochain_to_doc(res.dual_certificate)}
    _emit(args, doc, "l1 seminorm of the class: %s" % (res.value,))
    return 0


def _cmd_volume(args) -> int:
    res = simplicial_volume(_load_mc(args.input))
    doc = {"schema_version": formats.SCHEMA_VERSION,
           "value": formats.rational_str(res.value),
           "fundamental_cycle": formats.chain_to_doc(res.cycle),
           "dual_certificate":
               formats.cochain_to_doc(res.seminorm.dual_certificate)}
    _emit(args, doc, "simplicial volume: %s" % (res.value,))
    return 0


def _cmd_dual(args) -> int:
    mc = _load_mc(args.complex)
    z = formats.chain_from_doc(_load(args.chain))
    cc = _build_cc(args, mc)
    res = seminorm_l1(cc, z)
    ok = dual_check(res, z)
    doc = {"schema_version": formats.SCHEMA_VERSION,
           "value": formats.rational_str(res.value),
           "dual_certificate": formats.cochain_to_doc(res.dual_certificate),
           "gap_zero": ok}
    _emit(args, doc, "duality gap zero: %s (value %s)" % (ok, res.value))
    return 0 if ok else 3


def _cmd_int_seminorm(args) -> int:
    mc = _load_mc(args.complex)
    z = formats.chain_from_doc(_load(args.chain))
    cc = _build_cc(args, mc)
    res = integral_seminorm_bruteforce(cc, z, args.bound,
                                       args.support_bound)
    doc = {"schema_version": formats.SCHEMA_VERSION,
           "best": formats.rational_str(res.best),
           "certified": res.certified, "status": res.status,
           "representative": formats.chain_to_doc(res.representative)}
    _emit(args, doc, "integral seminorm: %s (%s)" % (res.best, res.status))
    return 0


def _cmd_quotient(args) -> int:
    mc, a = _load_action(args)
    q, proj = quotient(a)
    doc = {"schema_version": formats.SCHEMA_VERSION,
           "complex": q,
           "projection": _map_doc(proj)}
    _emit(args, doc, "quotient: %d simplices over %d"
          % (len(q.simplex_ids), len(mc.simplex_ids)))
    return 0


def _cmd_orbits(args) -> int:
    mc, a = _load_action(args)
    orbs = orbits(a, args.degree)
    doc = {"schema_version": formats.SCHEMA_VERSION, "degree": args.degree,
           "orbits": [[{"simplex": key.simplex,
                        "vertices": list(key.vertices)} for key in orb]
                      for orb in orbs]}
    _emit(args, doc, "%d orbit(s) of algebraic %d-simplices"
          % (len(orbs), args.degree))
    return 0


def _cmd_average(args) -> int:
    mc, a = _load_action(args)
    phi = formats.cochain_from_doc(_load(args.cochain))
    avg = average_cochain(a, phi)
    _emit(args, formats.cochain_to_doc(avg),
          "averaged cochain: %d term(s)" % len(avg))
    return 0


def _cmd_diffuse(args) -> int:
    a = formats.set_action_from_doc(_load(args.action))
    # looked up on its module, where perfbench/layers.py wraps it
    _reject_invalid(diffusion.validate_action_on_set(a))
    f = formats.function_from_doc(_load(args.function))
    epsilon = formats.rational_from_str(args.epsilon)
    mu, out = diffuse_to_epsilon(a, f, epsilon)
    bound = abs(f.total()) + epsilon
    doc = {"schema_version": formats.SCHEMA_VERSION,
           "measure": formats.measure_to_doc(mu),
           "result": formats.function_to_doc(out),
           "norm": formats.rational_str(out.l1_norm()),
           "certified_bound": formats.rational_str(bound)}
    _emit(args, doc, "diffused: |f'|_1 = %s <= %s"
          % (out.l1_norm(), bound))
    return 0


def _cmd_local_diffuse(args) -> int:
    a = formats.set_action_from_doc(_load(args.action))
    f = formats.function_from_doc(_load(args.function))
    budgets = [formats.rational_from_str(e)
               for e in args.epsilons.split(",")]
    out = local_diffuse(a, f, budgets, args.threshold)
    blocks = [{"norm": formats.rational_str(out.norm_over(b.points)),
               "sum": formats.rational_str(out.sum_over(b.points))}
              for b in a.blocks]
    doc = {"schema_version": formats.SCHEMA_VERSION,
           "result": formats.function_to_doc(out), "blocks": blocks}
    _emit(args, doc, "locally diffused over %d block(s)" % len(a.blocks))
    return 0


def _cmd_toy_vanish(args) -> int:
    mc, a = _load_action(args)
    z = formats.chain_from_doc(_load(args.chain))
    epsilon = formats.rational_from_str(args.epsilon)
    result, cert = toy_vanish(mc, a, z, epsilon)
    doc = {"schema_version": formats.SCHEMA_VERSION,
           "result": formats.chain_to_doc(result),
           "norm": formats.rational_str(result.l1_norm()),
           "certificate": {
               "bounding_chain": formats.chain_to_doc(cert.bounding_chain),
               "witnesses": {g: formats.chain_to_doc(b)
                             for g, b in cert.witnesses.items()}}}
    _emit(args, doc, "toy vanishing: |c'|_1 = %s <= %s"
          % (result.l1_norm(), epsilon))
    return 0


def _cmd_nerve(args) -> int:
    cover = formats.cover_from_doc(_load(args.input))
    n = nerve(cover, args.max_dim)
    flags = {str(j): cover.amenable.get(j, False) for j in cover.indices()}
    _emit(args, n,
          "nerve: %d vertices, dimension %d; amenable flags: %s"
          % (len(n.vertices), n.dimension, flags))
    return 0


def _cmd_mult(args) -> int:
    cover = formats.cover_from_doc(_load(args.input))
    m = multiplicity(cover)
    doc = {"schema_version": formats.SCHEMA_VERSION, "multiplicity": m,
           "amenable": {str(j): cover.amenable.get(j, False)
                        for j in cover.indices()}}
    _emit(args, doc, "multiplicity: %d" % m)
    return 0


def _cmd_coloring(args) -> int:
    mc = _load_mc(args.complex)
    cover = formats.cover_from_doc(_load(args.input))
    coloring = coloring_adapted(mc, cover)
    _emit(args, formats.coloring_to_doc(coloring),
          "adapted coloring with %d color(s)" % len(coloring.classes()))
    return 0


def _cmd_vanish_check(args) -> int:
    mc, a = _load_action(args)
    phi = formats.cochain_from_doc(_load(args.cochain))
    coloring = formats.coloring_from_doc(_load(args.coloring))
    witnesses = formats.witnesses_from_doc(_load(args.witnesses))
    rep = check_repeated_color_vanishing(phi, a, coloring, witnesses)
    doc = {"schema_version": formats.SCHEMA_VERSION,
           "verified": rep.verified,
           "missing_witnesses": rep.missing_witnesses,
           "unconstrained": rep.unconstrained,
           "complete": rep.complete}
    _emit(args, doc, "vanishing verified on %d simplex(es); %d missing "
          "witness(es)" % (len(rep.verified), len(rep.missing_witnesses)))
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building all subparsers costs milliseconds per job."""
    top = argparse.ArgumentParser(
        prog="mcx",
        description="multicomplexes, norms, group actions, diffusion")
    top.add_argument("--output", choices=("structured", "summary"),
                     default="structured",
                     help="JSON to stdout (default) or the summary alone")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, help="check multicomplex axioms")
    p.add_argument("input", nargs="?", default="-")

    p = add("skeleton", _cmd_skeleton, help="truncate to a dimension")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--dim", type=int, required=True)

    p = add("sphere", _cmd_sphere, help="the special sphere")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--labels", default=None,
                   help="comma-separated vertex labels")

    p = add("product", _cmd_product, help="product with the interval")
    p.add_argument("input", nargs="?", default="-")

    p = add("homology", _cmd_homology, help="exact homology")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--ring", choices=("z", "q"), default="q")
    p.add_argument("--variant", default="reduced",
                   choices=("full", "reduced", "alternating", "relative"))
    p.add_argument("--subcomplex", default=None,
                   help="comma-separated simplex ids (relative variant)")

    for name, fn in (("seminorm", _cmd_seminorm), ("dual", _cmd_dual)):
        p = add(name, fn, help="l1 seminorm of a class via exact LP")
        p.add_argument("chain", nargs="?", default="-")
        p.add_argument("--complex", required=True)
        p.add_argument("--variant", choices=("full", "reduced"),
                       default="reduced")

    p = add("volume", _cmd_volume, help="simplicial volume")
    p.add_argument("input", nargs="?", default="-")

    p = add("int-seminorm", _cmd_int_seminorm,
            help="integral seminorm by bounded search")
    p.add_argument("chain", nargs="?", default="-")
    p.add_argument("--complex", required=True)
    p.add_argument("--variant", choices=("full", "reduced"),
                   default="reduced")
    p.add_argument("--bound", type=int, required=True,
                   help="coefficient bound for bounding chains")
    p.add_argument("--support-bound", type=int, default=None)

    p = add("quotient", _cmd_quotient, help="quotient by a 0-trivial action")
    p.add_argument("action", nargs="?", default="-")
    p.add_argument("--complex", required=True)

    p = add("orbits", _cmd_orbits, help="orbits of algebraic simplices")
    p.add_argument("action", nargs="?", default="-")
    p.add_argument("--complex", required=True)
    p.add_argument("--degree", type=int, required=True)

    p = add("average", _cmd_average, help="group average of a cochain")
    p.add_argument("action", nargs="?", default="-")
    p.add_argument("--complex", required=True)
    p.add_argument("--cochain", required=True)

    p = add("diffuse", _cmd_diffuse, help="diffuse to a certified bound")
    p.add_argument("function", nargs="?", default="-")
    p.add_argument("--action", required=True)
    p.add_argument("--epsilon", required=True)

    p = add("local-diffuse", _cmd_local_diffuse,
            help="sequential per-orbit diffusion")
    p.add_argument("function", nargs="?", default="-")
    p.add_argument("--action", required=True)
    p.add_argument("--epsilons", required=True,
                   help="comma-separated budget per block")
    p.add_argument("--threshold", type=int, required=True)

    p = add("toy-vanish", _cmd_toy_vanish,
            help="average a cycle toward zero, certifiably")
    p.add_argument("chain", nargs="?", default="-")
    p.add_argument("--complex", required=True)
    p.add_argument("--action", required=True)
    p.add_argument("--epsilon", required=True)

    p = add("nerve", _cmd_nerve, help="nerve of a cover")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--max-dim", type=int, default=None)

    p = add("mult", _cmd_mult, help="multiplicity of a cover")
    p.add_argument("input", nargs="?", default="-")

    p = add("coloring", _cmd_coloring, help="adapted coloring")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--complex", required=True)

    p = add("vanish-check", _cmd_vanish_check,
            help="repeated-color vanishing report")
    p.add_argument("cochain", nargs="?", default="-")
    p.add_argument("--complex", required=True)
    p.add_argument("--action", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--witnesses", required=True)
    return top


def main(argv=None) -> int:
    # the job's data (JSON trees, frozensets, dicts of ids, ints and
    # Fractions) holds no cycles; the caller's setting comes back after
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except InternalInvariantError as exc:
        print("internal invariant breach: %s" % exc, file=sys.stderr)
        return 3
    except (FormatError, UnknownIdError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MulticomplexError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
