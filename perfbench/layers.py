"""Per-layer tracing from outside the program.

Tracer.install() replaces public functions of the multicomplex modules
with wrappers at the place their callers look them up (a module global,
a name imported into another module, or a class attribute), and
uninstall() puts the originals back.  Each wrapped call records a span
(name, start, end, parent span, job id) in memory and adds work counts
computed from its arguments and result, so counts repeat exactly for a
fixed seed.  A few very hot functions are only counted, not spanned.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from multicomplex import (actions, chains, cli, covers, diffusion, exactlp,
                          formats, intlinalg, seminorm)
from multicomplex.chains import ChainComplex, HomologyResult
from multicomplex.core import Multicomplex
from multicomplex.groups import FiniteGroup, FreeAbelianGroup


def _basis(cc):
    return sum(cc.dim(n) for n in cc.degrees())


def _shape(a):
    return len(a) * (len(a[0]) if a else 0)


# (name, places callers look it up, work counts from (args, result))
SPANNED = [
    ("cli.main", [(cli, "main")], None),
    ("formats.parse", [(formats, "parse_document")],
     lambda a, r: {"formats.bytes_in": len(a[0])}),
    ("formats.dump", [(formats, "canonical_dumps")],
     lambda a, r: {"formats.bytes_out": len(r)}),
    ("formats.decode", [(formats, n) for n in (
        "multicomplex_from_doc", "chain_from_doc", "cochain_from_doc",
        "action_from_doc", "set_action_from_doc", "function_from_doc",
        "cover_from_doc", "coloring_from_doc")], None),
    ("formats.encode", [(formats, n) for n in (
        "multicomplex_to_doc", "chain_to_doc", "cochain_to_doc",
        "measure_to_doc", "function_to_doc", "coloring_to_doc")], None),
    ("core.Multicomplex", [(Multicomplex, "__init__")],
     lambda a, r: {"core.simplices_built": len(a[0].simplex_ids)}),
    ("core.validate", [(Multicomplex, "validate")], None),
    ("core.product_with_interval", [(cli, "product_with_interval")], None),
    ("chains.build_full_chain_complex",
     [(cli, "build_full_chain_complex"),
      (diffusion, "build_full_chain_complex")],
     lambda a, r: {"chains.build_full_chain_complex.basis": _basis(r)}),
    ("chains.build_reduced_chain_complex",
     [(cli, "build_reduced_chain_complex"),
      (chains, "build_reduced_chain_complex"),
      (actions, "build_reduced_chain_complex")],
     lambda a, r: {"chains.build_reduced_chain_complex.basis": _basis(r)}),
    ("chains.build_relative_complex", [(cli, "build_relative_complex")],
     None),
    ("chains.boundary_matrix", [(ChainComplex, "boundary_matrix")],
     lambda a, r: {"chains.boundary_matrix.entries": _shape(r)}),
    ("chains.HomologyResult.structure", [(HomologyResult, "structure")],
     None),
    ("chains.HomologyResult.generators", [(HomologyResult, "generators")],
     None),
    ("chains.HomologyResult.is_boundary", [(HomologyResult, "is_boundary")],
     None),
    ("chains.fundamental_cycle", [(seminorm, "fundamental_cycle")], None),
    ("intlinalg.smith_form", [(intlinalg, "smith_form")],
     lambda a, r: {"intlinalg.smith_form.entries": _shape(a[0])}),
    ("intlinalg.rational_rref", [(intlinalg, "rational_rref")],
     lambda a, r: {"intlinalg.rational_rref.entries": _shape(a[0])}),
    ("intlinalg.integer_quotient", [(intlinalg, "integer_quotient")], None),
    ("intlinalg.integer_kernel_basis", [(intlinalg, "integer_kernel_basis")],
     None),
    ("intlinalg.rational_kernel_basis",
     [(intlinalg, "rational_kernel_basis")], None),
    ("intlinalg.solve", [(intlinalg, "rational_solve"),
                         (intlinalg, "solve_integer")], None),
    ("exactlp.solve", [(exactlp, "solve")],
     lambda a, r: {"exactlp.solve.rows": len(a[1]),
                   "exactlp.solve.cols": len(a[0])}),
    ("seminorm.seminorm_l1", [(cli, "seminorm_l1"),
                              (seminorm, "seminorm_l1")], None),
    ("seminorm.dual_check", [(cli, "dual_check")], None),
    ("seminorm.simplicial_volume", [(cli, "simplicial_volume")], None),
    ("seminorm.integral_seminorm_bruteforce",
     [(cli, "integral_seminorm_bruteforce")], None),
    ("actions.act_on_chain", [(diffusion, "act_on_chain")],
     lambda a, r: {"actions.act_on_chain.terms": len(a[2])}),
    ("actions.orbits", [(cli, "orbits"), (diffusion, "orbits")], None),
    ("actions.average_cochain", [(cli, "average_cochain"),
                                 (covers, "average_cochain")], None),
    ("actions.quotient", [(cli, "quotient")], None),
    ("actions.validate_action", [(cli, "validate_action")], None),
    ("diffusion.diffuse_to_epsilon", [(cli, "diffuse_to_epsilon"),
                                      (diffusion, "diffuse_to_epsilon")],
     None),
    ("diffusion.local_diffuse", [(cli, "local_diffuse")], None),
    ("diffusion.toy_vanish", [(cli, "toy_vanish")], None),
    ("diffusion.folner_measure", [(diffusion, "folner_measure")],
     lambda a, r: {"diffusion.folner_measure.atoms": len(r)}),
    ("diffusion.convolve", [(diffusion, "convolve")],
     lambda a, r: {"diffusion.convolve.pairs": len(a[0]) * len(a[1].items())}),
    ("diffusion.measure_derivative", [(diffusion, "measure_derivative")],
     None),
    ("diffusion.validate_action_on_set",
     [(diffusion, "validate_action_on_set")], None),
    ("covers.nerve", [(cli, "nerve")],
     lambda a, r: {"covers.nerve.faces": len(r.simplex_ids)}),
    ("covers.coloring_adapted", [(cli, "coloring_adapted")], None),
    ("covers.check_repeated_color_vanishing",
     [(cli, "check_repeated_color_vanishing")], None),
]

# called too often for a span each: counted only
COUNTED = [
    ("groups.multiply", [(FiniteGroup, "multiply"),
                         (FreeAbelianGroup, "multiply")]),
]


class Tracer:
    """Spans and work counts of the wrapped calls, kept in memory."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, job id]
        self.counts = defaultdict(int)
        self.job = None
        self._stack = []
        self._undo = []

    def _spanned(self, name, fn, work):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if work is not None:
                for key, n in work(args, result).items():
                    counts[key] += n
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for name, places, work in SPANNED:
            for owner, attr in places:
                fn = getattr(owner, attr)
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, self._spanned(name, fn, work))
        for name, places in COUNTED:
            for owner, attr in places:
                fn = getattr(owner, attr)
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, self._counted(name, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> dict:
        """Seconds per span name, each span less its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name + ".self_s"] += end - start - child[i]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")
