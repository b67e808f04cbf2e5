"""Self-test of the output checker: a tampered output must fail.

    python3 perfbench/selftest.py

Builds one round of every workload, runs each job once, and requires the
untouched output to pass its check, a tampered copy of it to fail, and a
non-zero exit code to fail.  Exits with code 1 on any surprise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction

import run


def _certificate_entry_two(doc, job):
    terms = doc["dual_certificate"]["terms"]
    if terms:
        terms[0]["coeff"] = "2"
    else:  # a zero class: claim a positive value instead
        doc["value"] = "1"


def _zero_claim(doc, job):
    """Claim the class is zero, with an empty certificate and
    representative.  That is the correct output for a zero class, so
    it must pass exactly when the true value is 0."""
    correct = Fraction(doc["value"]) == 0
    doc["value"] = "0"
    doc["dual_certificate"]["terms"] = []
    if "optimal_representative" in doc:
        doc["optimal_representative"]["terms"] = []
    return correct


def _input_as_best(doc, job):
    """Report the input chain itself, as a search that stopped early
    would."""
    with open(job.argv[1], encoding="utf-8") as fh:
        z = json.load(fh)
    doc["representative"]["terms"] = z["terms"]
    doc["best"] = str(sum(abs(Fraction(t["coeff"])) for t in z["terms"]))


def _best_minus_one(doc, job):
    doc["best"] = str(int(doc["best"]) - 1)


def _zero_best(doc, job):
    doc["best"] = "0"
    doc["representative"]["terms"] = []


def _betti_plus_one(doc, job):
    doc["structure"]["0"]["betti"] += 1


def _drop_last_simplex(doc, job):
    (doc.get("complex") or doc)["simplices"].pop()


def _drop_first_edge(doc, job):
    simplices = doc["simplices"]
    simplices.remove(next(s for s in simplices if len(s["vertices"]) == 2))


def _recolor_first_vertex(doc, job):
    colors = doc["assignment"]
    v = sorted(colors)[0]
    colors[v] = sorted(set(colors.values()) - {colors[v]})[0]


def _double_first_value(doc, job):
    values = doc["result"]["values"]
    x = sorted(values)[0]
    values[x] = str(2 * Fraction(values[x]))


def _shift_first_block_sum(doc, job):
    block = doc["blocks"][0]
    block["sum"] = str(Fraction(block["sum"]) + 1)


def _double_first_term(doc, job):
    term = doc["terms"][0]
    term["coeff"] = str(2 * Fraction(term["coeff"]))


def _set(**fields):
    return lambda doc, job: doc.update(fields)


# each tamper edits an output document in place; it returns True when
# the edited document is still correct and must pass
TAMPER = {
    "homology": [_betti_plus_one],
    "seminorm": [_certificate_entry_two, _zero_claim],
    "dual": [_certificate_entry_two, _zero_claim],
    "volume": [_certificate_entry_two],
    "int-seminorm": [_best_minus_one, _input_as_best, _zero_best],
    "product": [_drop_last_simplex],
    "validate": [_set(ok=False)],
    "skeleton": [_drop_last_simplex],
    "nerve": [_drop_first_edge],
    "coloring": [_recolor_first_vertex],
    "diffuse": [_double_first_value],
    "local-diffuse": [_shift_first_block_sum],
    "toy-vanish": [_set(norm="1")],
    "average": [_double_first_term],
    "orbits": [lambda doc, job: doc["orbits"].pop()],
    "quotient": [_drop_last_simplex],
    "vanish-check": [lambda doc, job: doc.update(complete=not doc["complete"])],
}


def main() -> int:
    run.load_program()
    import workloads
    surprises = 0
    for workload in workloads.WORKLOADS:
        work = os.path.join(run.WORK, "selftest", workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        for job in workloads.build(workload, 0, work, 1)[0]:
            code, out, err = run.run_job(job)
            why = run.verify(job, code, out)
            if why is not None:
                print("FAIL %s: untouched output rejected: %s %s"
                      % (job.kind, why, err.strip()[-300:]))
                surprises += 1
                continue
            if run.verify(job, 1, out) is None:
                print("FAIL %s: exit code 1 accepted" % job.kind)
                surprises += 1
            for tamper in TAMPER[job.kind.split("/")[0]]:
                doc = json.loads(out)
                still_correct = tamper(doc, job) is True
                why = run.verify(job, 0, json.dumps(doc))
                if still_correct and why is not None:
                    print("FAIL %s: correct output rejected after %s: %s"
                          % (job.kind, tamper.__name__, why))
                    surprises += 1
                elif not still_correct and why is None:
                    print("FAIL %s: output accepted after %s"
                          % (job.kind, tamper.__name__))
                    surprises += 1
                else:
                    print("ok   %-22s %-24s %s" % (
                        job.kind, tamper.__name__,
                        "accepted" if still_correct else
                        "rejected: " + why[:70]))
    print("%d surprise(s)" % surprises)
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main())
