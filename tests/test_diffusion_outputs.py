"""The diffusion-averaging benchmark jobs print the bytes they printed
when these hashes were recorded.

tests/sweep.py checks every job of seeds 1-3 against one hash in about
15 s.  This runs the 13 jobs of one round of seed 1 as it does, through
multicomplex.cli.main from a work directory named relatively, in well
under a second, and names each job whose stdout changed.
"""

import hashlib
import importlib
import os
from pathlib import Path

from multicomplex import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (kind, sha256 of stdout) of each job, in round order; every job exits 0
PINNED = [
    ("diffuse",
     "e6fedc3b00b70851725af4eb91e951a278b56e6410c7a4ead9979d488d3ec05b"),
    ("diffuse",
     "f322307dfe2e7b51bae7dbd306473b3c9e8a9be191059f674de81262e638288b"),
    ("diffuse",
     "9ed6388b4d468cbb5637211bf9623bd2fe888ac33f55c08b77aab3b2c1592672"),
    ("diffuse",
     "1b79e9b4fc5643ce63d2b5ab17fbfb6686bbc217b02f97762595fe9fc592cd80"),
    ("local-diffuse",
     "8ced1fbd6d18ce4f809b7e09a3948bd1a576ffa349839d955c80c179fd451c2f"),
    ("local-diffuse",
     "3bc2f26d06b52e704b1ed0c7ffcb7b055c4e3e41a3dade8551dd5e6527328e38"),
    ("toy-vanish",
     "893da8722b13fd113c27266abd2facaa5912688e5e0569153274465134473929"),
    ("toy-vanish",
     "08182c57383d6041e58916694a54f40414d757963e18dcd7d87dfe0faf2bcb9a"),
    ("average",
     "609b3bdde003102cf2f9490c40f63e3343bdd6f736f8e7ce8407c3f14e883bf7"),
    ("orbits",
     "2a4789b6e0de2ddd5ae017f0c576012790f81ead3752f1e0129dc9cd76cf1e69"),
    ("quotient",
     "57ef088e58582a7c71b02145656ba3887f98daed5b4ba3353c92dd74ab0a0a52"),
    ("vanish-check",
     "2ee0d0a4577457a3f16d8660d8d77f10aa30a67bb32e649c836f689f15c1cf2e"),
    ("vanish-check",
     "7b7b6ec736fa34ad290375aa7ce1a085dcf131f57f120d3f2788c8195c7783ec"),
]


def test_the_diffusion_jobs_of_seed_1_print_their_pinned_bytes(
        tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(tmp_path)
    work_dir = os.path.join("work", "diffusion-averaging", "1")
    os.makedirs(work_dir)
    (jobs,) = workloads.build("diffusion-averaging", 1, work_dir, 1)
    got = []
    for job in jobs:
        code = cli.main(job.argv)
        out = capsys.readouterr().out
        got.append((job.kind, code, hashlib.sha256(out.encode()).hexdigest()))
    assert got == [(kind, 0, digest) for kind, digest in PINNED]
