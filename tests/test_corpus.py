"""The corpus against the reference values the benchmark checks it with."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from genfrac import identities, opmatrix
from genfrac.corpus import corpus_json, run_corpus
from genfrac.opmatrix import clear_matrix_cache

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "corpus_reference.json"
RTOL = 1e-12


def test_corpus_matches_reference():
    ref = json.loads(REFERENCE.read_text())["entries"]
    entries = run_corpus()["entries"]
    assert len(entries) == len(ref) == 144
    for i, (entry, want_entry) in enumerate(zip(entries, ref)):
        for identity in ("ibp2d", "green"):
            got, want = entry[identity], want_entry[identity]
            for term in ("lhs", "rhs_area", "rhs_boundary"):
                # a term that is zero in the reference is compared at the
                # scale of the identity's left side
                tol = RTOL * (abs(want[term]) or abs(want["lhs"]))
                assert abs(got[term] - want[term]) <= tol, (i, identity, term)


def test_a_warm_corpus_pass_builds_assembles_and_contracts_nothing(monkeypatch):
    # the first pass keeps the value <K_half, S> of every (half, moment)
    # pair of the corpus with its half: the mixed p-sets contract every
    # one, on halves kept by then.  Later passes read those values alone.
    calls = Counter()

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.update([name]) or real(*args))

    spy(opmatrix, "_assemble")
    spy(identities, "_moment")
    spy(identities, "_contract")
    clear_matrix_cache()
    try:
        first = corpus_json()
        assert calls["_assemble"] == 24 and calls["_contract"] > 0
        for _ in range(2):
            calls.clear()
            assert corpus_json() == first
            assert calls == Counter()
    finally:
        clear_matrix_cache()


# `genfrac corpus` and a Green check at 15 x 20 nodes, whose 300 x 300
# contractions are where BLAS ddot's bits moved with the thread count
PAYLOAD = """
import sys
from genfrac.cli import main
out = sys.argv[1]
assert main(["corpus", "--json", out + "/corpus.json"]) == 0
assert main(["verify", "green", "--alpha", "0.4", "--psets", "mixed,left", "--rect", "0,1,0,2",
             "--f", "exp(t1-t2)", "--g", "t2^2+1+t1", "--eta", "sin(t1)*t2+t1^2",
             "--order", "15", "--panels", "20", "--json", out + "/green.json"]) == 0
"""


def test_the_payload_does_not_depend_on_the_blas_thread_count(tmp_path):
    payloads = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", PAYLOAD, str(out)], env=env, capture_output=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append([(out / name).read_bytes() for name in ("corpus.json", "green.json")])
    assert payloads[0] == payloads[1]
