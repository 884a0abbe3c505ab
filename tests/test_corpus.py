import os
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import sdeproj
from sdeproj import workers

import corpus

# numpy's AVX-512 dispatch targets; naming them in NPY_DISABLE_CPU_FEATURES
# makes numpy fall back to its AVX2 loops.
AVX512 = "AVX512_SPR AVX512_ICL X86_V4"
HERE = os.path.dirname(os.path.abspath(__file__))


def test_every_corpus_case_runs_and_gives_one_digest_for_every_thread_count(
        monkeypatch):
    # Four usable cores, so that threads = 3 builds a real three-worker team
    # on any machine.
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    runs = [corpus.digests(threads) for threads in (1, 2, 3)]
    assert len(runs[0]) >= 30
    assert not [name for name, digest in runs[0].items()
                if digest.startswith("error:")]
    assert runs[0] == runs[1] == runs[2]


def _corpus_run(**env) -> dict[str, str]:
    """Digests of `corpus.py --threads 1` in a subprocess, with `env` added
    to this process's environment for that subprocess only."""
    path = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(sdeproj.__file__)),
        os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "corpus.py"), "--threads", "1"],
        env=dict(os.environ, PYTHONPATH=path, **env), capture_output=True,
        text=True, check=True, timeout=600)
    return dict(line.split() for line in result.stdout.splitlines())


def test_only_the_listed_corpus_cases_depend_on_the_host():
    if not any(__cpu_features__.get(name) for name in AVX512.split()):
        pytest.skip(f"compared nothing: numpy dispatches none of {AVX512} "
                    "on this host, so switching them off changes no loop")
    with open(os.path.join(HERE, "corpus_host_dependent.txt"),
              encoding="utf-8") as handle:
        listed = {line.split()[0] for line in handle
                  if line.strip() and not line.startswith("#")}
    default = _corpus_run()
    switched = _corpus_run(NPY_DISABLE_CPU_FEATURES=AVX512)
    assert default.keys() == switched.keys()
    moved = {name for name in default if default[name] != switched[name]}
    print(f"{len(default)} cases compared with {AVX512} switched off; moved: "
          f"{sorted(moved)}; listed but equal here: {sorted(listed - moved)}")
    assert moved <= listed, sorted(moved - listed)
