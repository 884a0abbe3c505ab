from sdeproj import workers

import corpus


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
