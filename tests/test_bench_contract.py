"""The benchmark's tracer patches cavex functions by name: each must exist."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()  # AttributeError if a name it wraps is gone
        patched = list(tracer.patches)
    finally:
        tracer.uninstall()
    assert patched
    originals = {}
    for owner, name, original in patched:
        originals.setdefault((owner, name), original)  # the first patch saw the original
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original, f"{owner.__name__}.{name}"
