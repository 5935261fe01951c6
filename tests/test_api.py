import tracepattern


def test_every_public_name_resolves():
    missing = [name for name in tracepattern.__all__ if not hasattr(tracepattern, name)]
    assert missing == []
    assert len(set(tracepattern.__all__)) == len(tracepattern.__all__)


def test_star_import():
    namespace = {}
    exec("from tracepattern import *", namespace)
    assert set(tracepattern.__all__) <= set(namespace)
