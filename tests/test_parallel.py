"""fork_split: the front half here, the back half in a forked child."""

import time

from tracepattern import parallel

from conftest import assert_no_child


def test_failed_front_kills_the_child():
    """The child's part would be thrown away, so a failed front does not
    wait for it: the serial result comes well before the child could end."""
    def front():
        raise RuntimeError("the front half fails")

    def back(tmp):
        time.sleep(10)

    started = time.monotonic()
    got = parallel.fork_split(front, back, lambda result, tmp: "joined", lambda: "serial")
    assert got == "serial"
    assert time.monotonic() - started < 5
    assert_no_child()
