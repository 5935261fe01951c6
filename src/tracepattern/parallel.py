"""Two-CPU jobs: the front half in this process, the back half in a forked
child, and the serial path whenever anything goes wrong.

``export`` splits large matrix CSV reads and writes this way and
``pipeline`` the parsing and matching of large trace files.
"""

from __future__ import annotations

import gc
import logging
import os
import signal
import tempfile

logger = logging.getLogger(__name__)


def two_cpus():
    """Whether this process may run on two CPUs and can fork."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def line_start(fh, byte):
    """The first line start at or after ``byte`` (>= 1) of the binary file ``fh``."""
    fh.seek(byte - 1)
    fh.readline()
    return fh.tell()


def fork_split(front, back, join, serial):
    """``join(front(), tmp)``, where ``back(tmp)`` runs meanwhile in a forked
    child and writes its part into ``tmp``, an unlinked temporary file that
    ``join`` reads from its start. If anything fails, on either side or in
    ``join``, the result of ``serial()`` instead, so errors are raised by
    the serial path alone. A failed ``front`` kills the child, whose part
    would be thrown away. The child is always reaped before this returns.
    """
    status = result = None
    try:
        with tempfile.TemporaryFile() as tmp:
            pid = os.fork()
            if pid == 0:  # the child: never return into the caller
                code = 1
                try:
                    gc.disable()  # collecting the parent's garbage could flush its files
                    back(tmp)
                    tmp.flush()
                    code = 0
                finally:
                    os._exit(code)
            try:
                result = front()
            except BaseException:
                os.kill(pid, signal.SIGKILL)  # its part would be thrown away
                raise
            finally:
                try:
                    status = os.waitpid(pid, 0)[1]
                except ChildProcessError:  # reaped elsewhere, outcome unknown
                    pass
            if status == 0:
                tmp.seek(0)
                return join(result, tmp)
    except Exception as exc:
        logger.debug("split job failed (%r); serial path", exc)
    else:
        logger.debug("split job's child ended with wait status %s; serial path", status)
    result = None  # the front's result may be large; let it go first
    return serial()
