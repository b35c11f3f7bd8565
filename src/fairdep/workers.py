"""Running work in forked child processes, and how many CPUs it may use.

This is the one place the package starts another process. The CSV
loader's byte-range readers (`data`) and validate's fold workers
(`validation.cross_validate`) both run through `forked`, and both read
`FORKS` and `usable_cpus`, so the two never disagree on either.

A child is an `os.fork` of the caller: it starts at once with every
module and array of its parent, runs one call, pickles the result (or
the exception it raised) down a pipe and ends by `os._exit`, so it never
runs the parent's atexit handlers or flushes the parent's buffered
output. Nothing is pickled on the way in.

The fork is safe in the commands:
- their only other OS threads are the OpenBLAS pools of numpy and of
  scipy (whose LAPACK module `fairdep.dependence` loads), which
  OpenBLAS's own `pthread_atfork` handlers stop before the fork and
  restart on the next BLAS call;
- a child runs only a range reader or `forest.fit_predict`, neither of
  which calls a BLAS or LAPACK routine.
Python 3.12 and later count the BLAS threads and emit a
DeprecationWarning ("This process ... is multi-threaded, use of fork()
may lead to deadlocks in the child"), which the default warning filters
hide; under `-W error` the fork still proceeds. A library caller whose
process runs other threads that may hold locks at the fork should keep
to one CPU (see `load_dataset` and `cross_validate`).

Only Linux forks (`FORKS`): macOS system frameworks are not fork-safe
and Windows has no fork, so there the same work runs in this process.
"""

import os
import pickle
import signal
import sys
import traceback
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager

# macOS system frameworks are not fork-safe and Windows has no fork
FORKS = sys.platform.startswith("linux")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a child, shown as its cause."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


@contextmanager
def forked(function, calls):
    """Fork one child per `(name, args)` of `calls` to run `function(*args)`.

    Yields an iterator of the children's results in the order of `calls`;
    the children run while the caller does its own work, and each is
    reaped when its result is read. A child's exception is raised here
    with its own type, the child's traceback as its `__cause__`. A child
    that ends without a result (killed, or its exception would not
    pickle, whose traceback it writes to standard error) raises
    `BrokenExecutor` naming it. On leaving the block, by an exception (a
    KeyboardInterrupt included) or before every result was read, each
    child not yet reaped is killed and reaped.
    """
    children = {}  # pid -> (name, the read end of its pipe), until reaped
    try:
        for name, args in calls:
            pid, pipe = _fork(function, args)
            children[pid] = name, pipe
        yield (_result(children, pid) for pid in list(children))
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(function, args):
    """The pid of a child that runs `function(*args)`, and the pipe it answers down."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                message = function(*args), None
            except Exception as exc:
                message = None, (exc, traceback.format_exc())
            with open(write_end, "wb") as pipe:
                pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        except Exception:  # no result: the traceback goes straight to file descriptor 2
            os.write(2, traceback.format_exc().encode(errors="replace"))
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _result(children: dict, pid: int):
    """The result of the child `pid`, once it has been reaped."""
    name, pipe = children[pid]
    try:
        message = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # it ended before it wrote the whole result
        message = None
    status = os.waitpid(pid, 0)[1]
    children.pop(pid)[1].close()
    if message is None or status != 0:
        raise BrokenExecutor(f"{name} ended without a result (wait status {status})")
    result, error = message
    if error is not None:
        exc, text = error
        raise exc from _ChildTraceback(text)
    return result
