"""Forked child processes that compute results for a sequence of items and
send them back through pipes, in item order. A child inherits its parent's
memory, so large inputs reach it without being pickled; only results are.
The sweep runs its cells this way, and `protocol.run` selects ahead this way.
"""

import os
import pickle
import signal
import threading

# Set in every child `Forked` makes: a child forks no children of its own.
IN_CHILD = False


def can_fork() -> bool:
    """Whether this process may fork `Forked` children: the platform has
    `fork`, this process is not itself a `Forked` child, and no other thread
    runs (a forked child would inherit the locks such a thread holds)."""
    return hasattr(os, "fork") and not IN_CHILD and threading.active_count() == 1


class Forked:
    """`n` forked children computing `fn` over the sequence `items`.

    Child i computes items[i::n] in order and pickles each result into its
    pipe as soon as it has it, so besides what its pipe holds it keeps at
    most one finished result waiting. Iterating yields the results in item
    order; an item whose child ended before sending its result (`fn`
    raised, or the child died) yields None, and so does every item when
    n is 0. `close`, also on leaving a `with` block, kills and reaps every
    child. An OSError from making a pipe or a child is raised after the
    children already made are reaped.
    """

    def __init__(self, fn, items, n: int):
        self._count = len(items)
        self._next = 0
        self._children = []  # (pid, read end of its pipe)
        try:
            for i in range(n):
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:
                    self._child(fn, items[i::n], read, write)
                self._children.append((pid, os.fdopen(read, "rb")))
                os.close(write)
        except BaseException:
            self.close()
            raise

    def _child(self, fn, items, read: int, write: int) -> None:
        global IN_CHILD
        IN_CHILD = True
        status = 1
        try:
            os.close(read)
            for _, fh in self._children:
                fh.close()
            with open(write, "wb") as fh:
                for item in items:
                    pickle.dump(fn(item), fh, pickle.HIGHEST_PROTOCOL)
                    fh.flush()
            status = 0
        finally:
            # Skips the parent's atexit handlers and the flush of the stdio
            # buffers the child inherited.
            os._exit(status)

    def __iter__(self):
        return self

    def __next__(self):
        k = self._next
        if k == self._count:
            raise StopIteration
        self._next += 1
        if not self._children:
            return None
        try:
            return pickle.load(self._children[k % len(self._children)][1])
        except (EOFError, pickle.UnpicklingError):  # no result, or a truncated one
            return None

    def close(self) -> None:
        """Kills and reaps every child; results not yet read are dropped."""
        for pid, fh in self._children:
            os.kill(pid, signal.SIGKILL)
            fh.close()
            os.waitpid(pid, 0)
        self._children.clear()

    def __enter__(self) -> "Forked":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
