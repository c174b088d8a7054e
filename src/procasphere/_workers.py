"""Forked worker processes for the partial-wave sum.

spectrum imports this module only when a wave sum runs on more than one
process. The waves come in the kernels' chain blocks {1}, {2, ..., 17},
{18, ..., 33}, ..., whose waves share their nodes and the rows that the
kernels keep for them. Consecutive blocks framed alike share their panel
nodes too, and a node's upward runs go on from one block to a later one
on the same process, but the rows are kept per block, so a block is the
unit of work. The blocks are dealt round-robin:
the calling process makes blocks 0, n, 2n, ... of n processes itself, and
forked worker j makes blocks j, j + n, .... A worker's waves come back
exact, as struct "ddqdd". Any wave that a worker does not send, the
calling process makes itself, so an error is raised there as the serial
loop raises it, and an error past the stop never is.
"""

import itertools
import os
import signal
import struct

from ._rules import _block_top

# One wave: (value, error, evaluations, TE share, TM share).
_RECORD = struct.Struct("ddqdd")


def _blocks(l_cap):
    # The waves 1, ..., l_cap in blocks, the last one clipped at l_cap.
    lo = 1
    while lo <= l_cap:
        hi = min(_block_top(lo), l_cap)
        yield range(lo, hi + 1)
        lo = hi + 1


def _serve(blocks, wave, args, token, out):
    # A worker's loop over its blocks. Before each block it reads one
    # token, so it runs at most one block ahead of the sum, and it sends
    # each wave as soon as it has it. On an Exception it drops the rest and
    # closes its result pipe: the parent reads the waves sent so far, then
    # end of file, and makes every wave still missing itself. The worker
    # then holds its token pipe open until the parent closes it, so the
    # parent never writes a token into a closed pipe.
    try:
        for block in blocks:
            if not os.read(token, 1):
                return
            for l in block:
                os.write(out, _RECORD.pack(*wave(l, *args)))
    except Exception:
        os.close(out)
    while os.read(token, 1):
        pass


def forked_waves(l_cap, wave, args, workers):
    """Every wave(l, *args), l = 1, ..., l_cap, in ascending order, made
    by this process and up to workers - 1 forked workers, as many as can
    start. Closing the generator, or an exception out of it, closes the
    pipes and kills and reaps every worker."""
    fds = []    # the pipe ends this process holds
    lanes = []  # (token write end, result reader) per worker
    pids = []
    try:
        for j in range(1, workers):
            made = len(fds)
            try:
                res_r, res_w = os.pipe()
                fds += (res_r, res_w)
                tok_r, tok_w = os.pipe()
                fds += (tok_r, tok_w)
                os.write(tok_w, b"\0")  # the token of the worker's first block
                pid = os.fork()
            except OSError:
                # Out of processes or descriptors: this process makes the
                # blocks of each worker that did not start.
                while len(fds) > made:
                    os.close(fds.pop())
                break
            if pid == 0:
                # The worker never returns into the caller's frames, and
                # leaves without running atexit or flushing stdio.
                try:
                    for fd in fds:
                        if fd not in (tok_r, res_w):
                            os.close(fd)
                    _serve(itertools.islice(_blocks(l_cap), j, None, workers),
                           wave, args, tok_r, res_w)
                finally:
                    os._exit(0)
            pids.append(pid)
            for fd in (tok_r, res_w):
                os.close(fd)
                fds.remove(fd)
            lanes.append((tok_w, open(res_r, "rb", closefd=False)))
        live = [j <= len(pids) for j in range(workers)]
        size = _RECORD.size
        for b, block in enumerate(_blocks(l_cap)):
            j = b % workers
            if j and live[j]:
                token, results = lanes[j - 1]
                try:
                    # Lets the worker start its next block.
                    os.write(token, b"\0")
                except BrokenPipeError:
                    pass
            for l in block:
                if j and live[j]:
                    data = results.read(size)
                    if len(data) == size:
                        yield _RECORD.unpack(data)
                        continue
                    live[j] = False
                yield wave(l, *args)
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
