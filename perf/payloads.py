"""Seeded inputs for the RPC workloads, each with its expected result.

Every value has a fixed printed width (8 alphanumerics, 6-digit longs,
``dddd.5`` doubles), so the bytes on the wire depend on the workload
and never on the seed: ``wire_bytes_per_op`` repeats exactly.
"""

import random
import string
from collections import namedtuple

_ALNUM = string.ascii_letters + string.digits

#: One remote call: operation name, argument tuple, the value the reply
#: must equal.
Op = namedtuple("Op", "name args expected")

#: echo sizes of the open-loop workload: 64 sizes spread log-uniformly
#: over 8..512 B; the seed picks order and content, never the set.
SIZED_TABLE = tuple(round(8 * 64 ** (i / 63.0)) for i in range(64))


def _text(rng, size):
    return "".join(rng.choices(_ALNUM, k=size))


def _echo(rng, size):
    text = _text(rng, size)
    return Op("echo", (text,), text)


def _push(rng, sample_class, count=256):
    samples = [
        sample_class(id=rng.randrange(100000, 1000000),
                     value=rng.randrange(1000, 10000) + 0.5,
                     tag=_text(rng, 8))
        for _ in range(count)
    ]
    return Op("push", (samples,), expected_push(samples))


def _scale(rng, count=1024):
    values = [rng.randrange(2000, 10000) for _ in range(count)]
    k = rng.randrange(50, 100)
    return Op("scale", (values, k), expected_scale(values, k))


def expected_push(samples):
    return len(samples)


def expected_scale(values, k):
    return [value * k for value in values]


def build(kind, seed, sample_class):
    """The op cycle a workload rotates through, in seeded order.

    A cycle holds every op shape in fixed proportion, so any whole
    number of cycles sends the same bytes whatever the seed.
    """
    rng = random.Random(seed)
    if kind == "ping":
        ops = [_echo(rng, 8) for _ in range(1024)]
    elif kind == "bulk":
        ops = []
        for _ in range(4):
            ops.append(_echo(rng, 16 * 1024))
            ops.append(_push(rng, sample_class))
            ops.append(_scale(rng))
    elif kind == "sized":
        ops = [_echo(rng, size) for size in SIZED_TABLE for _ in range(4)]
    else:
        raise ValueError(f"unknown op mix {kind!r}")
    rng.shuffle(ops)
    return ops

