"""Kernel backend selection, made once at import.

The compiled extension is used when it is built; HONEYSIM_PURE=1
forces the pure-Python twin. Both expose the same surface (Stream,
CoreWorld, tally, mix64, IMPL) and are parity-tested against each
other, so everything above this package is backend-agnostic. Callers
read the four entry points as attributes of this module at call time,
so a whole run uses one backend.
"""

import os

from . import pure

if os.environ.get("HONEYSIM_PURE"):
    _impl = pure
else:
    try:
        from . import _accel as _impl
    except ImportError:
        _impl = pure

BACKEND = _impl.IMPL
Stream = _impl.Stream
CoreWorld = _impl.CoreWorld
tally = _impl.tally
mix64 = _impl.mix64
