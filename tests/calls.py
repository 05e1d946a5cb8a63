"""Call counts: how many calls ``elko``'s own code issues for one request,
the timing-free measure behind ``data/call-ceilings.json``, shared by the
tests and ``.github/ab.py``.

``count_calls(package_dir, call)`` runs ``call()`` under ``sys.setprofile``
and counts the calls issued from frames whose code lies in
``package_dir``: Python calls, and the calls of builtins and of C methods
such as numpy's array methods.  ``sys.setprofile`` sees no call of a ufunc
(``np.exp``, ``np.matmul``), which is neither, so those are not counted.
A call into numpy counts once, however numpy implements it:

* a Python function that a C function runs while it is in progress, such
  as ``numpy._core._methods._amin`` under ``ndarray.min``, is not counted;
* numpy's ``__array_function__`` dispatchers (``_<name>_dispatcher``),
  which numpy 1.25 and later runs from C before the implementation, each
  generator step a call of its own, are not counted, so that one call of
  ``np.einsum`` counts once there as under numpy 1.24's Python wrapper.
"""

import os
import sys

# the momentum (px, py, pz, m) of the point-eval and spin-one-scan ceilings,
# and the (operator, construction) of the spin-one-scan requests: perfbench's
# four configurations
MOMENTUM = (0.4, -0.2, 0.7, 1.3)
CONFIGS = (("sc", "lambda"), ("sc", "rho"), ("g5sc", "lambda"), ("g5sc", "rho"))


def count_calls(package_dir, call):
    """(Python calls, C calls) issued from ``package_dir``'s frames during
    ``call()``."""
    package_dir = os.path.abspath(package_dir)
    inside, in_c = {}, []   # code -> in the package; frames in a C call

    def ours(frame):
        code = frame.f_code
        if code not in inside:
            inside[code] = os.path.dirname(os.path.abspath(code.co_filename)) == package_dir
        return inside[code]

    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "call":
            caller = frame.f_back
            if (caller is not None and not (in_c and in_c[-1] is caller) and ours(caller)
                    and not frame.f_code.co_name.endswith("_dispatcher")):
                counts[0] += 1
        elif event == "c_call":
            in_c.append(frame)
            counts[1] += ours(frame)
        elif event in ("c_return", "c_exception") and in_c:
            in_c.pop()

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return tuple(counts)
