"""The float kernels, bound under one name.

``density``, ``posdef`` and ``verify`` call the kernels through the
``kernels`` name imported from here, so a tracer can rebind that name in each
module.  Only those three import it, so a command loads the kernels only when
it reaches one of them.
"""

from . import _kernels_py as kernels
