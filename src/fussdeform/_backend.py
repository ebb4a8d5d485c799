"""The float kernels, bound under one name.

``density``, ``posdef`` and ``verify`` call the kernels through the
``kernels`` name imported from here, so a tracer can rebind that name in each
module; ``backend_name`` is recorded in benchmark metadata.
"""

from . import _kernels_py as kernels

backend_name = kernels.BACKEND
