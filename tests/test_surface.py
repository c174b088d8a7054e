"""Guards on the public surface.

Every exported name must resolve, and eval_family, the one Bessel
accessor, must return exactly the leading pairs of the kernel's s_pair and
e_pair, the entries the benchmark times and the chains run on.
"""

import procasphere
from procasphere import oracle
from procasphere.backend import kernel
from procasphere.bessel import eval_family


def test_exported_names_resolve():
    for module in (procasphere, oracle):
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], module.__name__


def test_eval_family_is_the_kernel_pairs():
    for l in (0, 1, 2, 5, 17, 60, 200, 1000):
        for z in (2.0 ** -64, 1e-6, 0.01, 0.5, 3.0, 40.0, 700.0, 9000.0,
                  1e5, 1e6):
            f = eval_family(l, z)
            assert repr((f.s.mantissa, f.s.log2_scale)) == repr(
                kernel.s_pair(l, z)[:2]), (l, z)
            assert repr((f.e.mantissa, f.e.log2_scale)) == repr(
                kernel.e_pair(l, z)[:2]), (l, z)
