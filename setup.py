"""Build shim: compiles the optional C kernel ``src/procasphere/_core.c``.

The package works without the extension (pure-Python twin, bit-identical),
so ``optional=True`` turns a failed compile into a source-only install
instead of an error.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "procasphere._core",
            ["src/procasphere/_core.c"],
            # -ffp-contract=off: the pure backend must be bit-identical,
            # so fused multiply-adds are off the table. -std=c11 is the
            # standard the test builds of tests/conftest.py use; the
            # kernel's per-thread node table is C11 _Thread_local.
            extra_compile_args=["-O2", "-ffp-contract=off", "-std=c11"],
            optional=True,
        )
    ]
)
