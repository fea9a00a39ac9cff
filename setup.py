"""Setup shim + optional compiled engine kernel.

The evaluation environment is offline and lacks the ``wheel`` package, so
PEP 660 editable installs (``pip install -e .``) cannot build. This shim
lets ``python setup.py develop`` / ``pip install -e . --no-build-isolation``
fall back to the setuptools legacy path. Configuration lives in
pyproject.toml.

The C extension below is the *optional* compiled engine backend
(``repro.engine._ckernel``, see README "Engine architecture").  It is
pure CPython C-API with no third-party dependencies; when no compiler
toolchain is available the build degrades to a warning and the package
installs pure-Python (the engine then runs the interpreted kernels).
Build in place with::

    python setup.py build_ext --inplace
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the compiled kernel if possible; never fail the install."""

    def initialize_options(self):
        super().initialize_options()
        self.failed = []  # extensions whose build failed this invocation

    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing entirely
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # compile/link failure
            self.failed.append(ext)
            self._warn(exc)

    def copy_extensions_to_source(self):
        # build/lib* may still hold the output of an earlier, successful
        # build; copying it for an extension that failed to build now
        # would install a stale binary that does not match the sources.
        self.extensions = [e for e in self.extensions if e not in self.failed]
        super().copy_extensions_to_source()

    @staticmethod
    def _warn(exc):
        print(
            "WARNING: building the optional compiled engine kernel "
            f"(repro.engine._ckernel) failed: {exc}\n"
            "         No binary was copied into src/ (a leftover of an "
            "earlier build is never installed in its place).\n"
            "         The package works without it (pure-Python engine "
            "backend); set REPRO_ENGINE_BACKEND=python to silence the "
            "auto-detection.",
            file=sys.stderr,
        )


setup(
    ext_modules=[
        Extension(
            "repro.engine._ckernel",
            sources=["src/repro/engine/_ckernel.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
