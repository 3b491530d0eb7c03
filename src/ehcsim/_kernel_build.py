"""Building the native kernel and the package's bytecode: what
:mod:`ehcsim._kernels` imports only when the library it looks for is not
cached, or the package's bytecode is missing or older than its source.

:func:`build` compiles the kernel's C text into a CPython extension module
with the system C compiler and the running interpreter's C headers, which
:mod:`sysconfig` locates, atomically, and deletes the libraries of other
digests for this interpreter in that directory. :func:`write_bytecode`
compiles every module of the package into its ``__pycache__``.
:func:`temp_cache_dir` is the per-user cache directory under the system
temporary directory, for hosts where ``__pycache__`` is not private to
this user.
"""

from __future__ import annotations

import os
import py_compile
import shutil
import subprocess
import sysconfig
import tempfile

from ._kernels import _BuildError


def temp_cache_dir() -> str:
    """The per-user directory for the compiled kernel under the system
    temporary directory."""
    return os.path.join(tempfile.gettempdir(), f"ehcsim-{os.getuid()}")


def build(text: str, target: str, compiler: str, cflags) -> None:
    """Compile ``text`` into the extension module ``target``, atomically,
    then delete the libraries of other digests next to it that carry the
    same extension suffix, which follows the first dot of a library's name;
    raises :class:`~ehcsim._kernels._BuildError`. A host without Python's
    headers fails the build as one without a compiler does."""
    cc = shutil.which(compiler)
    if cc is None:
        raise _BuildError(f"no C compiler ({compiler}) on PATH")
    paths = sysconfig.get_paths()
    includes = dict.fromkeys(f"-I{paths[key]}" for key in ("include", "platinclude"))
    directory, name = os.path.split(target)
    stem, suffix = name[:name.index(".")], name[name.index("."):]
    fd, src = tempfile.mkstemp(suffix=".c", prefix=stem, dir=directory)
    tmp = src.removesuffix(".c") + suffix
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        try:
            proc = subprocess.run(
                [cc, *cflags, *includes, "-o", tmp, src],
                capture_output=True, text=True, timeout=120,
            )
        except (OSError, subprocess.TimeoutExpired) as e:
            raise _BuildError(f"{compiler} failed: {e}") from None
        if proc.returncode != 0:
            detail = (proc.stderr.strip().splitlines() or ["no output"])[0]
            raise _BuildError(f"{compiler} exited with status {proc.returncode}: {detail}")
        os.replace(tmp, target)
    finally:
        _unlink(src)
        _unlink(tmp)
    # Other digests are superseded; a build in progress has a longer name,
    # and another interpreter's library another suffix.
    for entry in os.listdir(directory):
        if (entry != name and len(entry) == len(name) and entry.startswith("_kernel-")
                and entry.endswith(suffix)):
            _unlink(os.path.join(directory, entry))


def write_bytecode(package_dir: str) -> None:
    """Write the bytecode of every ``.py`` file in ``package_dir`` where the
    interpreter reads it, atomically. Checked-hash bytecode: the import
    system compares it with a hash of the source, so an edited module never
    runs old bytecode, whatever its size and mtime. A module whose bytecode
    cannot be written, or that does not compile, is skipped silently; its
    import compiles it from source, as without this cache."""
    try:
        entries = os.listdir(package_dir)
    except OSError:
        return
    for entry in entries:
        if entry.endswith(".py"):
            try:
                py_compile.compile(
                    os.path.join(package_dir, entry), doraise=True,
                    invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH,
                )
            except (OSError, py_compile.PyCompileError):
                pass


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
