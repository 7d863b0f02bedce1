"""Container environment model (paper §V-B).

CARAML runs every benchmark inside a vendor-provided container with a
custom overlay: extra pip packages installed with ``--prefix
--no-deps --ignore-installed``, a manually adjusted ``PYTHONPATH``,
custom bind paths, and environment wrapper scripts.  This module models
exactly that composition logic so the JUBE steps that "pull the
container and build packages" have a real substrate, and so the §V-B
pitfalls (conflicting package versions, missing bind paths, PMIx
mismatch) are testable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.accelerator import Vendor


@dataclass(frozen=True)
class PackageSpec:
    """One Python package with a version, as inside a container image."""

    name: str
    version: str

    def __str__(self) -> str:
        return f"{self.name}=={self.version}"


@dataclass(frozen=True)
class ContainerImage:
    """A vendor container image: base framework plus bundled packages."""

    name: str
    vendor: Vendor
    framework: str  # "pytorch" or "tensorflow"
    framework_version: str
    packages: tuple[PackageSpec, ...] = ()

    def has_package(self, name: str) -> bool:
        """True when the image bundles a package of that name."""
        return any(p.name == name for p in self.packages)

    def package_version(self, name: str) -> str:
        """Version of a bundled package."""
        for p in self.packages:
            if p.name == name:
                return p.version
        raise ConfigError(f"{self.name}: package {name!r} not in image")


#: Vendor images the paper's benchmarks start from, with the packages
#: relevant to the compatibility story of §V-A (flash-attn levels).
VENDOR_IMAGES: dict[str, ContainerImage] = {
    img.name: img
    for img in [
        ContainerImage(
            name="nvcr-pytorch",
            vendor=Vendor.NVIDIA,
            framework="pytorch",
            framework_version="2.1",
            packages=(
                PackageSpec("flash-attn", "3.0"),
                PackageSpec("apex", "0.1"),
                PackageSpec("transformer-engine", "1.2"),
            ),
        ),
        ContainerImage(
            name="rocm-pytorch",
            vendor=Vendor.AMD,
            framework="pytorch",
            framework_version="2.1",
            packages=(PackageSpec("flash-attn", "2.0"),),
        ),
        ContainerImage(
            name="nvcr-tensorflow",
            vendor=Vendor.NVIDIA,
            framework="tensorflow",
            framework_version="2.14",
            packages=(PackageSpec("horovod", "0.28"),),
        ),
        ContainerImage(
            name="rocm-tensorflow",
            vendor=Vendor.AMD,
            framework="tensorflow",
            framework_version="2.13",
            packages=(PackageSpec("horovod", "0.28"),),
        ),
        ContainerImage(
            name="graphcore-poplar",
            vendor=Vendor.GRAPHCORE,
            framework="poplar",
            framework_version="3.3",
            packages=(PackageSpec("poptorch", "3.3"), PackageSpec("gcipuinfo", "1.0")),
        ),
    ]
}


class ContainerRuntime:
    """An Apptainer-like runtime composing image + overlay + binds.

    The overlay install mimics CARAML's
    ``pip --prefix ... --no-deps --ignore-installed``: overlay packages
    shadow image packages of the same name (that is what adjusting
    ``PYTHONPATH`` achieves), and nothing resolves dependencies.
    """

    def __init__(self, image: ContainerImage) -> None:
        self.image = image
        self._overlay: dict[str, PackageSpec] = {}
        self._binds: dict[str, str] = {}
        self._env: dict[str, str] = {}

    # -- overlay packages --------------------------------------------------

    def pip_install(self, name: str, version: str) -> PackageSpec:
        """Install a package into the overlay prefix (shadows the image)."""
        pkg = PackageSpec(name, version)
        self._overlay[name] = pkg
        return pkg

    def resolved_version(self, name: str) -> str:
        """Version visible inside the container (overlay wins)."""
        if name in self._overlay:
            return self._overlay[name].version
        if self.image.has_package(name):
            return self.image.package_version(name)
        raise ConfigError(
            f"package {name!r} not available in {self.image.name} (+overlay)"
        )

    def pythonpath(self) -> str:
        """PYTHONPATH with the overlay prefix ahead of image packages."""
        parts = []
        if self._overlay:
            parts.append("/overlay/lib/python/site-packages")
        parts.append("/usr/lib/python/site-packages")
        return ":".join(parts)

    # -- binds and environment ----------------------------------------------

    def bind(self, host_path: str, container_path: str | None = None) -> None:
        """Add a bind mount (container isolation needs explicit binds)."""
        if not host_path.startswith("/"):
            raise ConfigError(f"bind source must be absolute: {host_path!r}")
        self._binds[host_path] = container_path or host_path

    def set_env(self, key: str, value: str) -> None:
        """Export an environment variable into the container."""
        self._env[key] = value

    def environment(self, outer_env: dict[str, str] | None = None) -> dict[str, str]:
        """Final environment of a containerised process.

        The §V-B PMIx pitfall is modelled here: launching under Slurm
        requires ``PMIX_SECURITY_MODE=native`` in the *outer* job
        environment; the runtime propagates it inward.
        """
        env = dict(outer_env or {})
        env.update(self._env)
        env["PYTHONPATH"] = self.pythonpath()
        return env

    def check_mpi_compat(self, outer_env: dict[str, str]) -> None:
        """Raise unless the PMIx setup matches (§V-B).

        Containers bring their own MPI; the out-of-container PMIx must
        be explicitly aligned or multi-rank startup fails.
        """
        if outer_env.get("PMIX_SECURITY_MODE") != "native":
            raise ConfigError(
                "PMIx security mode mismatch between host and container; "
                "run with PMIX_SECURITY_MODE=native (paper §V-B)"
            )
