"""Tests for the container environment model (§V-B)."""

import pytest

from repro.errors import ConfigError
from repro.hardware.accelerator import Vendor
from repro.simcluster.container import VENDOR_IMAGES, ContainerRuntime


class TestVendorImages:
    def test_images_for_all_vendor_framework_pairs(self):
        names = set(VENDOR_IMAGES)
        assert {"nvcr-pytorch", "rocm-pytorch", "nvcr-tensorflow",
                "rocm-tensorflow", "graphcore-poplar"} <= names

    def test_flash_attention_version_gap(self):
        # §V-A: CUDA has flash-attention 3, ROCm is still on 2.
        nv = VENDOR_IMAGES["nvcr-pytorch"].package_version("flash-attn")
        amd = VENDOR_IMAGES["rocm-pytorch"].package_version("flash-attn")
        assert float(nv) > float(amd)

    def test_missing_package(self):
        with pytest.raises(ConfigError):
            VENDOR_IMAGES["rocm-pytorch"].package_version("transformer-engine")


class TestOverlay:
    @pytest.fixture
    def runtime(self):
        return ContainerRuntime(VENDOR_IMAGES["nvcr-pytorch"])

    def test_overlay_shadows_image_packages(self, runtime):
        assert runtime.resolved_version("flash-attn") == "3.0"
        runtime.pip_install("flash-attn", "2.5")
        assert runtime.resolved_version("flash-attn") == "2.5"

    def test_overlay_adds_new_packages(self, runtime):
        runtime.pip_install("jpwr", "1.0")
        assert runtime.resolved_version("jpwr") == "1.0"

    def test_unknown_package(self, runtime):
        with pytest.raises(ConfigError):
            runtime.resolved_version("tensorrt-llm")

    def test_pythonpath_puts_overlay_first(self, runtime):
        runtime.pip_install("jpwr", "1.0")
        parts = runtime.pythonpath().split(":")
        assert parts[0].startswith("/overlay")


class TestBindsAndEnv:
    @pytest.fixture
    def runtime(self):
        return ContainerRuntime(VENDOR_IMAGES["nvcr-pytorch"])

    def test_bind_requires_absolute_path(self, runtime):
        with pytest.raises(ConfigError):
            runtime.bind("data")

    def test_environment_merges_and_sets_pythonpath(self, runtime):
        runtime.set_env("NCCL_DEBUG", "INFO")
        env = runtime.environment({"HOME": "/root"})
        assert env["NCCL_DEBUG"] == "INFO"
        assert env["HOME"] == "/root"
        assert "PYTHONPATH" in env

    def test_pmix_mismatch_detected(self, runtime):
        # §V-B: PMIX_SECURITY_MODE=native must be set out-of-container.
        with pytest.raises(ConfigError, match="PMIx"):
            runtime.check_mpi_compat({})
        runtime.check_mpi_compat({"PMIX_SECURITY_MODE": "native"})
