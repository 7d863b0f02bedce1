"""The paper's headline comparison claims, checked against the model.

§IV of the paper makes a set of quantitative cross-system claims; this
module evaluates each one and reports paper-vs-measured.  The benchmark
harness prints these (experiments E7/E8 of DESIGN.md) and the test
suite asserts every claim holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.figures import fig2_llm_series, fig3_resnet_series


@dataclass(frozen=True)
class ClaimCheck:
    """One paper claim with its measured counterpart."""

    claim: str
    paper_value: float | None  # None for ordering-only claims
    measured_value: float
    holds: bool

    def describe(self) -> str:
        """One-line report."""
        paper = f"{self.paper_value:g}" if self.paper_value is not None else "-"
        status = "OK " if self.holds else "FAIL"
        return f"[{status}] {self.claim}: paper={paper} measured={self.measured_value:.3g}"


def _at(series, label: str, gbs: int):
    for p in series[label]:
        if p.global_batch_size == gbs:
            return p
    raise KeyError(f"{label} has no point at gbs {gbs}")


def llm_claims() -> list[ClaimCheck]:
    """The §IV-A claims over the Figure 2 data (at the largest batch)."""
    series = fig2_llm_series()
    gbs = 4096
    gh = _at(series, "GH200 (JRDC)", gbs)
    jedi = _at(series, "GH200 (JEDI)", gbs)
    h100 = _at(series, "H100 (JRDC)", gbs)
    wai = _at(series, "H100 (WestAI)", gbs)
    a100 = _at(series, "A100", gbs)
    gcd = _at(series, "AMD MI250:GCD", gbs)
    gpu = _at(series, "AMD MI250:GPU", gbs)

    max_rate = max(
        p.tokens_per_s_per_device for pts in series.values() for p in pts
    )
    checks = [
        ClaimCheck(
            "GH200 peak throughput ~47505 tokens/s/GPU",
            47505.0,
            max_rate,
            abs(max_rate / 47505.0 - 1) < 0.15,
        ),
        ClaimCheck(
            "GH200 = 2.45x A100",
            2.45,
            gh.tokens_per_s_per_device / a100.tokens_per_s_per_device,
            abs(gh.tokens_per_s_per_device / a100.tokens_per_s_per_device / 2.45 - 1)
            < 0.15,
        ),
        ClaimCheck(
            "H100 WestAI = 1.3x H100 JRDC",
            1.3,
            wai.tokens_per_s_per_device / h100.tokens_per_s_per_device,
            abs(wai.tokens_per_s_per_device / h100.tokens_per_s_per_device / 1.3 - 1)
            < 0.15,
        ),
        ClaimCheck(
            "GH200 JRDC = 1.2x GH200 JEDI per device",
            1.2,
            gh.tokens_per_s_per_device / jedi.tokens_per_s_per_device,
            abs(gh.tokens_per_s_per_device / jedi.tokens_per_s_per_device / 1.2 - 1)
            < 0.15,
        ),
        ClaimCheck(
            "GH200 JRDC energy/h ~1.2x JEDI",
            1.2,
            gh.energy_per_hour_wh / jedi.energy_per_hour_wh,
            abs(gh.energy_per_hour_wh / jedi.energy_per_hour_wh / 1.2 - 1) < 0.2,
        ),
        ClaimCheck(
            "JEDI tokens/Wh >= GH200 JRDC (slightly better)",
            None,
            jedi.tokens_per_wh / gh.tokens_per_wh,
            jedi.tokens_per_wh >= gh.tokens_per_wh,
        ),
        ClaimCheck(
            "MI250 4-GCD beats 8-GCD per device",
            None,
            gcd.tokens_per_s_per_device / gpu.tokens_per_s_per_device,
            gcd.tokens_per_s_per_device > gpu.tokens_per_s_per_device,
        ),
        ClaimCheck(
            "MI250 8-GCD less energy-efficient than 4-GCD",
            None,
            gpu.tokens_per_wh / gcd.tokens_per_wh,
            gpu.tokens_per_wh < gcd.tokens_per_wh,
        ),
    ]
    # H100 PCIe best tokens/Wh, by up to 25 %.
    best_label = max(series, key=lambda lbl: _at(series, lbl, gbs).tokens_per_wh if any(p.global_batch_size == gbs for p in series[lbl]) else 0.0)
    runner_up = max(
        (
            _at(series, lbl, gbs).tokens_per_wh
            for lbl in series
            if lbl != "H100 (JRDC)"
            and any(p.global_batch_size == gbs for p in series[lbl])
        ),
    )
    margin = h100.tokens_per_wh / runner_up - 1
    checks.append(
        ClaimCheck(
            "H100 PCIe best tokens/Wh (margin <= 25%)",
            0.25,
            margin,
            best_label == "H100 (JRDC)" and 0 < margin <= 0.25,
        )
    )
    return checks


def resnet_claims() -> list[ClaimCheck]:
    """The §IV-B claims over the Figure 3 data."""
    series = fig3_resnet_series()
    small_gbs, large_gbs = 16, 2048
    a100 = _at(series, "A100", large_gbs)
    h100 = _at(series, "H100 (JRDC)", large_gbs)
    wai = _at(series, "H100 (WestAI)", large_gbs)
    gh = _at(series, "GH200 (JRDC)", large_gbs)
    jedi = _at(series, "GH200 (JEDI)", large_gbs)

    nvidia_eff = {
        lbl: _at(series, lbl, large_gbs).images_per_wh
        for lbl in ("A100", "H100 (JRDC)", "H100 (WestAI)", "GH200 (JRDC)", "GH200 (JEDI)")
    }
    best_nvidia = max(nvidia_eff, key=nvidia_eff.get)
    amd_best_large = max(
        _at(series, lbl, large_gbs).images_per_wh
        for lbl in ("AMD MI250:GCD", "AMD MI250:GPU")
    )
    amd_best_small = max(
        _at(series, lbl, small_gbs).images_per_wh
        for lbl in ("AMD MI250:GCD", "AMD MI250:GPU")
    )
    gh_small = _at(series, "GH200 (JRDC)", small_gbs)
    h100_small = _at(series, "H100 (JRDC)", small_gbs)
    jedi_small = _at(series, "GH200 (JEDI)", small_gbs)
    gcd_large = _at(series, "AMD MI250:GCD", large_gbs)
    gpu_large = _at(series, "AMD MI250:GPU", large_gbs)

    return [
        ClaimCheck(
            "throughput grows with GPU generation (A100 < H100 < H100-SXM)",
            None,
            h100.images_per_s / a100.images_per_s,
            a100.images_per_s < h100.images_per_s < wai.images_per_s,
        ),
        ClaimCheck(
            "GH200 JRDC > JEDI at large batch",
            None,
            gh.images_per_s / jedi.images_per_s,
            gh.images_per_s > jedi.images_per_s,
        ),
        ClaimCheck(
            "GH200-vs-JEDI gap grows with batch size",
            None,
            (gh.images_per_s / jedi.images_per_s)
            / (gh_small.images_per_s / jedi_small.images_per_s),
            gh.images_per_s / jedi.images_per_s
            > gh_small.images_per_s / jedi_small.images_per_s,
        ),
        ClaimCheck(
            "MI250 best images/Wh at large batch",
            None,
            amd_best_large / max(nvidia_eff.values()),
            amd_best_large > max(nvidia_eff.values()),
        ),
        ClaimCheck(
            "H100/GH200 more efficient than MI250 at small batch",
            None,
            min(h100_small.images_per_wh, gh_small.images_per_wh) / amd_best_small,
            h100_small.images_per_wh > amd_best_small
            and gh_small.images_per_wh > amd_best_small,
        ),
        ClaimCheck(
            "best NVIDIA efficiency: H100 PCIe, GH200 JRDC next",
            None,
            nvidia_eff["H100 (JRDC)"] / nvidia_eff["GH200 (JRDC)"],
            best_nvidia == "H100 (JRDC)"
            and sorted(nvidia_eff, key=nvidia_eff.get)[-2] == "GH200 (JRDC)",
        ),
        ClaimCheck(
            "MI250 2-GCD (GPU) beats 1-GCD throughput",
            None,
            gpu_large.images_per_s / gcd_large.images_per_s,
            gpu_large.images_per_s > gcd_large.images_per_s,
        ),
        ClaimCheck(
            "MI250 2-GCD slightly lower energy/epoch than 1-GCD",
            None,
            gpu_large.energy_per_epoch_wh / gcd_large.energy_per_epoch_wh,
            gpu_large.energy_per_epoch_wh < gcd_large.energy_per_epoch_wh,
        ),
        ClaimCheck(
            "MI250 2-GCD slightly higher images/Wh than 1-GCD",
            None,
            gpu_large.images_per_wh / gcd_large.images_per_wh,
            gpu_large.images_per_wh > gcd_large.images_per_wh,
        ),
    ]
