"""Contract tests for the stable :mod:`repro.api` facade.

The facade is the supported surface for applications: everything in
its ``__all__`` must import, the convenience entry points must work
end-to-end, and the compatibility shims (kw-only constructors,
versioned cache fingerprints) must behave as documented in DESIGN.md.
"""

import importlib
import warnings

import pytest

from repro import api
from repro.core.campaign import (
    DEFAULT_SPECS,
    FINGERPRINT_SCHEMA_VERSION,
    campaign_fingerprint,
)
from repro.injection import SINGLE_BIT_SOFT


class TestFacadeSurface:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_core_entry_points_exported(self):
        for name in (
            "run_campaign", "load_or_run_profile", "explore_design_space",
            "CampaignConfig", "CharacterizationCampaign",
            "make_codec", "get_kernel", "UnknownTechniqueError",
        ):
            assert name in api.__all__

    def test_run_campaign_smoke(self, websearch_small):
        profile = api.run_campaign(
            websearch_small,
            config=api.CampaignConfig(trials_per_cell=2, queries_per_trial=4),
            regions=["private"],
            specs=(SINGLE_BIT_SOFT,),
        )
        assert profile.regions() == ["private"]
        assert profile.cell("private", SINGLE_BIT_SOFT.label).trials == 2

    def test_run_campaign_rejects_unknown_backend(self, websearch_small):
        with pytest.raises(ValueError, match="backend"):
            api.run_campaign(websearch_small, backend="simd")


class TestKeywordOnlyConstructors:
    def test_campaign_config_is_keyword_only_after_workload(self, websearch_small):
        with pytest.raises(TypeError):
            api.CharacterizationCampaign(websearch_small, api.CampaignConfig())

    def test_raim_mirroring_inner_is_keyword_only(self):
        from repro.ecc import Mirroring, Raim, SecDed
        with pytest.raises(TypeError):
            Raim(SecDed())
        with pytest.raises(TypeError):
            Mirroring(SecDed())
        assert Raim(inner=SecDed()).name == "RAIM"


class TestProgressShim:
    def test_package_imports_do_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            importlib.reload(importlib.import_module("repro.exec"))
            importlib.reload(importlib.import_module("repro.monitoring"))
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]


class TestFingerprintVersioning:
    def _fingerprint(self, backend):
        return campaign_fingerprint(
            config=api.CampaignConfig(trials_per_cell=2, queries_per_trial=4),
            specs=DEFAULT_SPECS,
            regions=("heap",),
            backend=backend,
        )

    def test_backends_never_share_cache_entries(self):
        assert self._fingerprint("scalar") != self._fingerprint("vectorized")

    def test_schema_version_bumped_for_redesign(self):
        assert FINGERPRINT_SCHEMA_VERSION >= 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            self._fingerprint("simd")
