import pytest

import dantzig_adm.adm as adm_module
import dantzig_adm.subsolver as subsolver_module


@pytest.fixture
def gram_calls(monkeypatch):
    """Counts apply_gram calls; both modules bind the name at import, so both are patched."""
    calls = [0]
    original = subsolver_module.apply_gram

    def counting(inst, v):
        calls[0] += 1
        return original(inst, v)

    monkeypatch.setattr(subsolver_module, "apply_gram", counting)
    monkeypatch.setattr(adm_module, "apply_gram", counting)
    return calls
