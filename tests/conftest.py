"""Shared test settings: one hypothesis profile for every property test,
and a recorder of the files ``ltcsim.io`` opens."""

import pytest
from hypothesis import settings

import ltcsim.io

settings.register_profile("ltcsim", deadline=None, max_examples=200)
settings.load_profile("ltcsim")


@pytest.fixture
def opens(monkeypatch):
    """The modes ``ltcsim.io`` opens files with, and a set of modes to refuse
    with PermissionError (``chmod`` does not stop a suite run as root)."""
    modes, refused = [], set()

    def recording_open(path, mode="r", *args, **kwargs):
        modes.append(mode)
        if mode in refused:
            raise PermissionError(13, "Permission denied", str(path))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(ltcsim.io, "open", recording_open, raising=False)
    return modes, refused
