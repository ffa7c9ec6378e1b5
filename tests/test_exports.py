"""The package's public names."""

import inspect

import ageval
from ageval import am, dsp


def test_every_exported_name_is_listed_once_and_resolves():
    assert len(ageval.__all__) == len(set(ageval.__all__))
    assert [name for name in ageval.__all__ if not hasattr(ageval, name)] == []


def test_the_removed_front_end_names_are_gone():
    assert not hasattr(ageval, "mfcc") and "mfcc" not in ageval.__all__
    assert not hasattr(dsp, "mfcc")
    assert not hasattr(dsp.MelSpec(), "n_cepstra")
    assert not hasattr(dsp.Waveform, "duration_s")
    assert not hasattr(am.PosteriorMatrix, "n_classes")
    assert list(inspect.signature(dsp.load_wav).parameters) == ["path"]
