"""Fault injection into the one kernel that forms every sample,
``dynamics.Propagator._step``, keyed on the clean values of the samples."""

import numpy as np

from mechmbqc import dynamics as dyn


def fault_samples(monkeypatch, clean, faults, propagator=None):
    """Make the samples that ``propagator``, or every propagator, forms
    misbehave.

    ``faults`` maps a key of ``clean``, a stack of clean samples, to a
    function of the correctly formed sample that returns the sample to store
    or raises :class:`numpy.linalg.LinAlgError`. A formed sample is clean
    sample m if it equals ``clean[m]``, or if it was formed from what was
    stored in place of clean sample m - 1: along a grid, the samples after a
    fault count on from it. Each is found by value, whatever the order or the
    stack in which the samples are formed.
    """
    step = dyn.Propagator._step
    keyed = {clean[m].tobytes(): m for m in faults}
    after = {}  # a stored sample downstream of a fault -> the clean sample it replaced

    def faulty(self, sigmas, flow, work, out):
        stack = out if out.ndim == 3 else out[None]  # a lone chain comes as lone matrices
        # out may be sigmas, so the sources are read first.
        sources = [sigma.tobytes() for sigma in np.reshape(sigmas, stack.shape)]
        step(self, sigmas, flow, work, out)
        for source, sample in zip(sources, stack):
            m = after[source] + 1 if source in after else keyed.get(sample.tobytes())
            if m is None:
                continue
            sample[...] = faults.get(m, lambda s: s)(sample.copy())
            after[sample.tobytes()] = m
        return out

    if propagator is None:
        monkeypatch.setattr(dyn.Propagator, "_step", faulty)
    else:
        monkeypatch.setattr(propagator, "_step", faulty.__get__(propagator))
