"""Simulation and analysis of photon-pair joint spectra and their
Hong-Ou-Mandel interference.

The package builds joint spectral amplitudes from a chirped Gaussian pump
and a group-velocity-walk-off phasematching model (Gaussian-approximated or
sinc), predicts coincidence scans numerically and in closed form, Fourier
transforms to the joint temporal picture, and fits measured dip data.
"""

__version__ = "0.1.0"
