"""Finite-dimensional fermions on Spin(2n+1).

Fock space with ladder operators and Clifford generators, the defining and
half-spin representations of so(2n+1) as image functions, an exact
normal-ordering engine for its enveloping algebra, Haar sampling with spin
lifts, a geometric Stratonovich ensemble integrator for the noise-only
left-invariant diffusion, and Monte Carlo verification of the resulting
Feynman-Kac semigroup identity.

The package is its modules, imported by name (``from spinfock import sde``),
and the ``spinfock`` command, ``cli.main``; this file re-exports nothing.
The version lives in pyproject.toml alone.
"""
