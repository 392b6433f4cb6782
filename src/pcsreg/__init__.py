"""Perspective-corrected spatial referring expressions for tabletop scenes.

Generates referring expressions whose reference-frame choices maximize a
probabilistic listener-resolution score, resolves expressions back to
entity distributions, and ships baselines plus a seeded simulated-listener
evaluation harness.
"""

__version__ = "0.1.0"
