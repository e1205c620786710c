"""Referential-game and iterated-learning simulations over artificial languages."""

__version__ = "0.1.0"
