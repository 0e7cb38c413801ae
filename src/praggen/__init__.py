"""Pragmatically informative conditional text generation.

A base speaker proposes text for a structured input; a listener tries to
reconstruct the input from that text. Decoding can stay with the base
speaker, rerank its candidates by reconstructability, or steer each token
against explicit distractor inputs while tracking a listener belief over
which input is being described.
"""
