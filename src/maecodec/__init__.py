"""Masked-autoencoder image compression; the package root exports nothing.

Callers import its modules, as in ``from maecodec import pipeline``: pipeline
(the model-free transmitter and the receiver), masking, codec, mae,
transformer, autograd, training, metrics, sweep, dataset, errors and cli.
"""
