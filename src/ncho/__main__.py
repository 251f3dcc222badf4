"""``python -m ncho``: the ``ncho`` command."""

from .cli import entrypoint

entrypoint()
