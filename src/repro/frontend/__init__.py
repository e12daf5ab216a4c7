"""Front-end components: branch prediction, and the front end as
columns of the architectural stream (:mod:`repro.frontend.columns`)."""

from .branch_predictor import TageLitePredictor

__all__ = ["TageLitePredictor"]
