"""LAY001 fixture — linted as ``core/lay001.py``: a core module reaching
into the application shell (and stdlib/third-party imports that must not
trip the rule)."""

import os  # stdlib: never a boundary violation
import numpy as np  # third-party: never a boundary violation

import repro.experiments  # expect LAY001
from repro import system  # expect LAY001
from repro.cli import main  # expect LAY001

from repro.storage.pages import PageGeometry  # allowed: core -> storage
from .distance import squared_distances  # allowed: within-layer relative
from ..simio.disk_model import DiskModel  # allowed: core -> simio

from repro.extensions import multi_descriptor  # repro-lint: disable=LAY001
